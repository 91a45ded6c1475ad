from __future__ import annotations

from collections import deque

import pytest

from oracles import evaluate_word, semidirect_z8_z2_r5
from mixedsurf import coset
from mixedsurf.coset import todd_coxeter
from mixedsurf.errors import BudgetExceeded, IntegrityError, ValidationError
from mixedsurf.perm import fingerprint
from mixedsurf.words import Presentation


def _orders_histogram(group):
    hist = {}
    for i in range(group.order):
        o = group.order_of(i)
        hist[o] = hist.get(o, 0) + 1
    return hist


def _check_relators_hold(pres, group):
    assignment = {sym: g for sym, g in zip(pres.generators, group.generators)}
    for rel in pres.relators:
        assert evaluate_word(rel, assignment).images == tuple(range(1, group.degree + 1))


def test_cyclic_five():
    pres = Presentation.parse(("x",), ["x^5"])
    g = todd_coxeter(pres)
    assert g.order == 5
    _check_relators_hold(pres, g)


def test_dihedral_eight():
    pres = Presentation.parse(("x", "y"), ["x^2", "y^4", "(x*y)^2"])
    g = todd_coxeter(pres)
    assert g.order == 8
    _check_relators_hold(pres, g)


def test_d285_matches_semidirect_oracle():
    pres = Presentation.parse(("x", "y"), ["x^2", "y^8", "x*y*x^-1*y^-5"])
    g = todd_coxeter(pres)
    assert g.order == 16
    _check_relators_hold(pres, g)
    oracle = semidirect_z8_z2_r5()
    assert _orders_histogram(g) == _orders_histogram(oracle)
    assert fingerprint(g) == fingerprint(oracle)


def test_relator_reordering_invariance():
    variants = [
        ["x^2", "y^8", "x*y*x^-1*y^-5"],
        ["x*y*x^-1*y^-5", "y^8", "x^2"],
        # cyclic rotation of the mixed relator: y^-5 x y x^-1
        ["x^2", "y^8", "y^-5*x*y*x^-1"],
    ]
    orders = {todd_coxeter(Presentation.parse(("x", "y"), rels)).order
              for rels in variants}
    assert orders == {16}


def test_budget_exhaustion_is_distinct_from_syntax():
    infinite = Presentation.parse(("x", "y"), ["x^2"])
    with pytest.raises(BudgetExceeded):
        todd_coxeter(infinite, max_cosets=300)


def test_invalid_budget():
    with pytest.raises(ValidationError):
        todd_coxeter(Presentation.parse(("x",), ["x^2"]), max_cosets=0)


def test_triangle_group_quotient_order_48():
    # The (2,3,8) triangle quotient cut by one extra squared relator of
    # syllable length six collapses to order 48 when the relator itself
    # (rather than its square) is imposed.
    pres = Presentation.parse(
        ("x", "y"), ["x^2", "y^3", "(x*y)^8", "(x*y*x*y*x*y^2)^2"])
    assert todd_coxeter(pres).order == 48
    pres2 = Presentation.parse(
        ("x", "y"), ["x^2", "y^3", "(x*y)^8", "(x*y*x*y*x*y^2)^4"])
    assert todd_coxeter(pres2).order == 768


# The final checks of todd_coxeter, each reached by one broken step.  No CLI
# command enumerates cosets, so these have no exit code to check.

def test_unprocessed_coincidences_leave_the_table_incomplete(monkeypatch):
    # Coincident cosets are joined, but the dead coset's entries are never moved.
    merge = coset._Table.merge
    monkeypatch.setattr(coset._Table, "merge",
                        lambda self, k, lam, queue: merge(self, k, lam, deque()))
    with pytest.raises(IntegrityError, match="incomplete coset table after enumeration"):
        todd_coxeter(Presentation.parse(("x", "y"), ["x^2", "y^4", "(x*y)^2"]))


def test_a_relator_left_unscanned_fails_the_final_scan(monkeypatch):
    # Without its x^6 scans the enumeration builds <x | x^4> = Z4, not Z2.
    scan = coset._Table.scan_and_fill
    monkeypatch.setattr(coset._Table, "scan_and_fill",
                        lambda self, alpha, cols: len(cols) == 6 or scan(self, alpha, cols))
    with pytest.raises(IntegrityError, match="relator scan does not close on the final table"):
        todd_coxeter(Presentation.parse(("x",), ["x^4", "x^6"]))

