from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import elements_of, evaluate_word, right_product_closure, semidirect_z8_z2_r5
from mixedsurf import coset
from mixedsurf.coset import todd_coxeter
from mixedsurf.errors import BudgetExceeded, IntegrityError, ValidationError
from mixedsurf.perm import fingerprint
from mixedsurf.words import Presentation, invert_word, normalize_word


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



# Presentations with known orders.  The triangle groups and the Coxeter
# presentation of S4 are in Coxeter and Moser, *Generators and Relations for
# Discrete Groups*.  The last one enumerates to the trivial group through a
# cascade of coincidences: some merged through an inverse column, and a
# coset that dies while its own relators are scanned.  The Coxeter
# presentation led by a product of two of its relators also merges through
# an inverse column, in a group that is not trivial, where merging the
# wrong cosets changes the order.  The last two reach the merge through an
# inverse column in a way the later scans do not make up for: without it the
# first ends with an incomplete table, the second with a relator that does
# not close.
COMMUTATOR = "(x^-1*y^-1*x*y)"
KNOWN = {
    "triangle (2,3,4)": (("x", "y"), ["x^2", "y^3", "(x*y)^4"], 24),
    "triangle (2,3,5)": (("x", "y"), ["x^2", "y^3", "(x*y)^5"], 60),
    "Coxeter S4": (("a", "b", "c"),
                   ["a^2", "b^2", "c^2", "(a*b)^3", "(b*c)^3", "(a*c)^2"], 24),
    "Coxeter S4, relators reversed": (("a", "b", "c"),
                                      ["(a*c)^2", "(b*c)^3", "(a*b)^3", "c^2", "b^2", "a^2"],
                                      24),
    "Coxeter S4, a product of relators first": (("a", "b", "c"),
                                                ["(a*c)^2*a^2", "a^2", "b^2", "c^2",
                                                 "(a*b)^3", "(b*c)^3", "(a*c)^2"], 24),
    "S3": (("x", "y"), ["x^2", "y^3", "(x*y)^2"], 6),
    "metacyclic 21": (("a", "b"), ["a^7", "b^3", "b^-1*a*b*a^-2"], 21),
    "Heisenberg 27": (("x", "y"), ["x^3", "y^3", f"{COMMUTATOR}^3",
                                   f"x^-1*{COMMUTATOR}^-1*x*{COMMUTATOR}",
                                   f"y^-1*{COMMUTATOR}^-1*y*{COMMUTATOR}"], 27),
    "trivial": (("x", "y"), ["y^-1*x^2*y*x^-3", "x^-1*y^2*x*y^-3"], 1),
    "trivial, x*y = 1": (("x", "y"), ["x^3", "y^4", "x^4*y"], 1),
    "Z2, y^3 = 1": (("x", "y"), ["x^2", "y^5", "x^-2*y^-3*x^-2"], 2),
}


@pytest.mark.parametrize("name", KNOWN)
def test_known_presentations_enumerate_to_their_order(name):
    generators, relators, order = KNOWN[name]
    pres = Presentation.parse(generators, relators)
    g = todd_coxeter(pres)
    assert g.order == order
    _check_relators_hold(pres, g)
    _, images = right_product_closure(g.generators)
    assert [e.images for e in elements_of(g)] == images


# The number of cosets each enumeration defines.  A lost deduction costs
# cosets, not the order, since the relators close at every coset of the
# final table: without the merge through the inverse column, "Z2, y^3 = 1"
# defines 12 cosets instead of 10.
H768 = (("x", "y"), ["x^2", "y^3", "(x*y)^8", "(x*y*x*y*x*y^2)^4"], 768)
DEFINED = {
    "triangle (2,3,4)": 31, "triangle (2,3,5)": 82, "Coxeter S4": 35,
    "Coxeter S4, relators reversed": 46, "Coxeter S4, a product of relators first": 63,
    "S3": 6, "metacyclic 21": 27, "Heisenberg 27": 51, "trivial": 149,
    "trivial, x*y = 1": 6, "Z2, y^3 = 1": 10, "h768": 4176,
}


@pytest.mark.parametrize("name", DEFINED)
def test_cosets_defined_are_pinned(monkeypatch, name):
    generators, relators, order = {**KNOWN, "h768": H768}[name]
    tables = []

    class Recorded(coset._Table):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(coset, "_Table", Recorded)
    assert todd_coxeter(Presentation.parse(generators, relators)).order == order
    (table,) = tables
    assert len(table.table) == DEFINED[name]


@pytest.mark.parametrize("name", DEFINED)
def test_the_budget_bounds_the_cosets_defined(name):
    generators, relators, order = {**KNOWN, "h768": H768}[name]
    pres = Presentation.parse(generators, relators)
    assert todd_coxeter(pres, max_cosets=DEFINED[name]).order == order
    budget = DEFINED[name] - 1
    with pytest.raises(BudgetExceeded,
                       match=f"^coset enumeration exceeded the budget of {budget} cosets$"):
        todd_coxeter(pres, max_cosets=budget)


def _letters(word):
    """The word as a list of (symbol, +-1) letters."""
    return [(sym, 1 if exp > 0 else -1) for sym, exp in word for _ in range(abs(exp))]


@st.composite
def tietze_neutral_rewrites(draw):
    """A known presentation and a rewrite of its relators that keeps their
    normal closure: cyclic shifts, inverses, a reordering, and an appended
    conjugate or product of relators (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, ch. 5)."""
    name = draw(st.sampled_from(sorted(KNOWN)))
    generators, texts, order = KNOWN[name]
    relators = [Presentation.parse(generators, [t]).relators[0] for t in texts]
    rewritten = []
    for rel in relators:
        letters = _letters(rel)
        k = draw(st.integers(0, len(letters) - 1))
        rel = normalize_word(letters[k:] + letters[:k])
        rewritten.append(invert_word(rel) if draw(st.booleans()) else rel)
    rewritten = draw(st.permutations(rewritten))
    first, second = (draw(st.sampled_from(relators)) for _ in range(2))
    if draw(st.booleans()):
        conjugator = draw(st.lists(st.tuples(st.sampled_from(generators),
                                             st.sampled_from((1, -1))), min_size=1, max_size=3))
        extra = normalize_word(_letters(invert_word(normalize_word(conjugator)))
                               + _letters(first) + conjugator)
    else:
        extra = normalize_word(_letters(first) + _letters(second))
    position = draw(st.integers(0, len(rewritten)))
    rewritten.insert(position, extra)
    return name, Presentation(generators, tuple(rewritten)), order


@seed(20191105)
@settings(max_examples=25, deadline=None)
@given(tietze_neutral_rewrites())
def test_tietze_neutral_rewrites_keep_the_order(case):
    name, pres, order = case
    g = todd_coxeter(pres)
    assert g.order == order, name
    _check_relators_hold(pres, g)
