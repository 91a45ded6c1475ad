from __future__ import annotations

import io
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsurf import cli, files
from mixedsurf.cone import (VERDICT_INCONCLUSIVE, VERDICT_MORI_DREAM, choose_basis,
                            cone_report, numerical_classes)
from mixedsurf.divisors import IntersectionTable, OrbitDivisor
from mixedsurf.errors import IntegrityError, ValidationError
from mixedsurf.files import run_pipeline
from oracles import divfq_conditions_hold, find_divfq_quadruple


def _synthetic_table(pairing, kdot=None):
    n = len(pairing)
    divisors = tuple(OrbitDivisor(i + 1, (i,)) for i in range(n))
    kdot = tuple(kdot if kdot is not None else [0] * n)
    return IntersectionTable(divisors, tuple(tuple(r) for r in pairing), kdot, 1, 1)


def test_choose_basis_family1(family1):
    i, j = family1.report.basis
    t = family1.table
    assert t.entry(i, i) == 0 and t.entry(j, j) == 0 and t.entry(i, j) == 4


def test_choose_basis_family2(family2):
    i, j = family2.report.basis
    t = family2.table
    assert t.entry(i, i) == 0 and t.entry(j, j) == 0 and t.entry(i, j) == 16


def test_choose_basis_rejects_rank_one():
    t = _synthetic_table([[2, 2], [2, 2]])
    with pytest.raises(ValidationError, match="^pairing has rank < 2; no basis"):
        choose_basis(t)


def test_choose_basis_falls_back_to_a_nondegenerate_pair():
    # No null pair, but D_1^2 D_2^2 - (D_1.D_2)^2 = 3.
    t = _synthetic_table([[2, 1], [1, 2]])
    assert choose_basis(t) == (1, 2)
    assert cone_report(t).verdict == VERDICT_INCONCLUSIVE


def test_numerical_classes_family1(family1):
    classes = family1.report.classes
    shapes = sorted((c.coordinates, len(c.members)) for c in classes)
    assert shapes == [((Fraction(0), Fraction(1)), 2), ((Fraction(1), Fraction(0)), 2)]


def test_numerical_classes_family2(family2):
    classes = family2.report.classes
    shapes = sorted((c.coordinates, len(c.members)) for c in classes)
    assert shapes == [
        ((Fraction(0), Fraction(1)), 3),
        ((Fraction(1, 2), Fraction(1, 2)), 4),
        ((Fraction(1), Fraction(0)), 3),
        ((Fraction(1), Fraction(1)), 3),
        ((Fraction(2), Fraction(2)), 2),
    ]


def test_basis_members_have_unit_coordinates(family1, family2):
    for bundle in (family1, family2):
        i, j = bundle.report.basis
        coords = {}
        for c in bundle.report.classes:
            for m in c.members:
                coords[m] = c.coordinates
        assert coords[i] == (Fraction(1), Fraction(0))
        assert coords[j] == (Fraction(0), Fraction(1))


def test_classes_partition_labels(family2):
    labels = sorted(m for c in bundle_classes(family2) for m in c.members)
    assert labels == list(family2.table.labels)


def bundle_classes(bundle):
    return bundle.report.classes


def test_find_divfq_family1(family1):
    quad = find_divfq_quadruple(family1.table)
    assert quad is not None
    assert divfq_conditions_hold(family1.table, quad)


def test_find_divfq_family2(family2):
    quad = find_divfq_quadruple(family2.table)
    assert quad is not None
    assert divfq_conditions_hold(family2.table, quad)
    d1, d2, d3, d4 = quad
    t = family2.table
    assert t.entry(d1, d2) == 16


def test_find_divfq_none_when_all_self_positive():
    t = _synthetic_table([[2, 1], [1, 2]])
    assert find_divfq_quadruple(t) is None


def test_cone_report_families(family1, family2):
    for bundle in (family1, family2):
        rep = bundle.report
        assert rep.verdict == VERDICT_MORI_DREAM
        assert rep.generators is not None
        a, a2, b, b2 = rep.witness
        assert rep.generators == (a, b)
        # partners are numerically equivalent
        coords = {m: c.coordinates for c in rep.classes for m in c.members}
        assert coords[a] == coords[a2]
        assert coords[b] == coords[b2]


def test_cone_report_negative_entry_noted():
    pairing = [[-2, 1, 0, 0],
               [1, 0, 0, 0],
               [0, 0, 0, 1],
               [0, 0, 1, 0]]
    rep = cone_report(_synthetic_table(pairing))
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert any("negative self-intersection" in n for n in rep.notes)


# D1 ~ D4 ~ A and D2 ~ D3 ~ B with A.B = 1 form a witness; D5 = A - B has
# D5^2 = -2 on the same rank-2 lattice, which a witness rules out.
WITNESS_NEXT_TO_A_NEGATIVE = [[0, 1, 1, 0, -1],
                              [1, 0, 0, 1, 1],
                              [1, 0, 0, 1, 1],
                              [0, 1, 1, 0, -1],
                              [-1, 1, 1, -1, -2]]


def test_witness_next_to_a_negative_divisor_is_integrity_error():
    table = _synthetic_table(WITNESS_NEXT_TO_A_NEGATIVE)
    assert table.rank() == 2 and find_divfq_quadruple(table) == (1, 2, 3, 4)
    with pytest.raises(IntegrityError, match="divisor 5 has negative self-intersection -2"):
        cone_report(table)


def test_witness_next_to_a_negative_divisor_exits_4(data_dir, monkeypatch):
    monkeypatch.setattr(files, "intersection_table",
                        lambda orbits, S: _synthetic_table(WITNESS_NEXT_TO_A_NEGATIVE))
    out = io.StringIO()
    assert cli.run(["cone", str(data_dir / "family1.json")], out=out) == cli.EXIT_ASSERTION
    assert out.getvalue() == ("integrity assertion failed: witness quadruple (1, 2, 3, 4) "
                              "found, but divisor 5 has negative self-intersection -2\n")


def test_cone_report_empty_table():
    rep = cone_report(_synthetic_table([]))
    assert rep.verdict == VERDICT_INCONCLUSIVE


def test_witness_reverifies_standalone(family2):
    rep = family2.report
    a, a2, b, b2 = rep.witness
    assert divfq_conditions_hold(family2.table, (a, b, b2, a2))


def test_verdict_monotone_under_added_divisors(family1):
    # appending a copy of an existing null divisor's row keeps the verdict
    t = family1.table
    n = len(t.labels)
    first_row = list(t.pairing[0])
    pairing = [list(row) + [row[0]] for row in t.pairing]
    pairing.append(first_row + [t.pairing[0][0]])
    bigger = _synthetic_table(pairing, kdot=list(t.kdot) + [t.kdot[0]])
    assert cone_report(bigger).verdict == VERDICT_MORI_DREAM


def test_numerical_classes_rejects_a_singular_basis_pair():
    # D_1 and D_2 are numerically equal, so the pair (1, 2) is singular and
    # the basis that numerical_classes is given is (1, 3).
    assert choose_basis(_synthetic_table([[0, 0, 2], [0, 0, 2], [2, 2, 0]])) == (1, 3)
    table = _synthetic_table([[0, 2], [2, 0]])
    assert [c.coordinates for c in numerical_classes(table, (1, 2))] == [
        (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]


# The witness read off the numerical classes is the first quadruple of the
# permutation scan, on every table of rank <= 2.

def assert_witness_matches_scan(table) -> None:
    quad = find_divfq_quadruple(table)
    if quad is not None and any(table.entry(d, d) < 0 for d in table.labels):
        with pytest.raises(IntegrityError, match=re.escape(f"witness quadruple {quad} found")):
            cone_report(table)
        return
    report = cone_report(table)
    if quad is None:
        assert report.witness is None and report.verdict == VERDICT_INCONCLUSIVE
    else:
        a, a2, b, b2 = report.witness
        assert (a, b, b2, a2) == quad and report.verdict == VERDICT_MORI_DREAM


@st.composite
def rank_two_tables(draw):
    """The Gram matrix u_i^T Q u_j of integer 2-vectors under
    Q = [[0, q], [q, 0]]: a few vectors, most of them null (on an axis),
    each repeated one to three times, in a drawn order."""
    q = draw(st.sampled_from((1, 2, 3, 0)))
    axis, coord = st.sampled_from((1, 2, -1)), st.integers(-2, 2)
    vector = st.one_of(st.tuples(axis, st.just(0)), st.tuples(st.just(0), axis),
                       st.tuples(coord, coord))
    repeats = st.sampled_from((2, 1, 3))
    pool = draw(st.lists(st.tuples(vector, repeats), min_size=2, max_size=4,
                         unique_by=lambda item: item[0]))
    us = draw(st.permutations([u for u, k in pool for _ in range(k)]))
    return _synthetic_table([[q * (x1 * y2 + y1 * x2) for x2, y2 in us] for x1, y1 in us])


@settings(max_examples=100, deadline=None)
@given(rank_two_tables())
def test_witness_matches_the_permutation_scan(table):
    assert table.rank() <= 2
    assert_witness_matches_scan(table)


@pytest.mark.parametrize("use_extra", [True, False], ids=["extra", "g0_only"])
@pytest.mark.parametrize("name", ["family1", "family2", "family3", "family4", "family5",
                                  "family2_search"])
def test_witness_of_bundled_tables_matches_the_permutation_scan(data_dir, name, use_extra):
    assert_witness_matches_scan(run_pipeline(data_dir / f"{name}.json", use_extra).table)
