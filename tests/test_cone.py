from __future__ import annotations

import io
from fractions import Fraction

import pytest

from mixedsurf import cli, cone
from mixedsurf.cone import (VERDICT_INCONCLUSIVE, VERDICT_MORI_DREAM,
                            NumericalClass, choose_basis, cone_report,
                            divfq_conditions_hold, find_divfq_quadruple,
                            numerical_classes)
from mixedsurf.divisors import IntersectionTable, OrbitDivisor
from mixedsurf.errors import IntegrityError, ValidationError


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
    with pytest.raises(ValidationError):
        choose_basis(t)


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


def test_witness_next_to_a_negative_divisor_is_integrity_error():
    # D1 ~ D4 ~ A and D2 ~ D3 ~ B with A.B = 1 form a witness; D5 = A - B
    # has D5^2 = -2 on the same rank-2 lattice, which a witness rules out.
    pairing = [[0, 1, 1, 0, -1],
               [1, 0, 0, 1, 1],
               [1, 0, 0, 1, 1],
               [0, 1, 1, 0, -1],
               [-1, 1, 1, -1, -2]]
    table = _synthetic_table(pairing)
    assert table.rank() == 2 and find_divfq_quadruple(table) == (1, 2, 3, 4)
    with pytest.raises(IntegrityError, match="divisor 5 has negative self-intersection -2"):
        cone_report(table)


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
    # numerical_classes takes any basis; (1, 1) pairs D_1 with itself.
    table = _synthetic_table([[0, 2], [2, 0]])
    with pytest.raises(ValidationError, match="basis pairing is singular"):
        numerical_classes(table, (1, 1))
    assert [c.coordinates for c in numerical_classes(table, (1, 2))] == [
        (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]


def test_numerical_classes_partition_failure_is_integrity_error(family1, monkeypatch):
    # A class that loses a member no longer covers every label.
    monkeypatch.setattr(cone, "NumericalClass",
                        lambda coords, members: NumericalClass(coords, members[1:]))
    with pytest.raises(IntegrityError):
        numerical_classes(family1.table, family1.report.basis)


def test_witness_reverification_failure_is_integrity_error(family1, data_dir, monkeypatch):
    monkeypatch.setattr(cone, "find_divfq_quadruple", lambda table: (1, 1, 2, 3))
    with pytest.raises(IntegrityError):
        cone_report(family1.table)
    out = io.StringIO()
    code = cli.run(["cone", str(data_dir / "family1.json")], out=out)
    assert code == cli.EXIT_ASSERTION
    assert "witness failed re-verification" in out.getvalue()


def test_witness_with_distinct_labels_and_wrong_pattern_is_integrity_error(family1,
                                                                           monkeypatch):
    table = family1.table
    d1, d4, d2, d3 = family1.report.witness
    # D3 and D4 swapped: four distinct labels and D1.D2 > 0, but D1.D3 = 0.
    wrong = (d1, d2, d4, d3)
    assert table.entry(d1, d2) > 0 and table.entry(d1, d4) == 0
    monkeypatch.setattr(cone, "find_divfq_quadruple", lambda t: wrong)
    with pytest.raises(IntegrityError, match="pairing block"):
        cone_report(table)
