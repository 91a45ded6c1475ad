"""Expected reproduction targets for the five bundled families.

All comparisons are made on relabeling-invariant data: orbit-size and
K.D multisets, the numerical-class partition with basis coordinates, and
the basis products.  Divisor labels are an artifact of scan order and are
never compared.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cone import ConeReport, VERDICT_MORI_DREAM
from .divisors import IntersectionTable
from .files import FamilyBundle


class FamilyExpectation(NamedTuple):
    genus: int
    chi: int
    k2: int
    euler: int
    q: int
    pg: int
    orbit_count: int
    orbit_sizes: tuple[tuple[int, int], ...]      # (size, multiplicity)
    kdot_values: tuple[tuple[int, int], ...]      # (value, multiplicity)
    basis_product: int                            # A.B with A^2 = B^2 = 0
    classes: tuple[tuple[tuple[Fraction, Fraction], int], ...]  # (coords, size)
    matched_zero_pattern: bool                    # family-1 style pairing check


_F1 = FamilyExpectation(
    genus=9, chi=1, k2=8, euler=4, q=0, pg=0,
    orbit_count=4,
    orbit_sizes=((8, 4),),
    kdot_values=((4, 4),),
    basis_product=4,
    classes=(((Fraction(0), Fraction(1)), 2), ((Fraction(1), Fraction(0)), 2)),
    matched_zero_pattern=True,
)

_F2TO5 = FamilyExpectation(
    genus=17, chi=1, k2=8, euler=4, q=0, pg=0,
    orbit_count=15,
    orbit_sizes=((32, 10), (64, 3), (128, 2)),
    kdot_values=((8, 10), (16, 3), (32, 2)),
    basis_product=16,
    classes=(
        ((Fraction(0), Fraction(1)), 3),
        ((Fraction(1, 2), Fraction(1, 2)), 4),
        ((Fraction(1), Fraction(0)), 3),
        ((Fraction(1), Fraction(1)), 3),
        ((Fraction(2), Fraction(2)), 2),
    ),
    matched_zero_pattern=False,
)

FAMILY_EXPECTATIONS: dict[int, FamilyExpectation] = {
    1: _F1, 2: _F2TO5, 3: _F2TO5, 4: _F2TO5, 5: _F2TO5,
}

FAMILY_FILES = {k: f"family{k}.json" for k in FAMILY_EXPECTATIONS}


def _multiset(values) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return tuple(sorted(out.items()))


def _class_shape(report: ConeReport) -> tuple[tuple[tuple[Fraction, Fraction], int], ...]:
    shape = tuple(sorted((c.coordinates, len(c.members)) for c in report.classes))
    return shape


def _swap_coords(classes):
    return tuple(sorted((((y, x), n)) for (x, y), n in classes))


def compare_family(expect: FamilyExpectation,
                   bundle: FamilyBundle) -> list[tuple[str, bool, str]]:
    """Itemized (criterion, passed, detail) comparison against expectations."""
    surface, freeness = bundle.surface, bundle.freeness
    table, report = bundle.table, bundle.report
    items: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        items.append((name, ok, detail))

    check("freeness", freeness.ok,
          f"isolated={freeness.no_isolated_fixed_points} curves={freeness.no_fixed_curves}")
    check("genus", surface.covering.genus == expect.genus,
          f"g(C) = {surface.covering.genus}, expected {expect.genus}")
    inv = (surface.chi, surface.k2, surface.euler, surface.q, surface.pg)
    expected_inv = (expect.chi, expect.k2, expect.euler, expect.q, expect.pg)
    check("invariants", inv == expected_inv, f"(chi,K2,e,q,pg) = {inv}, expected {expected_inv}")

    check("orbit count", len(table.divisors) == expect.orbit_count,
          f"{len(table.divisors)} orbit divisors, expected {expect.orbit_count}")
    check("orbit sizes", _multiset(d.n for d in table.divisors) == expect.orbit_sizes,
          f"sizes {_multiset(d.n for d in table.divisors)}")
    check("K.D values", _multiset(table.kdot) == expect.kdot_values,
          f"K.D {_multiset(table.kdot)}")

    if report.basis is None:
        check("basis", False, "no basis of numerical classes")
    else:
        i, j = report.basis
        ok = (table.entry(i, i) == 0 and table.entry(j, j) == 0
              and table.entry(i, j) == expect.basis_product)
        check("basis products", ok,
              f"A^2={table.entry(i, i)} B^2={table.entry(j, j)} A.B={table.entry(i, j)}")

    shape = _class_shape(report)
    want = tuple(sorted(expect.classes))
    pretty = ", ".join(f"({x},{y})x{n}" for (x, y), n in shape)
    check("numerical classes", shape in (want, _swap_coords(want)), f"classes {pretty}")

    if expect.matched_zero_pattern:
        check("zero-pairing matching", _has_perfect_zero_matching(table),
              "off-diagonal zeros pair the divisors perfectly")

    check("verdict", report.verdict == VERDICT_MORI_DREAM, f"verdict {report.verdict}")
    return items


def _has_perfect_zero_matching(table: IntersectionTable) -> bool:
    """Every divisor has D^2 = 0 and exactly one zero off-diagonal partner,
    and those zero pairs form a perfect matching (the family-1 pattern)."""
    labels = table.labels
    if any(table.entry(i, i) != 0 for i in labels):
        return False
    partner: dict[int, list[int]] = {i: [] for i in labels}
    for i in labels:
        for j in labels:
            if j != i and table.entry(i, j) == 0:
                partner[i].append(j)
    if any(len(p) != 1 for p in partner.values()):
        return False
    if any(partner[partner[i][0]][0] != i for i in labels):
        return False
    others = [table.entry(i, j) for i in labels for j in labels
              if i < j and table.entry(i, j) != 0]
    return len(set(others)) == 1 and others[0] > 0
