"""The orbit divisors against the lattice Num(S) of the bundled families.

With p_g = q = 0 and e = 4, Num(S) has rank 2.  In the cone report's basis
(A, B) of orbit divisors, the canonical class solved from the K.D row
squares to K_S^2 = 8 chi, every orbit divisor has nonnegative coordinates
(Eff = cone(A, B)), and the orbit divisors span a sublattice whose
discriminant is a perfect square: 16 for family 1 and 64 for families 2-5.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest

CANONICAL = {1: (1, 1), 2: (Fraction(1, 2),) * 2, 3: (Fraction(1, 2),) * 2,
             4: (Fraction(1, 2),) * 2, 5: (Fraction(1, 2),) * 2}
DISCRIMINANT = {1: 16, 2: 64, 3: 64, 4: 64, 5: 64}


def coordinates(table, basis, products) -> tuple[Fraction, Fraction]:
    """(x, y) with x A + y B having the given products with A and B."""
    a, b = basis
    a11, a12, a22 = table.entry(a, a), table.entry(a, b), table.entry(b, b)
    det = a11 * a22 - a12 * a12
    pa, pb = products
    return Fraction(pa * a22 - pb * a12, det), Fraction(pb * a11 - pa * a12, det)


def span_discriminant(table, basis) -> Fraction:
    """Discriminant of the lattice spanned by every orbit divisor.

    In (A, B) coordinates the span has covolume c, the gcd of the 2x2
    determinants of its generators (over a common denominator), so its
    discriminant is c^2 det(Gram(A, B)).
    """
    a, b = basis
    points = [coordinates(table, basis, (table.entry(d, a), table.entry(d, b)))
              for d in table.labels]
    dets = [x1 * y2 - x2 * y1 for x1, y1 in points for x2, y2 in points]
    common = lcm(*(d.denominator for d in dets))
    covolume = Fraction(gcd(*(int(d * common) for d in dets)), common)
    gram = table.entry(a, a) * table.entry(b, b) - table.entry(a, b) ** 2
    return covolume ** 2 * gram


@pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
def test_canonical_class_squares_to_k2(families, family):
    bundle = families[family]
    table, basis, surface = bundle.table, bundle.report.basis, bundle.surface
    k_row = (table.kdot[basis[0] - 1], table.kdot[basis[1] - 1])
    k = coordinates(table, basis, k_row)
    assert k == CANONICAL[family]
    k_squared = k[0] * k_row[0] + k[1] * k_row[1]
    assert k_squared == surface.k2 == 8 * surface.chi


@pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
def test_orbit_divisors_lie_in_the_cone_of_the_basis(families, family):
    classes = families[family].report.classes
    assert classes
    assert all(x >= 0 and y >= 0 for x, y in (c.coordinates for c in classes))


@pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
def test_orbit_divisor_span_has_square_discriminant(families, family):
    bundle = families[family]
    assert abs(span_discriminant(bundle.table, bundle.report.basis)) == DISCRIMINANT[family]
