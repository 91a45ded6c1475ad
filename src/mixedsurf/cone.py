"""Numerical classes and the effective/nef/semiample cone verdict.

With Picard rank 2, two orbit divisors A, B with A^2 = B^2 = 0 and
A.B > 0 form a basis of the numerical classes; every divisor gets exact
rational coordinates.  The verdict rule is the sufficient criterion: four
distinct effective irreducible divisors D1..D4 with

    D1^2 = D2^2 = D3^2 = D4^2 = 0,   D1.D4 = D2.D3 = 0,
    D1.D2 = D1.D3 = D4.D2 = D4.D3 > 0

force Eff(S) = Nef(S) = SAmp(S) = the cone spanned by D1, D2 (so S is a
Mori dream surface).  When no witness quadruple exists the verdict is
inconclusive, never negative.  A witness next to an orbit divisor with
D^2 < 0 is a contradiction (a nef effective divisor has D^2 >= 0), and
raises IntegrityError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from .divisors import IntersectionTable
from .errors import IntegrityError, ValidationError

VERDICT_MORI_DREAM = "MoriDream_EffEqNefEqSAmp"
VERDICT_INCONCLUSIVE = "Inconclusive"


def choose_basis(table: IntersectionTable) -> tuple[int, int]:
    """First label pair (i, j) with D_i^2 = D_j^2 = 0 and D_i.D_j > 0.

    Falls back to the first pair with nondegenerate 2x2 pairing.  Either
    pair proves the rank is at least 2, so the rank is computed only when
    neither exists, to say why there is no basis.
    """
    labels = table.labels
    for i in labels:
        for j in labels:
            if j <= i:
                continue
            if table.entry(i, i) == 0 and table.entry(j, j) == 0 and table.entry(i, j) > 0:
                return (i, j)
    for i in labels:
        for j in labels:
            if j <= i:
                continue
            det = (table.entry(i, i) * table.entry(j, j)
                   - table.entry(i, j) ** 2)
            if det != 0:
                return (i, j)
    raise ValidationError("pairing has rank < 2; no basis of numerical classes"
                          if table.rank() < 2 else "no nondegenerate basis pair found")


class NumericalClass(NamedTuple):
    """Divisors sharing exact coordinates in the chosen basis."""

    coordinates: tuple[Fraction, Fraction]
    members: tuple[int, ...]


def numerical_classes(table: IntersectionTable, basis: tuple[int, int]) -> list[NumericalClass]:
    """Group divisors by identical basis coordinates, sorted by coordinates."""
    i, j = basis
    a11, a12, a22 = table.entry(i, i), table.entry(i, j), table.entry(j, j)
    det = Fraction(a11 * a22 - a12 * a12)
    if det == 0:
        raise ValidationError("basis pairing is singular")
    grouped: dict[tuple[Fraction, Fraction], list[int]] = {}
    for lbl in table.labels:
        pi, pj = Fraction(table.entry(lbl, i)), Fraction(table.entry(lbl, j))
        # Cramer's rule over Fractions: (x, y) solves the 2x2 system exactly.
        x = (pi * a22 - pj * a12) / det
        y = (pj * a11 - pi * a12) / det
        grouped.setdefault((x, y), []).append(lbl)
    classes = [NumericalClass(coords, tuple(sorted(members)))
               for coords, members in grouped.items()]
    classes.sort(key=lambda c: c.coordinates)
    covered = sorted(lbl for c in classes for lbl in c.members)
    if covered != sorted(table.labels):
        raise IntegrityError("numerical classes do not partition the divisor labels")
    return classes


def divfq_conditions_hold(table: IntersectionTable, quad: tuple[int, int, int, int]) -> bool:
    """Standalone check of the seven witness conditions on (D1, D2, D3, D4)."""
    d1, d2, d3, d4 = quad
    if len(set(quad)) != 4:
        return False
    e = table.entry
    if any(e(d, d) != 0 for d in quad):
        return False
    if e(d1, d4) != 0 or e(d2, d3) != 0:
        return False
    p = e(d1, d2)
    return p > 0 and e(d1, d3) == p and e(d4, d2) == p and e(d4, d3) == p


def find_divfq_quadruple(table: IntersectionTable) -> tuple[int, int, int, int] | None:
    """Lexicographically first ordered quadruple satisfying the criterion."""
    zero_self = [lbl for lbl in table.labels if table.entry(lbl, lbl) == 0]
    for quad in permutations(zero_self, 4):
        if divfq_conditions_hold(table, quad):
            return quad
    return None


class ConeReport(NamedTuple):
    basis: tuple[int, int] | None
    classes: tuple[NumericalClass, ...]
    witness: tuple[int, int, int, int] | None   # (A, A', B, B') with A ~ A', B ~ B'
    generators: tuple[int, int] | None
    verdict: str
    notes: tuple[str, ...]


def cone_report(table: IntersectionTable) -> ConeReport:
    """Verdict report; MoriDream only on a fully verified witness quadruple."""
    notes: list[str] = []
    if not table.divisors:
        return ConeReport(None, (), None, None, VERDICT_INCONCLUSIVE,
                          ("no orbit divisors",))
    negatives = [lbl for lbl in table.labels if table.entry(lbl, lbl) < 0]
    for lbl in negatives:
        notes.append(f"divisor {lbl} has negative self-intersection {table.entry(lbl, lbl)}")

    basis = None
    classes: tuple[NumericalClass, ...] = ()
    try:
        basis = choose_basis(table)
        classes = tuple(numerical_classes(table, basis))
    except ValidationError as exc:
        notes.append(str(exc))

    quad = find_divfq_quadruple(table)
    if quad is None:
        return ConeReport(basis, classes, None, None, VERDICT_INCONCLUSIVE, tuple(notes))
    _recheck_witness(table, quad)
    if negatives:
        # A witness makes Eff = Nef, and no effective divisor is then negative.
        raise IntegrityError(
            f"witness quadruple {quad} found, but divisor {negatives[0]} has "
            f"negative self-intersection {table.entry(negatives[0], negatives[0])}")
    d1, d2, d3, d4 = quad
    witness = (d1, d4, d2, d3)
    return ConeReport(basis, classes, witness, (witness[0], witness[2]),
                      VERDICT_MORI_DREAM, tuple(notes))


def _recheck_witness(table: IntersectionTable, quad: tuple[int, int, int, int]):
    """Re-read the pairing block of (D1, D2, D3, D4) straight from the matrix.

    Independent of :func:`divfq_conditions_hold`: the block must be
    [[0,p,p,0],[p,0,0,p],[p,0,0,p],[0,p,p,0]] with p > 0, on four distinct labels.
    """
    if len(set(quad)) != 4 or not set(quad) <= set(table.labels):
        raise IntegrityError(f"witness failed re-verification: labels {quad}")
    block = [[table.pairing[a - 1][b - 1] for b in quad] for a in quad]
    p = block[0][1]
    if p <= 0 or block != [[0, p, p, 0], [p, 0, 0, p], [p, 0, 0, p], [0, p, p, 0]]:
        raise IntegrityError(f"witness failed re-verification: pairing block {block}")
