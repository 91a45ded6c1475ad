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

The witness is read off the numerical classes, with no scan of
quadruples.  :func:`~mixedsurf.divisors.intersection_table` has shown
that the pairing has rank <= 2, so divisors with equal coordinates have
equal rows, and a class has one self-intersection.  Two members each of
two distinct null classes a, b with a.b > 0 are a witness (D1, D4 in a;
D2, D3 in b).  Every witness is of that form: D1 and D4 are orthogonal
null vectors of a plane on which the pairing is nondegenerate (D1.D2 > 0),
so they are proportional, and D1.D2 = D4.D2 makes them equal; so are D2
and D3.  Members are sorted within a class and the classes are disjoint,
so the lexicographically first witness (D1, D2, D3, D4) is
(a_0, b_0, b_1, a_1) for the pair (a, b) with the least (a_0, b_0); the
report lists it as (A, A', B, B') = (a_0, a_1, b_0, b_1).  A witness
holds a null pair with a positive product, which is a basis, so a table
with no basis has no witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .divisors import IntersectionTable
from .errors import IntegrityError, ValidationError

VERDICT_MORI_DREAM = "MoriDream_EffEqNefEqSAmp"
VERDICT_INCONCLUSIVE = "Inconclusive"


def choose_basis(table: IntersectionTable) -> tuple[int, int]:
    """First label pair (i, j) with D_i^2 = D_j^2 = 0 and D_i.D_j > 0.

    Falls back to the first pair with nondegenerate 2x2 pairing.  The table
    has rank <= 2 (:func:`~mixedsurf.divisors.intersection_table` refuses
    more), and a symmetric matrix of rank r has a nonsingular principal
    r x r minor, so when no pair is nondegenerate the rank is below 2.
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
    raise ValidationError("pairing has rank < 2; no basis of numerical classes")


class NumericalClass(NamedTuple):
    """Divisors sharing exact coordinates in the chosen basis."""

    coordinates: tuple[Fraction, Fraction]
    members: tuple[int, ...]


def numerical_classes(table: IntersectionTable, basis: tuple[int, int]) -> list[NumericalClass]:
    """Group divisors by identical basis coordinates, sorted by coordinates.

    ``basis`` is a pair from :func:`choose_basis`, whose 2x2 pairing is
    nonsingular.
    """
    i, j = basis
    a11, a12, a22 = table.entry(i, i), table.entry(i, j), table.entry(j, j)
    det = a11 * a22 - a12 * a12
    # Cramer's rule: (x, y) = (x_num, y_num) / det solves the 2x2 system
    # exactly.  det is the same for every label, so labels with equal
    # coordinates are those with equal integer numerators.
    grouped: dict[tuple[int, int], list[int]] = {}
    for lbl in table.labels:
        pi, pj = table.entry(lbl, i), table.entry(lbl, j)
        grouped.setdefault((pi * a22 - pj * a12, pj * a11 - pi * a12), []).append(lbl)
    classes = [NumericalClass((Fraction(x, det), Fraction(y, det)), tuple(sorted(members)))
               for (x, y), members in grouped.items()]
    classes.sort(key=lambda c: c.coordinates)
    return classes


class ConeReport(NamedTuple):
    basis: tuple[int, int] | None
    classes: tuple[NumericalClass, ...]
    witness: tuple[int, int, int, int] | None   # (A, A', B, B') with A ~ A', B ~ B'
    generators: tuple[int, int] | None
    verdict: str
    notes: tuple[str, ...]


def cone_report(table: IntersectionTable) -> ConeReport:
    """Verdict report; MoriDream only on a witness quadruple, read off the
    numerical classes of a table of rank <= 2 (see the module docstring).
    With no basis pair, as on an empty table, it is Inconclusive, noting why."""
    notes: list[str] = []
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

    e = table.entry
    null = [c.members for c in classes
            if len(c.members) > 1 and e(c.members[0], c.members[0]) == 0]
    pairs = [(a, b) for a in null for b in null if e(a[0], b[0]) > 0]
    if not pairs:
        return ConeReport(basis, classes, None, None, VERDICT_INCONCLUSIVE, tuple(notes))
    a, b = min(pairs)
    if negatives:
        # A witness makes Eff = Nef, and no effective divisor is then negative.
        raise IntegrityError(
            f"witness quadruple {(a[0], b[0], b[1], a[1])} found, but divisor {negatives[0]} "
            f"has negative self-intersection {e(negatives[0], negatives[0])}")
    return ConeReport(basis, classes, (a[0], a[1], b[0], b[1]), (a[0], b[0]),
                      VERDICT_MORI_DREAM, tuple(notes))
