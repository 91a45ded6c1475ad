"""Orbit divisors on S and their exact intersection numbers.

Each automorphism f in H gives a curve in C x C (the graph of f); the
group G permutes these graphs:

    h      : graph(f) -> graph(phi(h) f h^-1)          for h in G0,
    tau' h : graph(f) -> graph(tau h f^-1 phi(h^-1))   for h in G0.

Write h.f = phi(h) f h^-1.  Its inverse is h f^-1 phi(h)^-1, so
tau' h . f = tau (h.f)^-1, and the G-orbit of f is O0(f) u tau O0(f)^-1,
with O0(f) the G0-orbit.  :func:`graph_orbits` reads only O0(f) off the
Cayley table and gets the mixed half by one inversion and one read of
tau's row per member.  The identity is algebra alone, true for any phi
and tau.

The G-orbits sum to G-invariant divisors on C x C which descend to
irreducible effective divisors on S (orbit divisors).  The formulas
define a G-action on H, since ``to_h`` is an injective homomorphism
G0 -> H and phi and tau come from
:func:`~mixedsurf.surface.build_mixed_action`; so the orbits partition H,
each holds the graph it was grown from, and each size divides |G|, with
no check.  A corrupted action is left to the pairing's own checks.

Distinct graphs intersect transversally, in |Fix(x^-1 y)| points, so the
whole pairing reduces to fixed-point-table lookups.  Pulled back to C x C,

    D_i . D_j = (1/|G|) sum_{x in O_i} sum_{y in O_j} |Fix(x^-1 y)|.

Both kinds of action keep |Fix(x^-1 y)|: h sends x^-1 y to its conjugate
h x^-1 y h^-1, and tau' h sends it to a conjugate of (x^-1 y)^-1, which
has the same fixed points.  G is transitive on O_i, so the inner sum
s_ij = sum_{y in O_j} |Fix(x_i^-1 y)| is the same for every x_i in O_i,
and one representative per orbit (its minimal member) suffices:

    D_i . D_j = n_i s_ij / |G|                      (i != j)
    D_i^2     = (n_i s_ii - 2 (g-1) n_i) / |G|      (|Fix(1)| read as 0)
    K_S . D_i = 4 (g-1) n_i / |G|

with n_i = |O_i|.  :func:`intersection_table` lists the members of every
orbit once, in label order; per representative, one gather along the
Cayley row of x_i^-1 gives each x_i^-1 y in that order, a second gives
their |Fix|, and s_ij is the sum of O_j's slice.  Each off-diagonal entry
is also read from the other side, n_j s_ji, and the two readings must
agree; every value must be an integer (both asserted).  Adjunction is
asserted too.  The stabilizer of a graph, of order |G|/n_i, acts freely
on it, so K_S . D_i / 4 = (g-1) n_i / |G| is g - 1 for the quotient
curve, an integer; and delta_i = D_i^2/2 + K_S . D_i/4 = n_i s_ii / (2 |G|)
counts the points where two graphs of O_i meet, on S, a nonnegative
integer.  All arithmetic is exact; this module contains no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from .errors import IntegrityError
from .surface import SurfaceData

# A graph class is addressed by the index of its automorphism in h_group.
GraphClass = int


class OrbitDivisor(NamedTuple):
    """A G-orbit of graph classes; labels are 1-based, by minimal member."""

    label: int
    members: tuple[GraphClass, ...]

    @property
    def n(self) -> int:
        return len(self.members)


def graph_orbits(S: SurfaceData) -> list[OrbitDivisor]:
    """Partition the |H| graph classes into G-orbits, deterministically labeled.

    Each seed is the least graph class not yet in an orbit, so it is its
    orbit's least member and the orbits come out in label order.  The
    G0-orbit is read off the Cayley table; the mixed half is tau times its
    inverses (module docstring).
    """
    H = S.h_group
    rows, inv = H.rows, H.inverses
    act, to_h = S.action, S.to_h
    # h sends f to phi(h) f h^-1: a row to read f in, and the index of the
    # right factor.
    by_h = [(rows[to_h[act.phi[h]]], inv[to_h[h]]) for h in act.G0.members]
    tau_row = rows[to_h[act.tau]]
    assigned: set[int] = set()
    divisors = []
    for f in range(H.order):
        if f in assigned:
            continue
        half = {rows[row[f]][right] for row, right in by_h}
        orb = half.union(map(tau_row.__getitem__, map(inv.__getitem__, half)))
        assigned.update(orb)
        divisors.append(OrbitDivisor(len(divisors) + 1, tuple(sorted(orb))))
    return divisors


class IntersectionTable(NamedTuple):
    """Exact pairing of the orbit divisors (entries are asserted integers)."""

    divisors: tuple[OrbitDivisor, ...]
    pairing: tuple[tuple[int, ...], ...]
    kdot: tuple[int, ...]
    genus_minus_1: int
    order_g: int

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(d.label for d in self.divisors)

    def entry(self, label_i: int, label_j: int) -> int:
        return self.pairing[label_i - 1][label_j - 1]

    def rank(self) -> int:
        """Rank of the pairing, by fraction-free elimination (Bareiss 1968).

        Each step replaces every row below the pivot row by its 2x2 minors
        with the pivot row, divided by the previous pivot.  By Sylvester's
        identity every entry is then a minor of the pairing, so the division
        is exact and the arithmetic stays in integers.
        """
        rows = [list(row) for row in self.pairing]
        rank, previous = 0, 1
        for col in range(len(rows[0]) if rows else 0):
            pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            head = rows[rank]
            p = head[col]
            for r in range(rank + 1, len(rows)):
                row = rows[r]
                a = row[col]
                rows[r] = [(p * x - a * y) // previous for x, y in zip(row, head)]
            previous = p
            rank += 1
        return rank


def intersection_table(orbits, S: SurfaceData) -> IntersectionTable:
    """Full symmetric pairing plus the K_S row, all integrality-asserted.

    Each entry is read from both sides, n_i s_ij and n_j s_ji, and the two
    must agree; they do whenever the orbits are G-invariant.
    """
    cover = S.h_covering
    H = cover.vector.group
    rows, inv = H.rows, H.inverses
    fix = cover.fix_table
    fix_list = [fix.get(f, 0) for f in range(H.order)]  # fix_list[0] = 0
    gm1 = cover.genus - 1
    order_g = S.action.G.order

    divisors = tuple(sorted(orbits, key=lambda d: d.label))
    norb = len(divisors)

    # Integrality is tested on ints; a Fraction is built only for a message.
    kdot = []
    for d in divisors:
        numerator = 4 * gm1 * d.n
        kd, rest = divmod(numerator, order_g)
        if rest:
            raise IntegrityError(f"K.D for divisor {d.label} is non-integral: "
                                 f"{Fraction(numerator, order_g)}")
        kdot.append(kd)

    # s[i][j] = sum over y in O_j of |Fix(x_i^-1 y)|, x_i the minimal member
    # of O_i.  Gathered along the row of x_i^-1, in_orbit_order lists every
    # x_i^-1 y, orbit after orbit; a second gather reads their |Fix|, and
    # s_ij is the sum of O_j's slice.
    in_orbit_order = itemgetter(*[y for d in divisors for y in d.members])
    ends = list(accumulate(d.n for d in divisors))
    slices = [slice(a, b) for a, b in zip([0, *ends], ends)]
    s = []
    for d in divisors:
        fixes = itemgetter(*in_orbit_order(rows[inv[min(d.members)]]))(fix_list)
        s.append([sum(fixes[k]) for k in slices])

    pairing = [[0] * norb for _ in range(norb)]
    for i, d in enumerate(divisors):
        for j in range(i, norb):
            if j == i:
                total = d.n * s[i][i] - 2 * gm1 * d.n
            else:
                total, other = d.n * s[i][j], divisors[j].n * s[j][i]
                if total != other:
                    raise IntegrityError(
                        f"intersection D_{d.label}.D_{divisors[j].label} "
                        f"disagrees between its two orbits: {total} != {other}")
            val, rest = divmod(total, order_g)
            if rest:
                raise IntegrityError(
                    f"intersection D_{d.label}.D_{divisors[j].label} "
                    f"is non-integral: {Fraction(total, order_g)}")
            pairing[i][j] = pairing[j][i] = val

    for i, (d, kd) in enumerate(zip(divisors, kdot)):
        if kd % 4 != 0:
            raise IntegrityError(
                f"adjunction fails for divisor {d.label}: K.D = {kd} is not divisible by 4")
        twice_delta = pairing[i][i] + kd // 2
        if twice_delta % 2 or twice_delta < 0:
            raise IntegrityError(
                f"adjunction fails for divisor {d.label}: "
                f"delta = {Fraction(twice_delta, 2)} is not a nonnegative integer")

    table = IntersectionTable(divisors, tuple(tuple(row) for row in pairing),
                              tuple(kdot), gm1, order_g)
    rank = table.rank()
    if rank > 2:
        raise IntegrityError(f"pairing matrix has rank {rank} > 2")
    return table
