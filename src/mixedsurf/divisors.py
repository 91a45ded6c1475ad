"""Orbit divisors on S and their exact intersection numbers.

Each automorphism f in H gives a curve in C x C (the graph of f); the
group G permutes these graphs:

    h      : graph(f) -> graph(phi(h) f h^-1)          for h in G0,
    tau' h : graph(f) -> graph(tau h f^-1 phi(h^-1))   for h in G0.

The G-orbits sum to G-invariant divisors on C x C which descend to
irreducible effective divisors on S (orbit divisors).  Distinct graphs
intersect transversally, in |Fix(x^-1 y)| points, so the whole pairing
reduces to fixed-point-table lookups.  Pulled back to C x C,

    D_i . D_j = (1/|G|) sum_{x in O_i} sum_{y in O_j} |Fix(x^-1 y)|.

Both kinds of action keep |Fix(x^-1 y)|: h sends x^-1 y to its conjugate
h x^-1 y h^-1, and tau' h sends it to a conjugate of (x^-1 y)^-1, which
has the same fixed points.  G is transitive on O_i, so the inner sum
s_ij = sum_{y in O_j} |Fix(x_i^-1 y)| is the same for every x_i in O_i,
and one representative per orbit (its minimal member) suffices:

    D_i . D_j = n_i s_ij / |G|                      (i != j)
    D_i^2     = (n_i s_ii - 2 (g-1) n_i) / |G|      (|Fix(1)| read as 0)
    K_S . D_i = 4 (g-1) n_i / |G|

with n_i = |O_i|.  Each off-diagonal entry is also read from the other
side, n_j s_ji, and the two readings must agree; every value must be an
integer (both asserted).  All arithmetic is exact; this module contains
no floating point.
"""

from __future__ import annotations

from fractions import Fraction
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
    """Partition the |H| graph classes into G-orbits, deterministically labeled."""
    H = S.h_group
    rows, inv = H.rows, H.inverses
    act = S.action
    pairs = [(S.to_h[h], S.to_h[act.phi[h]]) for h in act.G0.members]
    tau = S.to_h[act.tau]
    # h sends f to phi(h) f h^-1 and tau' h sends it to (tau h) f^-1 phi(h)^-1:
    # a row to read f (or f^-1) in, and the index of the right factor.
    by_h = [(rows[ph], inv[hh]) for hh, ph in pairs]
    by_tau_h = [(rows[rows[tau][hh]], inv[ph]) for hh, ph in pairs]
    assigned: dict[int, int] = {}
    orbit_sets: list[tuple[int, ...]] = []
    for f in range(H.order):
        if f in assigned:
            continue
        inv_f = inv[f]
        orb = {rows[row[f]][right] for row, right in by_h}
        orb.update(rows[row[inv_f]][right] for row, right in by_tau_h)
        if f not in orb:
            raise IntegrityError("orbit does not contain its seed; broken embedding")
        for t in orb:
            if t in assigned:
                raise IntegrityError("graph orbits are not disjoint; broken embedding")
            assigned[t] = len(orbit_sets)
        orbit_sets.append(tuple(sorted(orb)))
    if len(assigned) != H.order:
        raise IntegrityError("graph orbits do not cover the group")
    order_g = S.action.G.order
    divisors = []
    for label, members in enumerate(sorted(orbit_sets, key=lambda t: t[0]), start=1):
        if order_g % len(members) != 0:
            raise IntegrityError(
                f"orbit size {len(members)} does not divide |G| = {order_g}")
        divisors.append(OrbitDivisor(label, members))
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
        rows = [[Fraction(x) for x in row] for row in self.pairing]
        rank = 0
        ncols = len(rows)
        for col in range(ncols):
            pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            head = rows[rank][col]
            for r in range(len(rows)):
                if r != rank and rows[r][col] != 0:
                    factor = rows[r][col] / head
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
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

    kdot = []
    for d in divisors:
        kd = Fraction(4 * gm1 * d.n, order_g)
        if kd.denominator != 1:
            raise IntegrityError(f"K.D for divisor {d.label} is non-integral: {kd}")
        kdot.append(int(kd))

    # s[i][j] = sum over y in O_j of |Fix(x_i^-1 y)|, x_i the minimal member
    # of O_i; from_x[y] = fix_list[x^-1 y] is one gather along a Cayley row.
    s = []
    for d in divisors:
        from_x = itemgetter(*rows[inv[min(d.members)]])(fix_list)
        s.append([sum(map(from_x.__getitem__, e.members)) for e in divisors])

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
            val = Fraction(total, order_g)
            if val.denominator != 1:
                raise IntegrityError(
                    f"intersection D_{d.label}.D_{divisors[j].label} "
                    f"is non-integral: {val}")
            pairing[i][j] = pairing[j][i] = int(val)

    table = IntersectionTable(divisors, tuple(tuple(row) for row in pairing),
                              tuple(kdot), gm1, order_g)
    for i in range(norb):
        if (table.kdot[i] + table.pairing[i][i]) % 2 != 0:
            raise IntegrityError(
                f"adjunction parity fails for divisor {divisors[i].label}")
    if table.rank() > 2:
        raise IntegrityError(f"pairing matrix has rank {table.rank()} > 2")
    return table
