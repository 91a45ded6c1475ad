"""Orbit divisors on S and their exact intersection numbers.

Each automorphism f in H gives a curve in C x C (the graph of f); the
group G permutes these graphs:

    h      : graph(f) -> graph(phi(h) f h^-1)          for h in G0,
    tau' h : graph(f) -> graph(tau h f^-1 phi(h^-1))   for h in G0.

The G-orbits sum to G-invariant divisors on C x C which descend to
irreducible effective divisors on S (orbit divisors).  Distinct graphs
intersect transversally, in |Fix(f1^-1 f2)| points, so the whole pairing
reduces to fixed-point-table lookups:

    D . D'  = (1/|G|) sum_i sum_j graph_i . graph'_j
    D^2     = -2 (g-1) n / |G| + (2/|G|) sum_{i<j} graph_i . graph_j
    K_S . D = 4 (g-1) n / |G|

with every value an integer (asserted).  All arithmetic is exact; this
module contains no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .covering import CoveringData
from .errors import IntegrityError, ValidationError
from .surface import SurfaceData

# A graph class is addressed by the index of its automorphism in h_group.
GraphClass = int


@dataclass(frozen=True)
class OrbitDivisor:
    """A G-orbit of graph classes; labels are 1-based, by minimal member."""

    label: int
    members: tuple[GraphClass, ...]

    @property
    def n(self) -> int:
        return len(self.members)


def graph_orbits(S: SurfaceData) -> list[OrbitDivisor]:
    """Partition the |H| graph classes into G-orbits, deterministically labeled."""
    H = S.h_group
    act = S.action
    pairs = [(S.to_h[h], S.to_h[act.phi[h]]) for h in act.G0.members]
    tau = S.to_h[act.tau]
    inv = H.inv
    mul = H.mul
    assigned: dict[int, int] = {}
    orbit_sets: list[tuple[int, ...]] = []
    for f in range(H.order):
        if f in assigned:
            continue
        orb = set()
        inv_f = inv(f)
        for hh, ph in pairs:
            orb.add(mul(mul(ph, f), inv(hh)))
            orb.add(mul(mul(mul(tau, hh), inv_f), inv(ph)))
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


def graph_intersection(f1: GraphClass, f2: GraphClass, cover: CoveringData) -> int:
    """graph(f1) . graph(f2) = |Fix(f1^-1 f2)| for distinct graphs."""
    if f1 == f2:
        raise ValidationError("self-intersections are handled at the orbit level")
    H = cover.vector.group
    return cover.fixed_points(H.mul(H.inv(f1), f2))


@dataclass(frozen=True)
class IntersectionTable:
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

    def kdot_of(self, label: int) -> int:
        return self.kdot[label - 1]

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
    """Full symmetric pairing plus the K_S row, all integrality-asserted."""
    cover = S.h_covering
    if cover.fix_table is None:
        raise ValidationError("intersection counting needs a covering with a fixed-point table")
    H = cover.vector.group
    H._ensure_tables()
    rows = H._mul_rows
    inv = H._inv
    fix = cover.fix_table
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

    def pair_sum(task):
        i, j = task
        mi = divisors[i].members
        mj = divisors[j].members
        # graph_x . graph_y = fix[x^-1 y], summed over a row of the Cayley table.
        if i == j:
            return sum(sum(map(fix.__getitem__, map(rows[inv[x]].__getitem__, mi[a + 1:])))
                       for a, x in enumerate(mi))
        return sum(sum(map(fix.__getitem__, map(rows[inv[x]].__getitem__, mj)))
                   for x in mi)

    tasks = [(i, j) for i in range(norb) for j in range(i, norb)]
    sums = [pair_sum(task) for task in tasks]

    pairing = [[0] * norb for _ in range(norb)]
    for (i, j), total in zip(tasks, sums):
        if i == j:
            n = divisors[i].n
            val = Fraction(-2 * gm1 * n, order_g) + Fraction(2 * total, order_g)
        else:
            val = Fraction(total, order_g)
        if val.denominator != 1:
            raise IntegrityError(
                f"intersection D_{divisors[i].label}.D_{divisors[j].label} "
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
