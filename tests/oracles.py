"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: fixed points are
counted fiber by fiber over explicit coset partitions (no 1/m weighting),
or one element at a time by conjugating into each branch stabilizer
(no shared membership counters); graphs are moved one group element at a
time rather than orbit by orbit; and the D_{2,8,5} comparison group is
built directly as a semidirect product rather than by coset enumeration.
"""

from __future__ import annotations

from fractions import Fraction

from mixedsurf.covering import GeneratingVector
from mixedsurf.errors import IntegrityError, ValidationError
from mixedsurf.perm import FiniteGroup, Permutation, closure
from mixedsurf.surface import SurfaceData


def fixed_point_count(f: int, v: GeneratingVector) -> int:
    """Exact number of fixed points of the non-trivial automorphism f on C."""
    if f == 0:
        raise ValidationError("fixed-point counts are defined for non-identity elements only")
    G = v.group
    total = Fraction(0)
    for h, mj in zip(v.entries, v.cover_type.m):
        cyclic = {0}
        k = h
        while k != 0:
            cyclic.add(k)
            k = G.mul(k, h)
        # f in gKg^-1 for as many g as g f g^-1 in K (g <-> g^-1 is a bijection)
        member = sum(1 for g in range(G.order) if G.conj(g, f) in cyclic)
        total += Fraction(member, mj)
    if total.denominator != 1:
        raise IntegrityError(f"fixed-point count for element {f} is non-integral: {total}")
    return int(total)


def act_on_graph(S: SurfaceData, h: int, f: int, mixed: bool = False) -> int:
    """Image of graph(f) under h in G0 (or under tau' h when ``mixed``).

    ``h`` is a G-element index lying in G0; ``f`` and the result are
    h_group indices:

        h      : graph(f) -> graph(phi(h) f h^-1)
        tau' h : graph(f) -> graph(tau h f^-1 phi(h)^-1)
    """
    if h not in S.action.G0:
        raise ValidationError("the acting element must lie in G0")
    H = S.h_group
    hh = S.to_h[h]
    ph = S.to_h[S.action.phi[h]]
    if not mixed:
        return H.mul(H.mul(ph, f), H.inv(hh))
    tau = S.to_h[S.action.tau]
    return H.mul(H.mul(H.mul(tau, hh), H.inv(f)), H.inv(ph))


class CosetFiberOracle:
    """Count fixed points of f on C by walking the fibers of C -> C/H.

    The fiber over the j-th branch point is in bijection with the left
    cosets of K_j = <h_j>; f fixes the point gK_j exactly when f g lies in
    g K_j.  Counting cosets directly is independent of the weighted
    membership formula used by the library.
    """

    def __init__(self, group: FiniteGroup, entries):
        self.group = group
        self.fibers = []
        for h in entries:
            powers = [0]
            k = h
            while k != 0:
                powers.append(k)
                k = group.mul(k, h)
            cid = [-1] * group.order
            reps = []
            for g in range(group.order):
                if cid[g] >= 0:
                    continue
                c = len(reps)
                reps.append(g)
                for p in powers:
                    cid[group.mul(g, p)] = c
            self.fibers.append((cid, reps))

    def count(self, f: int) -> int:
        assert f != 0, "identity has no fixed-point count"
        mul = self.group.mul
        total = 0
        for cid, reps in self.fibers:
            for c, g in enumerate(reps):
                if cid[mul(f, g)] == c:
                    total += 1
        return total


def semidirect_z8_z2_r5() -> FiniteGroup:
    """Z8 x| Z2 with the generator of Z2 acting by y -> y^5, built directly.

    Elements are pairs (a, e); (a, e) * (b, f) = (a + 5^e b mod 8, e xor f).
    Returned as the right regular permutation representation.
    """
    elements = [(a, e) for e in range(2) for a in range(8)]
    pos = {ae: i for i, ae in enumerate(elements)}

    def mul(p, q):
        (a, e), (b, f) = p, q
        return ((a + pow(5, e) * b) % 8, e ^ f)

    def right_perm(q):
        return Permutation(tuple(pos[mul(p, q)] + 1 for p in elements))

    x = right_perm((0, 1))
    y = right_perm((1, 0))
    group = closure([x, y])
    assert group.order == 16
    return group
