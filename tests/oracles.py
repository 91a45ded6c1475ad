"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: fixed points are
counted fiber by fiber over explicit coset partitions (no 1/m weighting),
or one element at a time by conjugating into each branch stabilizer
(no shared membership counters); graphs are moved one group element at a
time rather than orbit by orbit; and the D_{2,8,5} comparison group is
built directly as a semidirect product rather than by coset enumeration;
the commutator subgroup is generated by every commutator rather than
as a normal closure; and generating vectors are found by testing every
candidate tuple with ``subgroup_generated`` and deduplicated by the
minimum over conjugation by all of G, with no shared spans and no
centralizer argument; and the freeness conditions are tested as set
identities, with h phi(h) tau in place of the library's (tau' h)^2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from mixedsurf.covering import CoverType, GeneratingVector
from mixedsurf.errors import IntegrityError, ValidationError
from mixedsurf.perm import (FiniteGroup, Permutation, Subgroup, closure, conjugacy_class,
                            subgroup_generated)
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


def commutator_subgroup_members(G: FiniteGroup | Subgroup) -> frozenset[int]:
    """[G,G] as the set generated by all |G|^2 commutators a b a^-1 b^-1.

    Works on element indices of G (or of a subgroup's parent), closing the
    commutator set under multiplication by a plain breadth-first search.
    """
    if isinstance(G, Subgroup):
        parent, members = G.parent, G.members
    else:
        parent, members = G, range(G.order)
    parent._ensure_tables()
    rows, inv = parent._mul_rows, parent._inv
    comms = set()
    for a in members:
        ra, ia = rows[a], inv[a]
        for b in members:
            comms.add(rows[rows[ra[b]][ia]][inv[b]])
    span = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = rows[x]
            for c in comms:
                y = row[c]
                if y not in span:
                    span.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(span)


def generating_vector_entries(G: FiniteGroup, cover_type: CoverType) -> list[tuple[int, ...]]:
    """Every genus-0 generating vector of the type, one per simultaneous
    conjugacy class, in the library's scan order.

    The first entry runs over the smallest index of each conjugacy class of
    its order, the middle entries over all elements of their orders, in
    lexicographic order, and the last entry is the inverse of the product
    before it.  Each candidate that generates G is kept unless its minimum
    over conjugation by every element of G was already seen.
    """
    reps = sorted({min(conjugacy_class(G, x)) for x in range(G.order)
                   if G.order_of(x) == cover_type.m[0]})
    pools = [reps] + [[x for x in range(G.order) if G.order_of(x) == mi]
                      for mi in cover_type.m[1:-1]]
    found, keys = [], set()
    for head in product(*pools):
        acc = 0
        for h in head:
            acc = G.mul(acc, h)
        entries = head + (G.inv(acc),)
        if G.order_of(entries[-1]) != cover_type.m[-1]:
            continue
        if subgroup_generated(G, entries).order != G.order:
            continue
        key = min(tuple(G.conj(g, h) for h in entries) for g in range(G.order))
        if key not in keys:
            keys.add(key)
            found.append(entries)
    return found


def free_pair(G: FiniteGroup, members, sigma, phi, tau: int) -> bool:
    """Conditions (i) and (ii) in set form: Sigma and phi(Sigma) meet in 1,
    and no h in G0 has h phi(h) tau in Sigma.

    h phi(h) tau is the conjugate by h of (tau' h)^2 = phi(h) tau h, so for a
    Sigma closed under G0-conjugation this decides the same two conditions.
    """
    sigma = set(sigma)
    return ((sigma & {phi[s] for s in sigma}) == {0}
            and all(G.mul(G.mul(h, phi[h]), tau) not in sigma for h in members))


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
