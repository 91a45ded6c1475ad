"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: fixed points are
counted fiber by fiber over explicit coset partitions (no 1/m weighting),
or one element at a time by conjugating into each branch stabilizer
(no shared membership counters); graphs are moved one group element at a
time rather than orbit by orbit; and the D_{2,8,5} comparison group is
built directly as a semidirect product rather than by coset enumeration;
the commutator subgroup is generated by every commutator rather than
as a normal closure; and generating vectors are found by testing every
candidate tuple with a plain breadth-first span that walks to the end,
where the library's ``subgroup_generated`` stops past half of G, and
deduplicated by the minimum over conjugation by all of G, with no shared
spans and no centralizer argument; and the freeness conditions are tested
as set identities, with h phi(h) tau in place of the library's (tau' h)^2; and
group closure is a breadth-first search by right products e * g, one
Python-level composition per edge, with each element's left steps walked
afterwards along its BFS parents; and generator images are found by
extending every tuple of candidates, with no pruning, and isomorphism of
extension groups by a search over generator images of the whole group,
without G0; and a generator matching is extended by a plain breadth-first
walk and then checked on all |span|^2 products, where the library's
``extend_homomorphism`` checks each new step as it walks and leans on an
induction over words for the rest; and words are evaluated on
permutations, one multiplication per unit of exponent, where the library
multiplies element indices and reduces exponents modulo |G|; and the
orbit-divisor pairing sums over every pair of graphs, where the library
reads one representative per orbit.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import product
from typing import Sequence

from mixedsurf.covering import CoverType, GeneratingVector
from mixedsurf.errors import BudgetExceeded, IntegrityError, ValidationError
from mixedsurf.perm import (MAX_TABLE_ORDER, FiniteGroup, Permutation, Subgroup, closure,
                            conjugacy_class, extend_homomorphism)
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


def right_product_closure(generators: Sequence[Permutation],
                          budget: int = MAX_TABLE_ORDER) -> FiniteGroup:
    """Generate the group closure of ``generators`` by right products e * g.

    Element ordering is breadth-first over words in the generators with ties
    inside each layer broken by lexicographic image sequence; the identity is
    element 0.  Raises :class:`BudgetExceeded` if the closure grows past
    ``budget`` elements.
    """
    gens = tuple(generators)
    if not gens:
        raise ValidationError("at least one generator is required")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValidationError("generators have mismatched degrees")

    # (e * g).images == tuple(pad[x] for x in e.images) with pad = (0,) + g.images.
    pads = [(0,) + g.images for g in gens]
    ident = tuple(range(1, degree + 1))
    images: list[tuple[int, ...]] = [ident]
    # Image sequence -> element index; a member of the layer being discovered
    # maps to ~(its discovery number) until the layer is sorted.
    index: dict[tuple[int, ...], int] = {ident: 0}
    parents: list[tuple[int, int]] = [(-1, -1)]
    gen_step = [array("i") for _ in gens]

    start = 0
    while start < len(images):
        end = len(images)
        layer: list[tuple[int, ...]] = []
        for i in range(start, end):
            e = images[i]
            for c, pad in enumerate(pads):
                prod = tuple(map(pad.__getitem__, e))
                j = index.get(prod)
                if j is None:
                    if end + len(layer) >= budget:
                        raise BudgetExceeded(
                            f"group closure exceeded the element budget of {budget}")
                    j = ~len(layer)
                    index[prod] = j
                    layer.append(prod)
                    parents.append((i, c))
                gen_step[c].append(j)
        # Index the new layer in lexicographic order, then resolve the steps
        # of this layer that pointed into it.
        order = sorted(range(len(layer)), key=layer.__getitem__)
        final = [0] * len(layer)
        for rank, t in enumerate(order):
            final[t] = end + rank
            index[layer[t]] = end + rank
        images.extend(layer[t] for t in order)
        parents[end:] = [parents[end + t] for t in order]
        for step in gen_step:
            step[start:end] = array("i", [final[~j] if j < 0 else j
                                          for j in step[start:end]])
        start = end

    # left[c][j] = index(generators[c] * elements[j]), walked along the BFS
    # parents: generators[c] * e_j == (generators[c] * e_p) * generators[cj].
    n = len(images)
    left = []
    for c in range(len(gens)):
        row = array("i", bytes(4 * n))
        row[0] = gen_step[c][0]
        for j in range(1, n):
            pj, cj = parents[j]
            row[j] = gen_step[cj][row[pj]]
        left.append(row)

    elements = tuple(map(Permutation._trusted, images))
    # The full image tuple is the key: width == degree.
    return FiniteGroup(degree, gens, elements, index, degree, tuple(parents), gen_step, left)


def commutator_subgroup_members(G: FiniteGroup | Subgroup) -> frozenset[int]:
    """[G,G] as the set generated by all |G|^2 commutators a b a^-1 b^-1.

    Works on element indices of G (or of a subgroup's parent), closing the
    commutator set under multiplication by a plain breadth-first search.
    """
    if isinstance(G, Subgroup):
        parent, members = G.parent, G.members
    else:
        parent, members = G, range(G.order)
    rows, inv = parent.rows, parent.inverses
    comms = set()
    for a in members:
        ra, ia = rows[a], inv[a]
        for b in members:
            comms.add(rows[rows[ra[b]][ia]][inv[b]])
    return span_members(parent, comms)


def span_members(G: FiniteGroup, seeds) -> frozenset[int]:
    """The subgroup of G generated by the seed indices, by a plain
    breadth-first search over right products that runs until no new
    element turns up, with no stop at half of G."""
    seeds = tuple(seeds)
    rows = G.rows
    span = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = rows[x]
            for c in seeds:
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
        if len(span_members(G, entries)) != G.order:
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


def pairing_by_double_sum(orbits, S: SurfaceData) -> tuple[tuple[int, ...], ...]:
    """The orbit-divisor pairing summed over every pair of graphs.

    D_i . D_j = (1/|G|) sum over x in O_i, y in O_j of |Fix(x^-1 y)|, and
    D_i^2 = (-2 (g-1) n_i + 2 sum over x < y in O_i of |Fix(x^-1 y)|) / |G|,
    where the library reads one representative per orbit.
    """
    cover = S.h_covering
    H = cover.vector.group
    rows, inv, fix = H.rows, H.inverses, cover.fix_table
    gm1 = cover.genus - 1
    order_g = S.action.G.order
    divisors = sorted(orbits, key=lambda d: d.label)
    pairing = [[0] * len(divisors) for _ in divisors]
    for i, di in enumerate(divisors):
        mi = di.members
        for j in range(i, len(divisors)):
            if i == j:
                upper = sum(sum(map(fix.__getitem__, map(rows[inv[x]].__getitem__, mi[a + 1:])))
                            for a, x in enumerate(mi))
                val = Fraction(-2 * gm1 * di.n + 2 * upper, order_g)
            else:
                val = Fraction(sum(sum(map(fix.__getitem__,
                                           map(rows[inv[x]].__getitem__, divisors[j].members)))
                                   for x in mi), order_g)
            if val.denominator != 1:
                raise IntegrityError(f"D_{di.label}.D_{divisors[j].label} is non-integral: {val}")
            pairing[i][j] = pairing[j][i] = int(val)
    return tuple(map(tuple, pairing))


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


def embedding_by_bfs(src: FiniteGroup, src_gens, dst: FiniteGroup, dst_gens):
    """The map src_gens[i] -> dst_gens[i] on <src_gens> when it is an
    injective homomorphism, else None.

    The generators are mapped first, each to one image; a plain
    breadth-first walk then gives every other element of the span the image
    along the first word that reaches it.  The map is checked for
    injectivity and on all |span|^2 products.
    """
    if len(src_gens) != len(dst_gens):
        return None
    pairs = list(zip(src_gens, dst_gens))
    img = {0: 0}
    for s, t in pairs:
        if img.setdefault(s, t) != t:
            return None
    queue = list(img)
    for x in queue:
        for s, t in pairs:
            y = src.mul(x, s)
            if y not in img:
                img[y] = dst.mul(img[x], t)
                queue.append(y)
    if len(set(img.values())) != len(img) or first_broken_product(src, dst, img) is not None:
        return None
    return img


def first_broken_product(src: FiniteGroup, dst: FiniteGroup, img: dict):
    """The first pair (x, y) of the domain of img with img(x y) != img(x) img(y),
    or None when img is a homomorphism; the domain must be a subgroup."""
    return next(((x, y) for x in img for y in img
                 if img[src.mul(x, y)] != dst.mul(img[x], img[y])), None)


def homomorphisms_by_tuples(src: FiniteGroup, src_gens, dst: FiniteGroup, pool):
    """Every injective homomorphism of <src_gens> into dst with generator
    images in pool, by extending every image tuple in lexicographic order."""
    out = []
    for images in product(sorted(set(pool)), repeat=len(src_gens)):
        img = embedding_by_bfs(src, src_gens, dst, images)
        if img is not None:
            out.append(img)
    return out


def iso_test(GA: FiniteGroup, GB: FiniteGroup) -> bool:
    """Exhaustive generator-image isomorphism search (order-pruned).

    GA's generators must be (v1, v2, v3, t) with v1 v2 v3 = 1 and v1, v2 of
    the same order, as for the extension groups of ``scripts/make_data.py``.
    """
    if GA.order != GB.order:
        return False
    gA = list(GA.generator_indices)

    def word_ord(G, gens, w):
        acc = 0
        for q in w:
            acc = G.mul(acc, gens[q])
        return G.order_of(acc)

    probes = [(0, 1), (0, 3), (1, 3), (0, 1, 3), (0, 0, 1), (1, 1, 3)]
    cons = {w: word_ord(GA, gA, w) for w in probes}
    pool4 = [i for i in range(GB.order) if GB.order_of(i) == GA.order_of(gA[0])]
    poolt = [i for i in range(GB.order) if GB.order_of(i) == GA.order_of(gA[3])]

    for t1 in pool4:
        for t2 in pool4:
            p12 = GB.mul(t1, t2)
            if GB.order_of(p12) != cons[(0, 1)]:
                continue
            t3 = GB.inv(p12)
            if GB.order_of(t3) != GA.order_of(gA[2]):
                continue
            if word_ord(GB, [t1, t2, t3, 0], (0, 0, 1)) != cons[(0, 0, 1)]:
                continue
            for t4 in poolt:
                if GB.order_of(GB.mul(t1, t4)) != cons[(0, 3)]:
                    continue
                if GB.order_of(GB.mul(t2, t4)) != cons[(1, 3)]:
                    continue
                if word_ord(GB, [t1, t2, t3, t4], (0, 1, 3)) != cons[(0, 1, 3)]:
                    continue
                if word_ord(GB, [t1, t2, t3, t4], (1, 1, 3)) != cons[(1, 1, 3)]:
                    continue
                try:
                    img = extend_homomorphism(GA, gA, GB, (t1, t2, t3, t4))
                except ValidationError:
                    continue
                if embedding_by_bfs(GA, gA, GB, (t1, t2, t3, t4)) != img:
                    raise IntegrityError("extend_homomorphism disagrees with embedding_by_bfs")
                return True
    return False


def evaluate_word(word, assignment: dict) -> Permutation:
    """Product of the word under ``assignment`` (symbol -> Permutation).

    The empty word maps to the identity, whose degree is read from any
    assigned permutation.
    """
    missing = {s for s, _ in word} - set(assignment)
    if missing:
        raise ValidationError(f"unassigned symbols: {sorted(missing)}")
    if not assignment:
        raise ValidationError("assignment must contain at least one element")
    acc = Permutation.identity(next(iter(assignment.values())).degree)
    for sym, exp in word:
        base = assignment[sym] if exp > 0 else assignment[sym].inverse()
        for _ in range(abs(exp)):
            acc = acc * base
    return acc
