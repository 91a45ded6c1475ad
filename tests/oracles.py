"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: fixed points are
counted fiber by fiber over explicit coset partitions (no 1/m weighting),
or one element at a time by conjugating into each branch stabilizer
(no shared membership counters); graphs are moved one group element at a
time rather than orbit by orbit; and the D_{2,8,5} comparison group is
built directly as a semidirect product rather than by coset enumeration;
the commutator subgroup is generated by every commutator rather than
as a normal closure, and the derived series iterates that; and the
abelianization is read off how many cosets of the commutator subgroup
have q-th power in it, composing ``Permutation``s, where the library
splits cyclic factors off a quotient table; and generating vectors are found by testing every
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
reads one representative per orbit; and the rank of a matrix is found by
Gauss-Jordan elimination over ``Fraction``s, where the library eliminates
fraction-free in integers; and conjugacy classes are formed by composing
``Permutation``s, every conjugate of every element, where the library
walks each class once on the Cayley table; and the cone witness is found by
testing the seven conditions on every ordered quadruple of null divisors,
where the library reads it off the numerical classes; and q and p_g come
from the character of G0 on the 1-forms of C by the Eichler trace formula,
in exact Gaussian rationals, where the library reads them off the genus;
and each orbit of graphs is its seed's image under every element of G,
each of the two formulas applied as written, where the library computes
the G0 half and takes the mixed half as tau times its inverses.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import permutations, product
from typing import Sequence

from mixedsurf.covering import CoverType, GeneratingVector
from mixedsurf.divisors import IntersectionTable
from mixedsurf.errors import BudgetExceeded, IntegrityError, ValidationError
from mixedsurf.perm import (FiniteGroup, Permutation, Subgroup, closure, closure_limit,
                            extend_homomorphism)
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


def right_product_closure(generators: Sequence[Permutation], budget: int | None = None
                          ) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """Generate the group closure of ``generators`` by right products e * g,
    and return it beside its elements' image tuples.

    Element ordering is breadth-first over words in the generators with ties
    inside each layer broken by lexicographic image sequence; the identity is
    element 0.  Raises :class:`BudgetExceeded` if the closure grows past
    ``budget`` elements (by default ``perm.closure_limit``).  The group's
    sort keys are the whole image tuples.
    """
    gens = tuple(generators)
    if not gens:
        raise ValidationError("at least one generator is required")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValidationError("generators have mismatched degrees")
    if budget is None:
        budget = closure_limit(degree)

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

    return FiniteGroup(degree, gens, tuple(parents), left, gen_step, images), images


def elements_of(G: FiniteGroup, parent: FiniteGroup | None = None) -> tuple[Permutation, ...]:
    """Each element of G as a ``Permutation``, rebuilt from its word with no
    call into ``closure``: element i is the product of G's generators along
    ``G.word_for(i)``, one ``Permutation`` product per letter on top of the
    word one letter shorter, its BFS parent's.  A realized subgroup keeps
    no generators: its element i is element ``G.positions[i]`` of
    ``parent``, the group it was realized in.
    """
    if G.positions is not None:
        return tuple(map(elements_of(parent).__getitem__, G.positions))
    by_word = {(): Permutation.identity(G.degree)}
    out = []
    for i in range(G.order):
        word = tuple(G.word_for(i))
        if word:
            by_word[word] = by_word[word[:-1]] * G.generators[word[-1]]
        out.append(by_word[word])
    return tuple(out)


def element_index(G: FiniteGroup, parent: FiniteGroup | None = None) -> dict[Permutation, int]:
    """Each element of G mapped to its index, read off :func:`elements_of`
    with no prefix key: a permutation outside G is not a key."""
    return {e: i for i, e in enumerate(elements_of(G, parent))}


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


def abelianization_by_counting(G: FiniteGroup,
                               parent: FiniteGroup | None = None) -> tuple[int, ...]:
    """The elementary divisors of G/G', ascending, from counts of roots of 1.

    For q = p^k, the cosets a = gG' with a^q = 1 number p^s(k), where
    s(k) = sum of min(e_i, k) over the divisors p^e_i; so s(k) - s(k-1)
    divisors have e_i >= k.  Each coset is a set of ``Permutation``
    products g * n, and g^q is a ``Permutation`` power tested against G'.
    A realized subgroup's elements are read in ``parent`` (see
    :func:`elements_of`).
    """
    derived = commutator_subgroup_members(G)
    elements = elements_of(G, parent)
    in_derived = {elements[n].images for n in derived}
    index = {e: i for i, e in enumerate(elements)}
    reps, seen = [], set()
    for i, g in enumerate(elements):
        if i not in seen:
            reps.append(g)
            seen.update(index[g * elements[n]] for n in derived)
    m, divisors, p = len(reps), [], 2
    while m > 1:
        if m % p:
            p += 1
            continue
        levels, q = [0], 1
        while m % p == 0:
            m //= p
            q *= p
            roots = 0
            for g in reps:
                power = Permutation.identity(G.degree)
                for _ in range(q):
                    power = power * g
                roots += power.images in in_derived
            s = 0
            while roots % p == 0 and roots > 1:
                roots //= p
                s += 1
            levels.append(s)
        at_least = [b - a for a, b in zip(levels, levels[1:])] + [0]
        for k in range(1, len(at_least)):
            divisors += [p ** k] * (at_least[k - 1] - at_least[k])
    return tuple(sorted(divisors))


def derived_series_by_commutators(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """G', G'', ... as sorted member tuples, each the span of every commutator
    of the term before, down to the first term that is trivial or repeats."""
    series, current, previous = [], G, G.order
    while True:
        members = tuple(sorted(commutator_subgroup_members(current)))
        series.append(members)
        if len(members) in (1, previous):
            return tuple(series)
        previous, current = len(members), Subgroup(G, members, members)


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


def conjugacy_classes_by_conjugation(G: FiniteGroup, order: int | None = None,
                                     parent: FiniteGroup | None = None
                                     ) -> list[frozenset[int]]:
    """The conjugacy classes of G, or those of its elements of ``order``,
    ordered by least member.

    Each class is {g x g^-1 : g in G} for the least x not yet in a class,
    every conjugate composed as permutations of :func:`elements_of` and
    looked up by its image tuple, with no Cayley table.  Conjugates have equal
    orders, so the classes of one order are those of its elements.  A
    realized subgroup's elements are read in ``parent``.
    """
    elements = elements_of(G, parent)
    index = {e: i for i, e in enumerate(elements)}
    pairs = [(g, g.inverse()) for g in elements]
    classes, seen = [], set()
    for x in range(G.order):
        if x not in seen and order in (None, G.order_of(x)):
            cls = frozenset(index[g * elements[x] * g_inv] for g, g_inv in pairs)
            seen |= cls
            classes.append(cls)
    return classes


def generating_vector_entries(G: FiniteGroup, cover_type: CoverType,
                              parent: FiniteGroup | None = None) -> list[tuple[int, ...]]:
    """Every genus-0 generating vector of the type, one per simultaneous
    conjugacy class, in the library's scan order.

    The first entry runs over the smallest index of each conjugacy class of
    its order, the middle entries over all elements of their orders, in
    lexicographic order, and the last entry is the inverse of the product
    before it.  Each candidate that generates G is kept unless its minimum
    over conjugation by every element of G was already seen.  A realized
    subgroup's classes are found in ``parent``'s elements.
    """
    reps = [min(cls) for cls in conjugacy_classes_by_conjugation(G, cover_type.m[0], parent)]
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


# zeta/(1 - zeta) for the rotation zeta = exp(2 pi i k/m), keyed by (m, k), as
# (real part, imaginary part): zeta is -1, i or -i for the branch orders 2 and
# 4 of the bundled G0 covers, [0;2^r] and [0;4^3].
_EICHLER_TERMS = {(2, 1): (Fraction(-1, 2), Fraction(0)),
                  (4, 1): (Fraction(-1, 2), Fraction(1, 2)),
                  (4, 2): (Fraction(-1, 2), Fraction(0)),
                  (4, 3): (Fraction(-1, 2), Fraction(-1, 2))}


def canonical_character(G: FiniteGroup, members, entries,
                        m) -> dict[int, tuple[Fraction, Fraction]]:
    """The character of G0 on H^0(K_C), by the Eichler trace formula.

    G0 is ``members`` (element indices of G) and C -> C/G0 has the genus-0
    generating vector ``entries`` (indices of G) of branch orders ``m``.
    chi(1) is the genus of C, from Riemann-Hurwitz.  For f != 1,
    chi(f) = 1 + sum over the fixed points p of f of zeta_p/(1 - zeta_p),
    with zeta_p the rotation of f at p (Farkas and Kra, *Riemann Surfaces*,
    ch. V).  Over branch point j the points are the cosets x<h_j>, and f
    fixes x<h_j> with rotation exp(2 pi i k/m_j) when x^-1 f x = h_j^k,
    0 < k < m_j; the m_j members x of the coset all satisfy it, so each x
    weighs 1/m_j.  Values are exact Gaussian rationals (real, imaginary).
    """
    if not set(m) <= {2, 4}:
        raise ValidationError(f"branch orders {m}: only rotations of order 2 and 4 are tabled")
    genus = 1 + len(members) * (sum(Fraction(mj - 1, mj) for mj in m) - 2) / 2
    powers: dict[int, list[tuple[int, int]]] = {}
    for h, mj in zip(entries, m):
        p = h
        for k in range(1, mj):
            powers.setdefault(p, []).append((mj, k))
            p = G.mul(p, h)
    chi = {0: (genus, Fraction(0))}
    for f in members:
        if f == 0:
            continue
        re, im = Fraction(1), Fraction(0)
        for x in members:
            for mj, k in powers.get(G.mul(G.mul(G.inv(x), f), x), ()):
                a, b = _EICHLER_TERMS[mj, k]
                re, im = re + a / mj, im + b / mj
        chi[f] = (re, im)
    return chi


def q_and_pg_by_trace_formula(S: SurfaceData, mixed_sign: int = -1) -> tuple[Fraction, Fraction]:
    """q and p_g of S from the character chi of G0 on V = H^0(K_C).

    q = <chi, 1> over G0, the invariant 1-forms on C, and
    p_g = (1/|G|) (sum over g in G0 of chi(g) chi(phi(g))
                   + mixed_sign * sum over s outside G0 of chi(s^2)),
    the dimension of the G-invariants in V (x) V: an s outside G0 swaps the
    two factors, which acts on 2-forms with the sign ``mixed_sign``, -1 for
    the mixed action of Bauer, Catanese and Grunewald (2008).  The formula
    holds for any action, but p_g = chi - 1 + q only for a free one.  It reads
    the vector's entries and type, G's multiplication, G0's members and phi:
    not the genus, stabilizer set or fixed-point table of the library's
    cover, nor ``surface.invariants_from``.  Raises IntegrityError when
    either value is not a rational number.
    """
    act = S.action
    G, members = act.G, act.G0.members
    g0 = S.g0_group
    vector = S.covering.vector
    index, in_g0 = element_index(G), elements_of(g0, G)
    chi = canonical_character(G, members, [index[in_g0[e]] for e in vector.entries],
                              vector.cover_type.m)
    q = [sum(chi[f][0] for f in members), sum(chi[f][1] for f in members)]
    pg = [Fraction(0), Fraction(0)]
    for g in members:
        (a, b), (c, d) = chi[g], chi[act.phi[g]]
        pg[0] += a * c - b * d
        pg[1] += a * d + b * c
    inside = set(members)
    for s in range(G.order):
        if s not in inside:
            a, b = chi[G.mul(s, s)]
            pg[0] += mixed_sign * a
            pg[1] += mixed_sign * b
    if q[1] or pg[1]:
        raise IntegrityError(f"q = {q} or p_g = {pg} has an imaginary part")
    return q[0] / len(members), pg[0] / G.order


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


def orbits_by_action(S: SurfaceData) -> list[tuple[int, tuple[int, ...]]]:
    """(label, sorted members) of each G-orbit of the graph classes.

    The seed is the least graph class in no orbit yet, and its orbit is its
    image under every element of G: under h and under tau' h for every h in
    G0, each moved by :func:`act_on_graph`.  Labels count from 1 in seed
    order.  On a corrupted action (phi or tau not those of G) this is still
    the seed's image set, which then need not hold the seed.
    """
    placed: set[int] = set()
    orbits = []
    for f in range(S.h_group.order):
        if f in placed:
            continue
        orbit = {act_on_graph(S, h, f, mixed)
                 for h in S.action.G0.members for mixed in (False, True)}
        placed |= orbit
        orbits.append((len(orbits) + 1, tuple(sorted(orbit))))
    return orbits


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


def rank_by_fractions(matrix) -> int:
    """Rank of an integer matrix by Gauss-Jordan elimination over ``Fraction``s."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
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


def divfq_conditions_hold(table: IntersectionTable, quad: tuple[int, int, int, int]) -> bool:
    """The seven witness conditions on (D1, D2, D3, D4), on distinct labels."""
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
    """Lexicographically first ordered quadruple (D1, D2, D3, D4) of null
    divisors that satisfies the witness conditions, by a scan of them all."""
    zero_self = [lbl for lbl in table.labels if table.entry(lbl, lbl) == 0]
    for quad in permutations(zero_self, 4):
        if divfq_conditions_hold(table, quad):
            return quad
    return None
