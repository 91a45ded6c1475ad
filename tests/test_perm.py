from __future__ import annotations

import re
from math import prod

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mixedsurf import perm
from mixedsurf.errors import BudgetExceeded, ValidationError
from mixedsurf.files import load_group_record, realize_group
from mixedsurf.perm import (FiniteGroup, Permutation, center_order, closure,
                            conjugacy_class, conjugacy_classes, derived_subgroup,
                            extend_homomorphism, fingerprint, homomorphisms,
                            subgroup_as_group, subgroup_generated)
from oracles import (abelianization_by_counting, commutator_subgroup_members,
                     conjugacy_classes_by_conjugation, derived_series_by_commutators,
                     element_index, elements_of, embedding_by_bfs, first_broken_product,
                     homomorphisms_by_tuples, span_members)

BUNDLED = ("g64", "g256a", "g256b", "h768", "toy_z4_group")


@pytest.fixture(scope="module")
def bundled(data_dir):
    return {name: realize_group(load_group_record(data_dir / f"{name}.json"))
            for name in BUNDLED}


S6 = closure([Permutation.from_cycles(6, [(1, 2)]),
              Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])])


def test_permutation_validation():
    with pytest.raises(ValidationError):
        Permutation((1, 1, 3))
    p = Permutation.from_cycles(4, [(1, 2, 3)])
    assert p(1) == 2 and p(3) == 1 and p(4) == 4
    assert p.order() == 3
    assert Permutation.identity(4).order() == 1
    assert (p * p.inverse()).images == (1, 2, 3, 4)


@st.composite
def image_tuples(draw):
    """Tuples near a permutation of 1..n: up to two entries replaced by 0,
    n + 1, True or a repeated point, and sometimes one such entry appended."""
    n = draw(st.integers(0, 7))
    images = list(draw(st.permutations(range(1, n + 1))))
    wrong = st.sampled_from([0, n + 1, True, *range(1, n + 1)])
    for _ in range(draw(st.integers(0, 2)) if images else 0):
        images[draw(st.integers(0, n - 1))] = draw(wrong)
    images += draw(st.lists(wrong, max_size=1))
    return tuple(images)


@seed(20191105)
@settings(max_examples=300, deadline=None)
@given(image_tuples())
@example(())
@example((True,))
@example((True, 2))
@example((1, 1))
@example((0, 1))
@example((2, 3))
def test_bijectivity_check_matches_the_sorted_definition(images):
    n = len(images)
    if sorted(images) == list(range(1, n + 1)):
        assert Permutation(images).images == images
    else:
        message = re.escape(f"image sequence {images!r} is not a bijection of 1..{n}")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Permutation(images)


def test_permutations_and_subgroups_are_read_only_values(d4):
    p, q = Permutation.from_cycles(3, [(1, 2)]), Permutation((2, 1, 3))
    assert p == q and len({p, q}) == 1 and p != Permutation.identity(3)
    a, b = subgroup_generated(d4, [1]), subgroup_generated(d4, [1])
    assert a == b and len({a, b}) == 1 and a != subgroup_generated(d4, [0])
    with pytest.raises(AttributeError, match="read-only"):
        p.images = ()
    with pytest.raises(AttributeError, match="read-only"):
        del p.images
    for name in ("parent", "members", "generators", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
    for name in ("parent", "members", "generators"):
        with pytest.raises(AttributeError):
            delattr(a, name)


def test_permutations_compare_and_print_by_their_cycles():
    p = Permutation.from_cycles(4, [(1, 3), (2, 4)])
    assert p != (3, 4, 1, 2)  # only a Permutation equals a Permutation
    assert p == Permutation((3, 4, 1, 2))
    assert repr(p) == "Perm[4](1 3)(2 4)"
    assert repr(Permutation.identity(4)) == "Permutation.identity(4)"


def test_product_is_right_action():
    # (p * q)(i) = q(p(i)): apply p first.
    p = Permutation.from_cycles(3, [(1, 2)])
    q = Permutation.from_cycles(3, [(2, 3)])
    assert (p * q)(1) == 3


def test_closure_dihedral_and_cyclic(d4):
    assert d4.order == 8
    assert elements_of(d4)[0].images == (1, 2, 3, 4)
    c5 = closure([Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])])
    assert c5.order == 5


def test_closure_degree_mismatch():
    with pytest.raises(ValidationError):
        closure([Permutation.identity(3), Permutation.identity(4)])


def test_product_degree_mismatch():
    with pytest.raises(ValidationError, match="degree mismatch"):
        Permutation.identity(3) * Permutation.identity(4)


def test_closure_needs_a_generator():
    with pytest.raises(ValidationError, match="at least one generator"):
        closure([])


def test_closure_budget():
    big = [Permutation.from_cycles(6, [(1, 2)]),
           Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])]
    with pytest.raises(BudgetExceeded):
        closure(big, budget=10)


def test_closure_idempotent(d4):
    again = closure(elements_of(d4), budget=d4.order + 1)
    assert set(elements_of(again)) == set(elements_of(d4))
    assert again.order == d4.order


def test_mul_matches_permutation_arithmetic(d4):
    elements = elements_of(d4)
    for i in range(d4.order):
        for j in range(d4.order):
            assert elements[d4.mul(i, j)] == elements[i] * elements[j]
        assert (elements[i] * elements[d4.inv(i)]).images == (1, 2, 3, 4)


@pytest.mark.parametrize("name", ["toy_z4_group", "g64", "g256a", "h768"])
def test_cayley_table_matches_permutation_arithmetic(bundled, name):
    # Every row and every inverse; for h768 a sample of full rows.  The
    # product e * f is composed here as an image tuple, without
    # Permutation's bijection check, which would double the time:
    # (e * f)(x) = f(e(x)).
    G = bundled[name]
    elements = elements_of(G)
    index = {e.images: i for i, e in enumerate(elements)}
    sample = range(G.order) if G.order <= 256 else [*range(0, G.order, 97), G.order - 1]
    for i in sample:
        e = [x - 1 for x in elements[i].images]
        products = (tuple(f.images[x] for x in e) for f in elements)
        assert list(G.rows[i]) == list(map(index.__getitem__, products))
    assert list(G.inverses) == [index[e.inverse().images] for e in elements]


def test_cayley_table_of_the_trivial_group():
    G = closure([Permutation.identity(1)])
    assert G.order == 1 and G._parents == ((-1, -1),)
    assert G.mul(0, 0) == 0 and G.inv(0) == 0


def test_closure_stops_at_the_cayley_table_bound():
    # A 9-cycle and a transposition generate S9, of order 362,880; an
    # explicit budget above closure_limit(9) == isqrt(2^22) == 2,048, where
    # the Cayley table reaches MAX_CLOSURE_CELLS, is capped at it.
    s9 = [Permutation((*range(2, 10), 1)), Permutation((2, 1, *range(3, 10)))]
    with pytest.raises(BudgetExceeded, match="element budget of 2048 "):
        closure(s9, budget=10**6)


def test_closure_bounds_elements_times_degree(monkeypatch, bundled):
    # h768 closes on 768 points: 768 * 768 images, and as many table cells.
    # A corrupted file of that degree could otherwise fill 2,048 tuples of
    # 768 entries.
    gens = bundled["h768"].generators
    monkeypatch.setattr(perm, "MAX_CLOSURE_CELLS", 768 * 767)
    with pytest.raises(BudgetExceeded, match="element budget of 767 "):
        closure(gens)
    monkeypatch.setattr(perm, "MAX_CLOSURE_CELLS", 768 * 768)
    assert closure(gens).order == 768


def test_generator_indices(bundled, d4):
    for G in (d4, *bundled.values()):
        index = element_index(G)
        assert G.generator_indices == tuple(index[g] for g in G.generators)


def test_closure_with_identity_and_repeated_generators():
    r = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    G = closure([Permutation.identity(4), r, r])
    assert G.order == 4
    assert G.generator_indices[0] == 0
    assert G.generator_indices[1] == G.generator_indices[2] == element_index(G)[r]


def test_order_of_matches_cycle_orders(d4):
    for i in range(d4.order):
        assert d4.order_of(i) == elements_of(d4)[i].order()


def test_word_for_reconstructs_elements(d4):
    index = element_index(d4)
    for i in range(d4.order):
        acc = 0
        for c in d4.word_for(i):
            acc = d4.mul(acc, index[d4.generators[c]])
        assert acc == i


def test_trivial_subgroup(d4):
    sub = subgroup_generated(d4, [0])
    assert sub.order == 1 and sub.members == (0,)


def test_subgroup_lagrange(s4):
    for seed in range(s4.order):
        assert s4.order % subgroup_generated(s4, [seed]).order == 0


def test_cyclic_subgroup_from_order_scan(d4):
    order4 = [i for i in range(d4.order) if d4.order_of(i) == 4]
    sub = subgroup_generated(d4, [order4[0]])
    assert sub.order == 4


def test_derived_subgroup_abelian_is_trivial():
    z6 = closure([Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])])
    assert derived_subgroup(z6).order == 1


def test_derived_subgroup_d4_is_center(d4):
    der = derived_subgroup(d4)
    assert der.order == 2
    z = [m for m in der.members if m != 0][0]
    assert all(d4.mul(z, i) == d4.mul(i, z) for i in range(d4.order))


def test_derived_subgroup_matches_oracle_small(d4, s4):
    for G in (d4, s4):
        assert frozenset(derived_subgroup(G).members) == commutator_subgroup_members(G)


@pytest.mark.parametrize("name", BUNDLED)
def test_derived_subgroup_matches_oracle_bundled(bundled, name):
    G = bundled[name]
    assert frozenset(derived_subgroup(G).members) == commutator_subgroup_members(G)


def test_h768_derived_series_matches_oracle(bundled):
    current = bundled["h768"]
    orders = [current.order]
    while orders[-1] > 1:
        nxt = derived_subgroup(current)
        assert frozenset(nxt.members) == commutator_subgroup_members(current)
        orders.append(nxt.order)
        current = nxt
    assert orders == [768, 384, 128, 8, 1]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=719), min_size=1, max_size=3))
def test_derived_subgroup_of_random_s6_subgroup_matches_oracle(seeds):
    sub = subgroup_generated(S6, seeds)
    assert frozenset(derived_subgroup(sub).members) == commutator_subgroup_members(sub)


# Klein four-group <a, b> with a = (1 2), b = (3 4).
V4 = closure([Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(3, 4)])])
A, B = V4.generator_indices
AB = V4.mul(A, B)
S4 = closure([Permutation.from_cycles(4, [(1, 2)]),
              Permutation.from_cycles(4, [(1, 2, 3, 4)])])


def test_extend_homomorphism_rejects_non_homomorphic_matching():
    # a b = ab, but the images multiply to b, not to the image a of ab.
    with pytest.raises(ValidationError, match="injective homomorphism"):
        extend_homomorphism(V4, (A, B, AB), V4, (A, B, A))


def test_extend_homomorphism_rejects_non_injective_matching():
    # a -> a, b -> a is a homomorphism V4 -> V4 with kernel {1, ab}.
    with pytest.raises(ValidationError, match="injective homomorphism"):
        extend_homomorphism(V4, (A, B), V4, (A, A))
    z4 = closure([Permutation.from_cycles(4, [(1, 2, 3, 4)])])
    g = z4.generator_indices[0]
    with pytest.raises(ValidationError, match="injective homomorphism"):
        extend_homomorphism(z4, (g,), z4, (z4.mul(g, g),))


def test_extend_homomorphism_rejects_lists_of_different_lengths():
    # zip would cut (A, B, AB) short to (A, B) and accept the identity on V4.
    with pytest.raises(ValidationError, match="different lengths"):
        extend_homomorphism(V4, (A, B, AB), V4, (A, B))
    with pytest.raises(ValidationError, match="different lengths"):
        extend_homomorphism(V4, (A, B), V4, (A, B, AB))


def test_extend_homomorphism_on_a_subgroup_span(bundled):
    # Only <src_gens> is mapped: here the cyclic subgroup <x> of h768 onto
    # <x^-1>, by x^k -> x^-k.
    H = bundled["h768"]
    x = next(i for i in range(H.order) if H.order_of(i) == 8)
    img = extend_homomorphism(H, (x,), H, (H.inv(x),))
    powers = [0]
    for _ in range(7):
        powers.append(H.mul(powers[-1], x))
    assert img == {powers[k]: powers[-k % 8] for k in range(8)}


def _pair(s: Permutation, t: Permutation) -> Permutation:
    """(s, t) acting on 1..2n, s on the first n points and t on the rest."""
    n = s.degree
    return Permutation(s.images + tuple(n + y for y in t.images))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=23), min_size=5, max_size=5),
       st.booleans())
def test_extend_homomorphism_matches_graph_subgroup_oracle(picks, conjugate):
    # s_i -> t_i extends to a homomorphism on <s> exactly when the graph
    # subgroup <(s_i, t_i)> of S4 x S4 projects bijectively onto <s>, and it
    # is injective exactly when the projection onto <t> is bijective too.
    # Random targets rarely embed, so half the cases conjugate the sources.
    src_gens, g = picks[:2], picks[2]
    dst_gens = [S4.conj(g, s) for s in src_gens] if conjugate else picks[3:]
    elements = elements_of(S4)
    graph = closure([_pair(elements[s], elements[t]) for s, t in zip(src_gens, dst_gens)])
    span_s = subgroup_generated(S4, src_gens)
    embeds = graph.order == span_s.order == subgroup_generated(S4, dst_gens).order
    if not embeds:
        with pytest.raises(ValidationError, match="injective homomorphism"):
            extend_homomorphism(S4, src_gens, S4, dst_gens)
        return
    img = extend_homomorphism(S4, src_gens, S4, dst_gens)
    assert sorted(img) == list(span_s.members)
    assert len(set(img.values())) == len(img)
    for x in img:
        for y in img:
            assert img[S4.mul(x, y)] == S4.mul(img[x], img[y])


@st.composite
def matchings(draw):
    """A realized subgroup R of S4 or S5, its generators and as many targets
    in S5: R's own elements conjugated (an embedding), or random elements."""
    R = subgroup_as_group(subgroup_generated(
        SYMMETRIC[draw(st.sampled_from((4, 5)))],
        draw(st.lists(st.integers(0, 23), min_size=1, max_size=3))))
    S5 = SYMMETRIC[5]
    src_gens = R.generator_indices + tuple(draw(st.lists(st.integers(0, R.order - 1),
                                                         max_size=1)))
    if draw(st.booleans()):
        # R sits in S4 or S5; both are numbered in S5 through the permutations.
        index = element_index(S5)
        g = draw(st.integers(0, S5.order - 1))
        lifted = [index[Permutation(e.images + (5,) * (5 - R.degree))]
                  for e in elements_of(R, SYMMETRIC[R.degree])]
        dst_gens = [S5.conj(g, lifted[s]) for s in src_gens]
    else:
        dst_gens = draw(st.lists(st.integers(0, S5.order - 1), min_size=len(src_gens),
                                 max_size=len(src_gens)))
    return R, src_gens, S5, dst_gens


@seed(20191105)
@settings(max_examples=80, deadline=None)
@given(matchings())
@example((V4, (A, B, AB), V4, (A, B, A)))  # not well defined
@example((V4, (A, B), V4, (A, A)))  # well defined, not injective
def test_left_walk_embedding_matches_the_bfs_oracle(case):
    # The walk by left products img(s x) = t img(x) gives the map of the
    # oracle's right-product walk, or refuses exactly the matchings the
    # oracle refuses, with one error.
    src, src_gens, dst, dst_gens = case
    want = embedding_by_bfs(src, src_gens, dst, dst_gens)
    if want is None:
        with pytest.raises(ValidationError, match=re.escape(perm._NOT_AN_EMBEDDING)):
            extend_homomorphism(src, src_gens, dst, dst_gens)
        return
    got = extend_homomorphism(src, src_gens, dst, dst_gens)
    assert got == want
    assert first_broken_product(src, dst, got) is None


def test_homomorphisms_match_tuple_oracle(d4, s4):
    a, b = s4.generator_indices
    vector = (a, b, s4.inv(s4.mul(a, b)))  # product 1: the last image is forced
    cases = [
        (d4, d4.generator_indices, d4, range(d4.order)),
        (d4, d4.generator_indices, s4, range(s4.order)),
        (s4, s4.generator_indices, s4, range(s4.order)),
        (s4, vector, s4, range(s4.order)),
        (s4, (a, 0, a, b), s4, range(s4.order)),
        # Restricted pools, one given out of order and with repeats.
        (s4, vector, s4, range(0, s4.order, 2)),
        (d4, d4.generator_indices, s4, [23, 5, 17, 5, 2, 11, 8, 0, 14]),
    ]
    for src, gens, dst, pool in cases:
        want = homomorphisms_by_tuples(src, gens, dst, pool)
        assert list(homomorphisms(src, gens, dst, pool)) == want
        assert next(homomorphisms(src, gens, dst, pool), None) == (want[0] if want else None)
    assert len(list(homomorphisms(s4, vector, s4, range(s4.order)))) == 24


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=3),
       st.sets(st.integers(min_value=0, max_value=23), max_size=14),
       st.booleans())
def test_homomorphisms_match_tuple_oracle_random(picks, pool, to_d4):
    # Sources are random subgroups of S4 (the identity and repeats allowed);
    # targets are S4 or a dihedral group of order 8 inside it.
    dst = subgroup_as_group(subgroup_generated(S4, (1, 5))) if to_d4 else S4
    pool = [x for x in pool if x < dst.order]
    assert (list(homomorphisms(S4, picks, dst, pool))
            == homomorphisms_by_tuples(S4, picks, dst, pool))


def test_conjugacy_classes(d4):
    assert conjugacy_class(d4, 0) == frozenset({0})
    central = [i for i in range(1, d4.order)
               if all(d4.mul(i, j) == d4.mul(j, i) for j in range(d4.order))]
    assert conjugacy_class(d4, central[0]) == frozenset({central[0]})
    noncentral_invol = [i for i in range(d4.order)
                        if d4.order_of(i) == 2 and i not in central]
    assert len(conjugacy_class(d4, noncentral_invol[0])) == 2
    assert sum(len(c) for c in conjugacy_classes(d4)) == d4.order


def test_fingerprint_trivial_group():
    triv = closure([Permutation.identity(1)])
    fp = fingerprint(triv)
    assert fp.order == 1
    assert fp.element_orders == ((1, 1),)
    assert fp.abelianization == ()
    assert fp.derived_series == (1,)


def test_fingerprint_d4(d4):
    fp = fingerprint(d4)
    assert fp.order == 8
    assert fp.element_orders == ((1, 1), (2, 5), (4, 2))
    assert fp.abelianization == (2, 2)
    assert fp.derived_series == (8, 2, 1)
    assert fp.center_order == 2
    assert fp.class_count == 5


# (generators as cycle lists, order, abelianization as elementary divisors)
ABELIANIZATIONS = {
    "z12": ([[(1, 2, 3), (4, 5, 6, 7)]], 12, (3, 4)),
    "z4xz2": ([[(1, 2, 3, 4)], [(5, 6)]], 8, (2, 4)),
    "z2xz6": ([[(1, 2)], [(3, 4), (5, 6, 7)]], 12, (2, 2, 3)),
    "s4": ([[(1, 2)], [(1, 2, 3, 4)]], 24, (2,)),
    "q8": ([[(1, 2, 3, 4), (5, 6, 7, 8)], [(1, 5, 3, 7), (2, 8, 4, 6)]], 8, (2, 2)),
}


@pytest.mark.parametrize("name", sorted(ABELIANIZATIONS))
def test_fingerprint_abelianization(name):
    gens, order, abelianization = ABELIANIZATIONS[name]
    degree = max(x for cycles in gens for cycle in cycles for x in cycle)
    G = closure([Permutation.from_cycles(degree, cycles) for cycles in gens])
    assert G.order == order
    assert fingerprint(G).abelianization == abelianization
    assert abelianization_by_counting(G) == abelianization


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=719), min_size=1, max_size=3))
def test_abelianization_of_random_s6_subgroup_has_order_of_quotient(seeds):
    sub = subgroup_generated(S6, seeds)
    expected = sub.order // len(commutator_subgroup_members(sub))
    assert prod(fingerprint(subgroup_as_group(sub)).abelianization) == expected


def test_fingerprint_round_trip(d4):
    fp = fingerprint(d4)
    from mixedsurf.perm import GroupFingerprint
    assert GroupFingerprint.from_dict(fp.as_dict()) == fp


@seed(20191105)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 119), min_size=1, max_size=3))
def test_realization_positions_are_parent_indices(seeds):
    S5 = SYMMETRIC[5]
    sub = subgroup_generated(S5, seeds)
    G = subgroup_as_group(sub)
    elements = elements_of(S5)
    want = closure([elements[i] for i in sub.generators])
    assert [elements[i] for i in G.positions] == list(elements_of(want))
    assert sorted(G.positions) == list(sub.members)
    assert S5.positions is None  # a closure has no parent


def test_subgroup_as_group(s4):
    three_cycle = element_index(s4)[Permutation.from_cycles(4, [(1, 2, 3)])]
    sub = subgroup_generated(s4, [three_cycle])
    grp = subgroup_as_group(sub)
    assert grp.order == sub.order == 3


# subgroup_generated stops once it holds more than half of G (Lagrange);
# oracles.span_members walks every span to the end.

SYMMETRIC = {n: closure([Permutation.from_cycles(n, [(1, 2)]),
                         Permutation.from_cycles(n, [tuple(range(1, n + 1))])])
             for n in (4, 5, 6)}


def assert_span_matches_oracle(G: FiniteGroup, seeds) -> None:
    assert subgroup_generated(G, seeds).members == tuple(sorted(span_members(G, seeds)))


@st.composite
def subgroup_seeds(draw):
    """A subgroup of S4, S5 or S6 realized as a group, and seeds inside it."""
    Sn = SYMMETRIC[draw(st.sampled_from((4, 5, 6)))]
    outer = draw(st.lists(st.integers(0, Sn.order - 1), min_size=1, max_size=3))
    G = subgroup_as_group(subgroup_generated(Sn, outer))
    return G, draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(subgroup_seeds())
def test_span_matches_oracle_in_random_subgroups(drawn):
    assert_span_matches_oracle(*drawn)


# The product of the elementary divisors cannot tell (4,) from (2, 2); the
# counting oracle reads each divisor.  Z4 and Z2^2 in S4 are always drawn.

def s4_subgroup(*cycles) -> FiniteGroup:
    S4 = SYMMETRIC[4]
    index = element_index(S4)
    seeds = [index[Permutation.from_cycles(4, c)] for c in cycles]
    return subgroup_as_group(subgroup_generated(S4, seeds))


@settings(max_examples=25, deadline=None)
@given(subgroup_seeds())
@example((s4_subgroup([(1, 2, 3, 4)]), [0]))
@example((s4_subgroup([(1, 2), (3, 4)], [(1, 3), (2, 4)]), [0]))
def test_abelianization_matches_counting_oracle_in_random_subgroups(drawn):
    G, _ = drawn
    assert fingerprint(G).abelianization == abelianization_by_counting(G, SYMMETRIC[G.degree])


@pytest.mark.parametrize("name", ["g64", "g256a", "toy_z4_group"])
def test_abelianization_of_bundled_groups_matches_counting_oracle(bundled, name):
    G = bundled[name]
    assert fingerprint(G).abelianization == abelianization_by_counting(G)


@pytest.mark.parametrize("name", BUNDLED)
def test_span_of_bundled_seed_sets_matches_oracle(bundled, name):
    G = bundled[name]
    gens = G.generator_indices
    for seeds in (gens, gens[:1], gens[1:], [G.mul(a, b) for a in gens for b in gens]):
        assert_span_matches_oracle(G, seeds)


def test_span_of_index_two_subgroups_is_not_the_whole_group(s4, families):
    # Exactly half of G: the walk must not stop early and return G.
    three_cycles = [i for i in range(s4.order) if s4.order_of(i) == 3]
    cases = [(s4, three_cycles)]
    cases += [(bundle.surface.action.G0.parent, bundle.surface.action.G0.generators)
              for bundle in families.values()]
    for G, seeds in cases:
        assert_span_matches_oracle(G, seeds)
        assert 2 * subgroup_generated(G, seeds).order == G.order


def test_span_in_the_trivial_group():
    trivial = closure([Permutation.identity(3)])
    assert subgroup_generated(trivial, [0]).members == (0,)
    assert subgroup_generated(trivial, []).generators == (0,)


@pytest.mark.parametrize("n", [4, 5])
def test_span_passing_half_inside_a_layer_is_the_whole_group(n):
    # With S_n's two generators the BFS layer sizes add up to 11 -> 16 for
    # S4 (half is 12) and 46 -> 66 for S5 (half is 60).
    G = SYMMETRIC[n]
    sizes, span, frontier = [1], {0}, [0]
    while frontier:
        frontier = [y for y in dict.fromkeys(G.mul(x, c) for x in frontier
                                             for c in G.generator_indices) if y not in span]
        span.update(frontier)
        sizes.append(len(span))
    assert any(a <= G.order // 2 < b - 1 for a, b in zip(sizes, sizes[1:]))
    sub = subgroup_generated(G, G.generator_indices)
    assert sub.members == tuple(range(G.order))
    assert sub.generators == G.generator_indices
    assert_span_matches_oracle(G, G.generator_indices)


# subgroup_as_group hands closure's numbering walk the parent's Cayley table
# in place of the image tuples; it must give closure's group to the last index.

def assert_same_realization(sub, grandparent: FiniteGroup | None = None) -> FiniteGroup:
    """``grandparent`` is the group that ``sub.parent`` was realized in, if any."""
    got = subgroup_as_group(sub)
    elements = elements_of(sub.parent, grandparent)
    want = closure([elements[i] for i in sub.generators])
    assert [elements[i] for i in got.positions] == list(elements_of(want))
    assert got._parents == want._parents
    assert got._left_step == want._left_step
    assert got.generator_indices == want.generator_indices
    return got


@settings(max_examples=60, deadline=None)
@given(subgroup_seeds())
def test_table_realization_matches_closure_in_random_subgroups(drawn):
    G, seeds = drawn
    assert_same_realization(subgroup_generated(G, seeds), SYMMETRIC[G.degree])


def test_table_realization_matches_closure_on_pipeline_subgroups(bundled, families):
    assert assert_same_realization(derived_subgroup(bundled["h768"])).order == 384
    for k in (1, 2):
        assert_same_realization(families[k].surface.action.G0)


def test_table_realization_never_closes_image_tuples(monkeypatch, bundled, families):
    def refuse(*args, **kwargs):
        raise AssertionError("subgroup_as_group called closure")

    subs = [families[2].surface.action.G0, derived_subgroup(bundled["h768"])]
    monkeypatch.setattr(perm, "closure", refuse)
    for sub in subs:
        G = subgroup_as_group(sub)
        assert G.order == sub.order


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=3))
def test_random_subgroups_satisfy_lagrange(seeds):
    s4 = closure([Permutation.from_cycles(4, [(1, 2)]),
                  Permutation.from_cycles(4, [(1, 2, 3, 4)])])
    sub = subgroup_generated(s4, seeds)
    assert s4.order % sub.order == 0
    members = frozenset(sub.members)
    # closed under multiplication and inversion
    for a in sub.members[:6]:
        assert s4.inv(a) in members
        for b in sub.members[:6]:
            assert s4.mul(a, b) in members
    # membership by bisection over the sorted members
    assert [i in sub for i in range(-1, s4.order + 1)] == [
        i in members for i in range(-1, s4.order + 1)]


def assert_class_map_matches_oracle(G: FiniteGroup) -> None:
    # A realization drawn by subgroup_seeds is of S_n, n its degree.
    classes = conjugacy_classes_by_conjugation(G, parent=SYMMETRIC.get(G.degree))
    assert G.class_map.classes == tuple(classes)
    assert list(G.class_map.class_of) == [
        next(k for k, cls in enumerate(classes) if x in cls) for x in range(G.order)]
    assert conjugacy_classes(G) == classes
    assert all(conjugacy_class(G, x) in classes and x in conjugacy_class(G, x)
               for x in range(G.order))
    assert center_order(G) == sum(len(cls) == 1 for cls in classes)


@st.composite
def small_permutation_groups(draw):
    """A subgroup of S4..S7 of order at most 720: the span of one to three
    drawn permutations, or of the first alone when that span is larger."""
    n = draw(st.integers(4, 7))
    gens = [Permutation(tuple(images)) for images in draw(
        st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=3))]
    try:
        return closure(gens, budget=721)
    except BudgetExceeded:
        return closure(gens[:1])


@settings(max_examples=60, deadline=None)
@given(st.one_of(subgroup_seeds().map(lambda drawn: drawn[0]), small_permutation_groups()))
def test_class_map_matches_oracle_in_random_subgroups(G):
    assert_class_map_matches_oracle(G)


@pytest.mark.parametrize("name", ["toy_z4_group", "g64", "g256a", "g256b"])
def test_class_map_of_bundled_groups_matches_oracle(bundled, name):
    assert_class_map_matches_oracle(bundled[name])


@settings(max_examples=40, deadline=None)
@given(st.one_of(subgroup_seeds().map(lambda drawn: drawn[0]), small_permutation_groups()))
def test_derived_series_matches_oracle_in_random_subgroups(G):
    assert G.derived_series == derived_series_by_commutators(G)


@pytest.mark.parametrize("name", BUNDLED)
def test_derived_series_of_bundled_groups_matches_oracle(bundled, name):
    G = bundled[name]
    assert G.derived_series == derived_series_by_commutators(G)
    # The bundled groups are solvable: the series ends at the trivial group.
    assert fingerprint(G).derived_series == (G.order, *map(len, G.derived_series))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=23))
def test_conjugacy_is_equivalence(i, j):
    s4 = closure([Permutation.from_cycles(4, [(1, 2)]),
                  Permutation.from_cycles(4, [(1, 2, 3, 4)])])
    ci = conjugacy_class(s4, i)
    assert i in ci
    cj = conjugacy_class(s4, j)
    assert (ci == cj) or not (ci & cj)
