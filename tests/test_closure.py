"""``perm.closure`` against the right-product closure in ``oracles``.

The library finds the elements by left products and keeps their steps in
the order it finds them; ``perm._number`` then numbers the group from those
steps alone, layer by layer, and derives the right steps and BFS parents.
The oracle composes every right product directly and walks the left steps
along its parents.  Both must give the same group to the last index, and
stop at the same budgets.

A regular group is closed by a centralizer certificate instead of the
search (``perm._regular_steps``), which composes no image tuple; it must give
the same group, and fall through to the search on any other input.  The
calls to the search are read by recording them.

The library tells products apart during its search by a prefix of the
images that it widens on a collision (``perm._wider``), the oracle by the
whole image tuple.  The library's group keeps only the final prefixes, as
sort keys for its realizations: they must be distinct prefixes of the
oracle's images, so that they sort as the images do.  The widths are read
by recording what ``_wider`` returns.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedsurf import perm
from mixedsurf.coset import todd_coxeter
from mixedsurf.errors import BudgetExceeded
from mixedsurf.files import load_group_record
from mixedsurf.perm import FiniteGroup, Permutation, closure
from mixedsurf.words import Presentation
from oracles import elements_of, right_product_closure

BUNDLED = ("g64", "g256a", "g256b", "h768", "toy_z4_group")


def assert_same_closure(gens) -> FiniteGroup:
    got, (want, images) = closure(gens), right_product_closure(gens)
    assert [e.images for e in elements_of(got)] == images
    keys = got._keys
    assert len(set(keys)) == len(keys)
    assert all(im[:len(key)] == key for key, im in zip(keys, images))
    assert got._parents == want._parents
    assert got._left_step == want._left_step
    assert got.generator_indices == want.generator_indices
    return got


def assert_same_budgets(gens, order: int):
    # The closure may hold `budget` elements and no more.
    for build in (closure, lambda gens, budget: right_product_closure(gens, budget)[0]):
        with pytest.raises(BudgetExceeded):
            build(gens, budget=order - 1)
        assert build(gens, budget=order).order == order


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_groups_match_oracle(data_dir, name):
    gens = load_group_record(data_dir / f"{name}.json").generators
    G = assert_same_closure(gens)
    assert_same_budgets(gens, G.order)


def g0_generators(families, family) -> tuple[Permutation, ...]:
    sub = families[family].surface.action.G0
    elements = elements_of(sub.parent)
    return tuple(elements[i] for i in sub.generators)


@pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
def test_g0_realizations_match_oracle(families, family):
    G0 = assert_same_closure(g0_generators(families, family))
    assert G0.order == families[family].surface.action.G0.order


def test_a_closed_group_holds_no_element_images(data_dir):
    # h768's elements as 768 tuples of 768 images would hold about 4.7 MB;
    # its parents, left steps and one-point keys hold a few hundred kB.
    gens = load_group_record(data_dir / "h768.json").generators
    tracemalloc.start()
    try:
        G = closure(gens)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.order == 768
    assert held < 1 << 20, held


def todd_coxeter_h768() -> FiniteGroup:
    pres = Presentation.parse(("x", "y"), ["x^2", "y^3", "(x*y)^8", "(x*y*x*y*x*y^2)^4"])
    return todd_coxeter(pres)


def test_todd_coxeter_h768_matches_oracle():
    assert assert_same_closure(todd_coxeter_h768().generators).order == 768


@pytest.mark.parametrize("name", [*BUNDLED, "todd_coxeter_h768"])
def test_a_group_realized_by_its_own_generators_is_itself(data_dir, name):
    # Closure and realization number a group by one walk: realizing G in
    # itself from its generators gives G's numbering back, index for index.
    if name == "todd_coxeter_h768":
        G = todd_coxeter_h768()
    else:
        G = closure(load_group_record(data_dir / f"{name}.json").generators)
    gens = G.generator_indices
    assert 0 not in gens and len(set(gens)) == len(gens)
    sub = perm.subgroup_generated(G, gens)
    assert sub.generators == gens
    R = perm.subgroup_as_group(sub)
    assert R.positions == tuple(range(G.order))
    assert R._parents == G._parents
    assert R._left_step == G._left_step
    assert R._keys == G._keys


@pytest.fixture
def widths(monkeypatch) -> list[int]:
    """Every key width that closure widens to, in call order."""
    seen: list[int] = []
    wider = perm._wider

    def recorded(width, a, b):
        seen.append(wider(width, a, b))
        return seen[-1]

    monkeypatch.setattr(perm, "_wider", recorded)
    return seen


@pytest.fixture
def searches(monkeypatch) -> list[int]:
    """The number of generators of every group that closure searches."""
    seen: list[int] = []
    search = perm._search

    def recorded(gens, budget):
        seen.append(len(gens))
        return search(gens, budget)

    monkeypatch.setattr(perm, "_search", recorded)
    return seen


def test_pipeline_groups_keep_the_one_point_key(data_dir, families, widths, searches):
    # Every group the pipeline realizes acts semiregularly, so the image of
    # point 1 already tells its elements apart.  A change that widens the
    # key on these groups would slow every run without failing elsewhere.
    # The bundled group files and Todd-Coxeter's h768 are regular
    # representations, closed by the certificate with no search: a silent
    # fall-through to the search would slow every run the same way.
    groups = [closure(load_group_record(data_dir / f"{name}.json").generators)
              for name in BUNDLED]
    groups.append(todd_coxeter_h768())
    assert searches == []
    groups += [closure(g0_generators(families, k)) for k in (1, 2, 3, 4, 5)]
    assert len(searches) == 5
    assert widths == []
    for G in groups:
        assert {row.typecode for row in G.rows} == {"H"}


def shifted(lead: int, images) -> Permutation:
    """``images`` moved up by ``lead`` points, with points 1..lead fixed."""
    return Permutation((*range(1, lead + 1), *(x + lead for x in images)))


def test_prefix_widens_past_fixed_points(widths):
    # S4 on points 6..9 of degree 9: every element fixes 1..5, so the key
    # must reach point 6 at least.
    gens = [shifted(5, (2, 3, 4, 1)), shifted(5, (2, 1, 3, 4))]
    G = assert_same_closure(gens)
    assert G.order == 24 and widths[-1] >= 6
    assert_same_budgets(gens, 24)


def test_prefix_widens_across_disjoint_blocks(widths):
    # Z2 x Z3 on {1, 2} and {3, 4, 5}, fixing 6..8: point 1 tells only the
    # Z2 part, and the key stops at three points, short of the degree.
    gens = [Permutation((2, 1, 3, 4, 5, 6, 7, 8)), Permutation((1, 2, 4, 5, 3, 6, 7, 8))]
    G = assert_same_closure(gens)
    assert G.order == 6 and widths[-1] == 3
    assert_same_budgets(gens, 6)


def test_prefix_on_s5_takes_four_points(widths):
    # Three images leave a transposition of the last two points free.
    gens = [Permutation((2, 3, 4, 5, 1)), Permutation((2, 1, 3, 4, 5))]
    G = assert_same_closure(gens)
    assert G.order == 120 and widths[-1] >= 4
    assert_same_budgets(gens, 120)


@st.composite
def generator_lists(draw):
    """Generators in S_2..S_6 moved past fixed leading points, in degree at
    most 10, with repeats and the identity allowed."""
    degree = draw(st.integers(min_value=2, max_value=6))
    lead = draw(st.integers(min_value=0, max_value=10 - degree))
    pool = draw(st.lists(st.permutations(range(1, degree + 1)), min_size=1, max_size=3))
    pool.append(list(range(1, degree + 1)))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    return [shifted(lead, p) for p in picks]


@settings(max_examples=60, deadline=None)
@given(generator_lists())
@example([Permutation.identity(0)] * 2)
@example([Permutation.identity(1)])
def test_random_generator_lists_match_oracle(gens):
    G = assert_same_closure(gens)
    if G.order > 1:
        assert_same_budgets(gens, G.order)


# Small groups as image tuples, each on its natural points.
CYCLES = {
    "S3": (3, [[(1, 2, 3)], [(1, 2)]]),
    "D4": (4, [[(1, 2, 3, 4)], [(1, 3)]]),
    "Q8": (8, [[(1, 2, 3, 4), (5, 6, 7, 8)], [(1, 5, 3, 7), (2, 8, 4, 6)]]),
    "Z2xZ4": (6, [[(1, 2)], [(3, 4, 5, 6)]]),
    "A4": (4, [[(1, 2, 3)], [(1, 2), (3, 4)]]),
    "S4": (4, [[(1, 2, 3, 4)], [(1, 2)]]),
}
NATURAL = {name: [Permutation.from_cycles(n, c) for c in cycles]
           for name, (n, cycles) in CYCLES.items()}


def regular_representation(gens, seed: int) -> list[Permutation]:
    """The right regular representation of <gens>, its points shuffled by
    ``seed``: point ``label[i]`` is the i-th element found, and g maps it to
    the point of e_i * g.  Built from image tuples, with no call into perm."""
    ident = tuple(range(1, gens[0].degree + 1))
    elements, index = [ident], {ident: 0}
    for e in elements:
        for g in gens:
            prod = tuple(g.images[x - 1] for x in e)
            if prod not in index:
                index[prod] = len(elements)
                elements.append(prod)
    label = list(range(1, len(elements) + 1))
    random.Random(seed).shuffle(label)
    out = []
    for g in gens:
        images = [0] * len(elements)
        for i, e in enumerate(elements):
            images[label[i] - 1] = label[index[tuple(g.images[x - 1] for x in e)]]
        out.append(Permutation(tuple(images)))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", NATURAL)
def test_regular_representations_take_the_certificate(name, seed, searches):
    gens = regular_representation(NATURAL[name], seed)
    G = assert_same_closure(gens)
    assert G.order == gens[0].degree
    assert_same_budgets(gens, G.order)
    assert searches == []


@pytest.mark.parametrize("name", ["S3", "D4", "A4", "S4"])
def test_transitive_groups_that_are_not_regular_are_searched(name, searches):
    # Each acts on its natural points, transitively, with a nontrivial
    # point stabilizer: the certificate fails and the search closes it.
    gens = NATURAL[name]
    G = assert_same_closure(gens)
    assert G.order > gens[0].degree
    assert_same_budgets(gens, G.order)
    assert searches


def test_identity_and_repeated_generators_take_the_certificate(searches):
    s, r = regular_representation(NATURAL["S4"], 3)
    gens = [Permutation.identity(24), s, s, r, Permutation.identity(24), r]
    G = assert_same_closure(gens)
    assert G.order == 24
    assert_same_budgets(gens, 24)
    assert searches == []


def test_the_trivial_group_on_one_point_takes_the_certificate(searches):
    assert assert_same_closure([Permutation.identity(1)]).order == 1
    assert searches == []


def test_more_generators_than_points_are_searched(searches):
    # Z3 on 3 points is regular, but four generators are more than three
    # points: the search is cheaper than the certificate's n * k^2 reads.
    c = Permutation((2, 3, 1))
    gens = [c, c * c, Permutation.identity(3), c]
    G = assert_same_closure(gens)
    assert G.order == 3
    assert_same_budgets(gens, 3)
    assert searches


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(NATURAL)), st.integers(0, 2**16),
       st.lists(st.integers(0, 63), min_size=1, max_size=4))
def test_elements_of_a_regular_representation_match_oracle(name, seed, picks):
    # Elements of a regular representation span a subgroup that acts
    # semiregularly: regular when it is the whole group, intransitive
    # otherwise, where the certificate's walk misses a point.
    G = closure(regular_representation(NATURAL[name], seed))
    elements = elements_of(G)
    gens = [elements[k % G.order] for k in picks]
    H = assert_same_closure(gens)
    if H.order > 1:
        assert_same_budgets(gens, H.order)
