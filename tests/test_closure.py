"""``perm.closure`` against the right-product closure in ``oracles``.

The library searches by left products, keeps their steps and derives its
right steps and BFS parents from them; the oracle composes every right
product directly and walks the left steps along its parents.  Both must
give the same group to the last index, and stop at the same budgets.

The library tells products apart during its walk by a prefix of the
images that it widens on a collision (``perm._wider``), the oracle by the
whole image tuple.  The library's group keeps only the final prefixes, as
sort keys for its realizations: they must be distinct prefixes of the
oracle's images, so that they sort as the images do.  The widths are read
by recording what ``_wider`` returns.
"""

from __future__ import annotations

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


def test_pipeline_groups_keep_the_one_point_key(data_dir, families, widths):
    # Every group the pipeline realizes acts semiregularly, so the image of
    # point 1 already tells its elements apart.  A change that widens the
    # key on these groups would slow every run without failing elsewhere.
    groups = [closure(load_group_record(data_dir / f"{name}.json").generators)
              for name in BUNDLED]
    groups += [closure(g0_generators(families, k)) for k in (1, 2, 3, 4, 5)]
    groups.append(todd_coxeter_h768())
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

