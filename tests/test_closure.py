"""``perm.closure`` against the right-product closure in ``oracles``.

The library searches by left products, keeps their steps and derives its
right steps and BFS parents from them; the oracle composes every right
product directly and walks the left steps along its parents.  Both must
give the same group to the last index, and stop at the same budgets.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedsurf.coset import todd_coxeter
from mixedsurf.errors import BudgetExceeded
from mixedsurf.files import load_group_record
from mixedsurf.perm import FiniteGroup, Permutation, closure
from mixedsurf.words import Presentation
from oracles import right_product_closure

BUNDLED = ("g64", "g256a", "g256b", "h768", "toy_z4_group")


def assert_same_closure(gens) -> FiniteGroup:
    got, want = closure(gens), right_product_closure(gens)
    assert [e.images for e in got.elements] == [e.images for e in want.elements]
    assert got.index == want.index
    assert got._parents == want._parents
    assert got._gen_step == want._gen_step
    assert got._left_step == want._left_step
    assert got.generator_indices == want.generator_indices
    return got


def assert_same_budgets(gens, order: int):
    # The closure may hold `budget` elements and no more.
    for build in (closure, right_product_closure):
        with pytest.raises(BudgetExceeded):
            build(gens, budget=order - 1)
        assert build(gens, budget=order).order == order


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_groups_match_oracle(data_dir, name):
    gens = load_group_record(data_dir / f"{name}.json").generators
    G = assert_same_closure(gens)
    assert_same_budgets(gens, G.order)


@pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
def test_g0_realizations_match_oracle(families, family):
    sub = families[family].surface.action.G0
    gens = tuple(sub.parent.element(i) for i in sub.generators)
    G0 = assert_same_closure(gens)
    assert G0.order == sub.order


def test_todd_coxeter_h768_matches_oracle():
    pres = Presentation.parse(("x", "y"), ["x^2", "y^3", "(x*y)^8", "(x*y*x*y*x*y^2)^4"])
    H = todd_coxeter(pres)
    assert assert_same_closure(H.generators).order == 768


@st.composite
def generator_lists(draw):
    """Generators in S_2..S_6, with repeats and the identity allowed."""
    degree = draw(st.integers(min_value=2, max_value=6))
    pool = draw(st.lists(st.permutations(range(1, degree + 1)), min_size=1, max_size=3))
    pool.append(list(range(1, degree + 1)))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    return [Permutation(tuple(p)) for p in picks]


@settings(max_examples=60, deadline=None)
@given(generator_lists())
@example([Permutation.identity(0)] * 2)
@example([Permutation.identity(1)])
def test_random_generator_lists_match_oracle(gens):
    G = assert_same_closure(gens)
    if G.order > 1:
        assert_same_budgets(gens, G.order)

