"""The row store against the eager Cayley table, and the readers that need no table.

A group builds a Cayley row on its first read: alone, with its missing BFS
ancestors; along its own BFS tree, for the whole table; or along another
group's tree mapped into it.  Every row built each way must equal the row
of the eager table, composed here from ``Permutation`` products of
:func:`oracles.elements_of`.  The class map, the element orders, the
derived series and the abelianization read only a few rows; on a fresh
group they must equal their oracles while the whole table is never built.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from mixedsurf import perm
from mixedsurf.coset import todd_coxeter
from mixedsurf.files import load_group_record, realize_group
from mixedsurf.perm import FiniteGroup, Permutation, closure, fingerprint, subgroup_generated
from mixedsurf.words import Presentation
from oracles import (abelianization_by_counting, conjugacy_classes_by_conjugation,
                     derived_series_by_commutators, elements_of)

BUNDLED = ("toy_z4_group", "g64", "g256a", "g256b", "h768")
# The (2,3,8) triangle-group quotient that make_data.py enumerates.
H768 = (("x", "y"), ["x^2", "y^3", "(x*y)^8", "(x*y*x*y*x*y^2)^4"])
# Natural actions: not regular, so closure searches them.
SEARCHED = {
    "S4": [Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(1, 2, 3, 4)])],
    "D4": [Permutation.from_cycles(4, [(1, 2, 3, 4)]), Permutation.from_cycles(4, [(1, 3)])],
}
GROUPS = (*BUNDLED, "todd_coxeter h768", *SEARCHED)
SYMMETRIC = {n: closure([Permutation.from_cycles(n, [(1, 2)]),
                         Permutation.from_cycles(n, [tuple(range(1, n + 1))])])
             for n in (4, 5)}


@pytest.fixture
def fresh(data_dir):
    """A new group of each name, with no row built but the identity's."""
    def make(name: str) -> FiniteGroup:
        if name == "todd_coxeter h768":
            return todd_coxeter(Presentation.parse(*H768))
        if name in SEARCHED:
            return closure(SEARCHED[name])
        return realize_group(load_group_record(data_dir / f"{name}.json"))
    return make


def built(G: FiniteGroup) -> set[int]:
    return {i for i, row in enumerate(G._rows) if row is not None}


def ancestors(G: FiniteGroup, elements, stop=frozenset()) -> set[int]:
    """The elements and their BFS ancestors, each walk up to the identity or
    to the first element in ``stop``: the rows a read of ``elements`` builds
    when the rows in ``stop`` are built."""
    out = {0}
    for i in elements:
        while i not in out and i not in stop:
            out.add(i)
            i = G._parents[i][0]
    return out


def sample(G: FiniteGroup) -> list[int]:
    """Every element up to order 64; past that every 17th, or every 97th past
    order 256, and the last."""
    if G.order <= 64:
        return list(range(G.order))
    return [*range(0, G.order, 17 if G.order <= 256 else 97), G.order - 1]


def eager_rows(G: FiniteGroup, rows, parent: FiniteGroup | None = None) -> dict[int, list[int]]:
    """Rows of the eager Cayley table by permutation products,
    (e * f)(x) == f(e(x)), looked up by image tuple."""
    elements = elements_of(G, parent)
    index = {e.images: i for i, e in enumerate(elements)}
    out = {}
    for i in rows:
        e = [x - 1 for x in elements[i].images]
        out[i] = [index[tuple(f.images[x] for x in e)] for f in elements]
    return out


@pytest.mark.parametrize("name", GROUPS)
def test_rows_built_singly_equal_the_eager_table(fresh, name):
    G = fresh(name)
    want = eager_rows(G, sample(G))
    order = list(want)
    random.Random(0).shuffle(order)
    got = {i: list(G.row(i)) for i in order}
    assert got == want
    assert {row.typecode for row in map(G.row, order)} == {"H"}
    # Each read builds its row and its missing BFS ancestors, nothing else.
    assert built(G) == ancestors(G, order)
    assert "rows" not in vars(G)


@pytest.mark.parametrize("name", GROUPS)
def test_rows_built_along_the_bfs_tree_equal_the_eager_table(fresh, name):
    G = fresh(name)
    early = random.Random(1).sample(range(G.order), min(5, G.order))
    before = [list(G.row(i)) for i in early]
    rows = G.rows
    assert len(rows) == G.order and built(G) == set(range(G.order))
    assert all(rows[i] is G.row(i) for i in range(G.order))
    assert {i: list(rows[i]) for i in sample(G)} == eager_rows(G, sample(G))
    assert before == [list(rows[i]) for i in early]


@pytest.mark.parametrize("name", ["g64", "g256a", "h768", "todd_coxeter h768", "S4"])
def test_rows_built_along_a_subgroups_tree_equal_the_eager_table(fresh, name):
    G = fresh(name)
    gens = G.generator_indices
    seeds = [G.mul(a, b) for a in gens for b in gens[:2]]
    # A proper subgroup: the span of the seeds when that is one, else the
    # derived subgroup, else the first generator alone.
    sub = subgroup_generated(G, seeds)
    if sub.order == G.order:
        sub = perm.derived_subgroup(G)
    if sub.order in (1, G.order):
        sub = subgroup_generated(G, gens[:1])
    tree = perm._realize_subgroup(G, sub.generators)
    images = [tree.positions[g] for g in tree.generator_indices]
    before = built(G)
    rows = G.rows_at(tree.positions, tree, images)
    # The walk builds the rows of the subgroup's members, and those of its
    # generators' images with their BFS ancestors; no others.
    assert built(G) - before <= set(sub.members) | ancestors(G, images)
    assert set(sub.members) <= built(G)
    want = eager_rows(G, [x for x in sample(G) if x in sub] + list(sub.generators))
    assert {x: list(rows[tree.positions.index(x)]) for x in want} == want
    assert "rows" not in vars(G)


@st.composite
def realizations(draw):
    """A fresh realization R of a subgroup of S4 or S5, with a subgroup T of
    R realized in R, and some elements of R."""
    Sn = SYMMETRIC[draw(st.sampled_from((4, 5)))]
    outer = draw(st.lists(st.integers(0, Sn.order - 1), min_size=1, max_size=3))
    R = perm._realize_subgroup(Sn, subgroup_generated(Sn, outer).generators)
    inner = draw(st.lists(st.integers(0, R.order - 1), min_size=1, max_size=2))
    T = perm._realize_subgroup(R, subgroup_generated(R, inner).generators)
    # A fresh R again: realizing T read R's rows at T's generators.
    R = perm._realize_subgroup(Sn, subgroup_generated(Sn, outer).generators)
    singles = draw(st.lists(st.integers(0, R.order - 1), max_size=6))
    return Sn, R, T, singles


@seed(20191105)
@settings(max_examples=40, deadline=None)
@given(realizations())
def test_rows_of_random_realizations_equal_the_eager_table(drawn):
    Sn, R, T, singles = drawn
    want = eager_rows(R, range(R.order), Sn)
    images = [T.positions[g] for g in T.generator_indices]
    along_tree = R.rows_at(T.positions, T, images)
    assert built(R) == set(T.positions) | ancestors(R, images)
    assert [list(row) for row in along_tree] == [want[x] for x in T.positions]
    before = built(R)
    assert {i: list(R.row(i)) for i in singles} == {i: want[i] for i in singles}
    assert built(R) == before | ancestors(R, singles, before)
    assert [list(row) for row in R.rows] == [want[i] for i in range(R.order)]


def classes_by_table(G: FiniteGroup) -> list[frozenset[int]]:
    """The conjugacy classes, ordered by least member, each {g x g^-1 : g in G}
    read off the whole table as (g x) g^-1."""
    rows, inv, classes, seen = G.rows, G.inverses, [], set()
    for x in range(G.order):
        if x not in seen:
            cls = frozenset(rows[rows[g][x]][inv[g]] for g in range(G.order))
            seen |= cls
            classes.append(cls)
    return classes


@pytest.mark.parametrize("name", GROUPS)
def test_table_free_readers_match_their_oracles(fresh, name):
    G = fresh(name)
    classes, orders = G.class_map.classes, G.orders
    series, abelianization = G.derived_series, fingerprint(G).abelianization
    assert "rows" not in vars(G)
    if G.order > 256:
        assert len(built(G)) < G.order // 4
    # The oracles compose permutations or read the whole table; composing
    # every conjugate in h768 takes seconds, so there the table is read.
    elements = elements_of(G)
    if G.order <= 256:
        assert list(classes) == conjugacy_classes_by_conjugation(G)
        assert abelianization == abelianization_by_counting(G)
    else:
        assert list(classes) == classes_by_table(G)
    assert orders == [e.order() for e in elements]
    assert series == derived_series_by_commutators(G)
