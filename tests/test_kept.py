"""The keep rule of ``FiniteGroup.kept``, the shared helper ``perm.keep``:
nothing is kept on a first request, the same object is returned from the
second on, a failure is never kept, and no kept value refers back to its
group."""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest

from mixedsurf import covering
from mixedsurf.covering import CoverType, GeneratingVector, covering_data, generating_vectors
from mixedsurf.errors import ValidationError
from mixedsurf.perm import Permutation, closure, subgroup_as_group, subgroup_generated
from oracles import element_index, elements_of

S4_TYPE = CoverType(0, (2, 3, 4))


def fresh_s4():
    """A new S4 object each call, so no test shares its kept values."""
    return closure([Permutation.from_cycles(4, [(1, 2)]),
                    Permutation.from_cycles(4, [(1, 2, 3, 4)])])


@contextmanager
def collector_off():
    """Only reference counting frees objects inside: a value that outlives
    its last reference is held by something, not waiting for a collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def a4_of(G):
    """S4's subgroup A4, spanned by two 3-cycles."""
    index = element_index(G)
    c1 = index[Permutation.from_cycles(4, [(1, 2, 3)])]
    c2 = index[Permutation.from_cycles(4, [(2, 3, 4)])]
    return subgroup_generated(G, [c1, c2])


def test_a_one_shot_realization_is_not_kept():
    G = fresh_s4()
    sub = a4_of(G)
    with collector_off():
        ref = weakref.ref(subgroup_as_group(sub))
        assert ref() is None


def test_a_realization_is_kept_from_its_second_request():
    G = fresh_s4()
    sub = a4_of(G)
    first, second, third = (subgroup_as_group(sub) for _ in range(3))
    assert first is not second
    assert second is third
    assert subgroup_as_group(a4_of(G)) is second  # the key is the generators
    assert elements_of(first, G) == elements_of(second, G)
    assert third.order == 12


def test_a_kept_realization_shares_its_parents_keys():
    # Its layer-sort keys are the parent's key objects, not copies.
    G = fresh_s4()
    sub = a4_of(G)
    subgroup_as_group(sub)
    kept = subgroup_as_group(sub)
    assert kept is subgroup_as_group(sub)
    assert sorted(kept.positions) == list(sub.members)
    assert all(k is G._keys[p] for k, p in zip(kept._keys, kept.positions, strict=True))


def test_a_kept_realization_keeps_plain_parent_positions():
    with collector_off():
        G = fresh_s4()
        sub = a4_of(G)
        subgroup_as_group(sub)
        A4 = subgroup_as_group(sub)
        assert subgroup_as_group(sub) is A4
        elements = elements_of(G)
        want = closure([elements[i] for i in sub.generators])
        assert [elements[p] for p in A4.positions] == list(elements_of(want))
        assert {type(i) for i in A4.positions} == {int}
        group_ref, a4_ref = weakref.ref(G), weakref.ref(A4)
        del G, sub, A4
        assert group_ref() is None
        assert a4_ref() is None


def test_each_subgroup_is_kept_under_its_own_generators():
    G = fresh_s4()
    a4, c4 = a4_of(G), subgroup_generated(G, [G.generator_indices[1]])
    realized = [subgroup_as_group(sub) for sub in (a4, c4, a4, c4)]  # two requests each
    assert [h.order for h in realized] == [12, 4, 12, 4]
    assert subgroup_as_group(a4) is realized[2]
    assert subgroup_as_group(c4) is realized[3]


def test_a_refused_vector_raises_on_every_request(monkeypatch):
    G = fresh_s4()
    v = next(generating_vectors(G, S4_TYPE))
    bad = v._replace(entries=(v.entries[0], v.entries[0], v.entries[2]))
    validated = []
    validate = covering.validate_generating_vector
    monkeypatch.setattr(covering, "validate_generating_vector",
                        lambda u: (validated.append(u.entries), validate(u))[1])
    for _ in range(4):
        with pytest.raises(ValidationError, match="^invalid generating vector: "):
            covering_data(bad)
    assert validated == [bad.entries] * 4
    for _ in range(3):  # a good vector of the same group is still kept
        covering_data(v)
    assert validated == [bad.entries] * 4 + [v.entries] * 2


def test_a_kept_cover_equals_a_fresh_one_and_the_callers_vector_is_used():
    G = fresh_s4()
    v = next(generating_vectors(G, S4_TYPE))
    covers = [covering_data(GeneratingVector(G, S4_TYPE, v.entries)) for _ in range(3)]
    assert covers[1].sigma_v is covers[2].sigma_v
    assert covers[1].fix_table is covers[2].fix_table
    assert covers[2].vector is not covers[1].vector
    fresh = covering_data(next(generating_vectors(fresh_s4(), S4_TYPE)))
    assert fresh.vector.entries == covers[2].vector.entries
    assert fresh[1:] == covers[2][1:]
    assert covers[2].genus == 0  # S4 on the sphere: the octahedral group


def test_a_dropped_group_is_freed_with_what_it_keeps():
    with collector_off():
        G = fresh_s4()
        sub = a4_of(G)
        for _ in range(3):
            cover = covering_data(next(generating_vectors(G, S4_TYPE)))
            A4 = subgroup_as_group(sub)
        assert subgroup_as_group(sub) is A4
        group_ref, a4_ref = weakref.ref(G), weakref.ref(A4)
        del G, sub, cover, A4
        assert group_ref() is None
        assert a4_ref() is None
