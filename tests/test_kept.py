"""The keep rule of ``FiniteGroup.kept``, the shared helper ``perm.keep``:
nothing is kept on a first request, the same object is returned from the
second on, a failure is never kept, and no kept value refers back to its
group.  It holds for each value a group keeps: a subgroup's realization, a
cover, G0's span, H's induced tower and a word's element index."""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

import mixedsurf
from mixedsurf import covering, files, surface
from mixedsurf.covering import CoverType, GeneratingVector, covering_data, generating_vectors
from mixedsurf.errors import ValidationError, WordSyntaxError
from mixedsurf.files import build_surface, element_word, load_group_record, realize_group
from mixedsurf.perm import Permutation, closure, subgroup_as_group, subgroup_generated
from mixedsurf.surface import (TRIANGLE_TYPE, assemble_surface, attach_covering_group,
                               derive_induced_vectors)
from oracles import element_index, elements_of

S4_TYPE = CoverType(0, (2, 3, 4))
DATA = Path(mixedsurf.__file__).with_name("data")


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
    g_side = build_surface(DATA / "family2.json", use_extra=False)
    with collector_off():
        G = fresh_s4()
        sub = a4_of(G)
        Z4, H = fresh_group("toy_z4_group.json"), fresh_group("h768.json")
        for _ in range(3):
            cover = covering_data(next(generating_vectors(G, S4_TYPE)))
            A4 = subgroup_as_group(sub)
            toy = toy_side(Z4)
            attached = attach_covering_group(g_side, H, triangle_vector(H))
        assert subgroup_as_group(sub) is A4
        assert kept_tags(Z4) == ["span", "subgroup", "word", "word"]
        assert kept_tags(H) == ["cover", "tower", "word", "word", "word"]
        refs = [weakref.ref(x) for x in (G, A4, Z4, H)]
        del G, sub, cover, A4, Z4, toy, H, attached
        assert [ref() for ref in refs] == [None] * 4


# ----------------------------------------------------------------------
# G0's span, H's induced tower and a word, each kept by its group

def fresh_group(name: str):
    """A new object each call for the bundled group file ``name``."""
    return realize_group(load_group_record(DATA / name))


def kept_tags(G) -> list[str]:
    """The tags of the keys G keeps values under, sorted."""
    return sorted(key[0] for key in G._kept)


def toy_side(Z4):
    """toy_z4.json's G side on Z4: G0 = <g1^2>, tau' = g1, vector (g1^2)^8."""
    record = files.load_surface_record(DATA / "toy_z4.json")
    tau_prime, square = (files.resolve_word(Z4, w)
                         for w in (record.tau_prime, *record.g0_generators))
    return assemble_surface(Z4, [square], tau_prime, [square] * 8, record.cover_type)


def triangle_vector(H) -> tuple[int, ...]:
    """family2.json's [0;2,3,8] vector of h768."""
    record = files.load_surface_record(DATA / "family2.json")
    return tuple(files.resolve_word(H, w) for w in record.extra.vector)


def _spy(monkeypatch, module, name: str, record) -> list:
    """Wrap ``module.name`` so that each call first appends ``record(*args)``
    to the returned list."""
    seen, original = [], getattr(module, name)

    def spied(*args):
        seen.append(record(*args))
        return original(*args)

    monkeypatch.setattr(module, name, spied)
    return seen


def test_a_span_is_kept_from_its_second_request(monkeypatch):
    walks = _spy(monkeypatch, surface, "subgroup_generated", lambda G, seeds: seeds)
    Z4 = fresh_group("toy_z4_group.json")
    spans = []
    for n in range(4):
        spans.append(toy_side(Z4).action.G0)
        if n == 0:
            assert kept_tags(Z4) == []
    assert len(walks) == 2
    assert spans[1].members is spans[2].members is spans[3].members
    assert spans[1].generators is spans[2].generators is spans[3].generators
    assert all(G0.parent is Z4 for G0 in spans)
    fresh = toy_side(fresh_group("toy_z4_group.json")).action.G0
    assert [G0[1:] for G0 in spans] == [fresh[1:]] * 4 == [((0, 2), (2,))] * 4


def test_a_tower_is_kept_from_its_second_request(monkeypatch):
    g_side = build_surface(DATA / "family2.json", use_extra=False)
    derived = _spy(monkeypatch, surface, "derive_induced_vectors", lambda cover: cover)
    targets = _spy(monkeypatch, surface, "transport_embedding",
                   lambda src, src_gens, dst, dst_gens: dst_gens)
    H = fresh_group("h768.json")
    abc = triangle_vector(H)
    for n in range(4):
        attach_covering_group(g_side, H, abc)
        if n == 0:
            assert kept_tags(H) == []
    assert len(derived) == 2
    assert targets[1] is targets[2] is targets[3]
    assert kept_tags(H) == ["cover", "tower"]
    F = fresh_group("h768.json")
    fresh = derive_induced_vectors(covering_data(GeneratingVector(F, TRIANGLE_TYPE, abc)))
    assert targets == [fresh.second] * 4


def test_a_refused_tower_raises_on_every_request(monkeypatch):
    # With [H,H] taken to be H, the induced [0;3,3,4] vector spans too little.
    g_side = build_surface(DATA / "family2.json", use_extra=False)
    walks = _spy(monkeypatch, surface, "subgroup_generated", lambda G, seeds: G)
    H = fresh_group("h768.json")
    abc = triangle_vector(H)
    H.__dict__["derived_series"] = (tuple(range(H.order)),) + H.derived_series[1:]
    for _ in range(4):
        with pytest.raises(ValidationError, match=r"^induced \[0;3,3,4\] vector does not "):
            attach_covering_group(g_side, H, abc)
    assert walks == [H] * 4  # the first generation check, on every request
    assert kept_tags(H) == ["cover"]


def test_a_word_is_kept_from_its_second_request(monkeypatch):
    parsed = _spy(monkeypatch, files, "parse_word", lambda text, alphabet: text)
    H = fresh_group("h768.json")
    text = element_word(H, 700)
    indices = []
    for n in range(4):
        indices.append(files.resolve_word(H, text))
        if n == 0:
            assert kept_tags(H) == []
    assert parsed == [text] * 2
    assert indices[1] is indices[2] is indices[3]
    assert indices == [files.resolve_word(fresh_group("h768.json"), text)] * 4 == [700] * 4


def test_a_refused_word_raises_on_every_request(monkeypatch):
    parsed = _spy(monkeypatch, files, "parse_word", lambda text, alphabet: text)
    G = fresh_group("g64.json")
    for _ in range(4):
        with pytest.raises(WordSyntaxError, match="unknown symbol"):
            files.resolve_word(G, "g1*x7")
    for _ in range(3):  # a good word of the same group is still kept
        files.resolve_word(G, "g1*g2")
    assert kept_tags(G) == ["word"]
    assert parsed == ["g1*x7"] * 4 + ["g1*g2"] * 2
