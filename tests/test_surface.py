from __future__ import annotations

import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedsurf import cli, files
from mixedsurf.covering import CoverType, GeneratingVector, covering_data
from mixedsurf.errors import IntegrityError, ValidationError
from mixedsurf.files import build_surface, load_group, load_group_record, realize_group
from mixedsurf.perm import Permutation, closure, fingerprint, subgroup_generated
from mixedsurf.surface import (TRIANGLE_TYPE, assemble_surface, attach_covering_group,
                               build_mixed_action, check_free_action,
                               derive_induced_vectors, fixed_curve_witness,
                               invariants_from, isolated_point_witness,
                               transport_embedding)
from oracles import (element_index, elements_of, embedding_by_bfs, first_broken_product,
                     free_pair)


@pytest.fixture(scope="module")
def z4():
    return closure([Permutation.from_cycles(4, [(1, 2, 3, 4)])])


def test_build_mixed_action_z4(z4):
    s = 1  # the 4-cycle itself
    g0 = subgroup_generated(z4, [z4.mul(s, s)])
    action = build_mixed_action(z4, g0, s)
    assert action.tau == z4.mul(s, s)
    # abelian: conjugation is trivial
    assert all(action.phi[h] == h for h in g0.members)


def test_build_mixed_action_rejects_tau_prime_inside(z4):
    g0 = subgroup_generated(z4, [z4.mul(1, 1)])
    with pytest.raises(ValidationError):
        build_mixed_action(z4, g0, z4.mul(1, 1))


def test_build_mixed_action_rejects_wrong_index(z4):
    trivial = subgroup_generated(z4, [0])
    with pytest.raises(ValidationError):
        build_mixed_action(z4, trivial, 1)


def test_invariants_from_table_values():
    assert invariants_from(9, 64, 0) == (1, 8, 4, 0, 0)
    assert invariants_from(17, 256, 0) == (1, 8, 4, 0, 0)
    with pytest.raises(ValidationError, match="9 is not divisible by .* cannot be free"):
        invariants_from(4, 64, 0)   # (g-1)^2 = 9 not divisible by 64


def test_surface_invariants_on_families(family1, family2):
    for bundle, genus in ((family1, 9), (family2, 17)):
        S = bundle.surface
        assert (S.chi, S.k2, S.euler, S.q, S.pg) == (1, 8, 4, 0, 0)
        assert S.covering.genus == genus


def test_phi_squared_is_conjugation_by_tau(family1, family2):
    for bundle in (family1, family2):
        act = bundle.surface.action
        for h in act.G0.members:
            assert act.phi[act.phi[h]] == act.G.conj(act.tau, h)


def test_families_are_free(family1, family2):
    assert family1.freeness.ok
    assert family2.freeness.ok


def _sigma_in_g(surface):
    # Stabilizer set of the defining vector, moved from g0_group indices to
    # G-indices (h_group is g0_group for surfaces without extra automorphisms).
    from_h = {k: g for g, k in surface.to_h.items()}
    return {from_h[s] for s in surface.covering.sigma_v}


def test_toy_z4_fails_condition_one(data_dir):
    surface = build_surface(data_dir / "toy_z4.json")
    report = check_free_action(surface)
    assert not report.ok
    assert not report.no_isolated_fixed_points
    w = report.isolated_witness
    assert w is not None and w != 0
    # verify the witness by direct membership
    sigma_g = _sigma_in_g(surface)
    assert w in sigma_g and surface.action.phi[w] in sigma_g


def test_nonfree_fixture_fails_with_verified_witness(data_dir):
    surface = build_surface(data_dir / "family1_nonfree.json")
    report = check_free_action(surface)
    assert not report.ok
    sigma_g = _sigma_in_g(surface)
    if report.isolated_witness is not None:
        w = report.isolated_witness
        assert w != 0 and w in sigma_g and surface.action.phi[w] in sigma_g
    else:
        g = report.curve_witness
        assert g is not None
        G = surface.action.G
        assert g not in surface.action.G0
        assert G.mul(g, g) in sigma_g


def test_freeness_monotone_in_sigma(data_dir):
    # enlarging the stabilizer set never turns a failing condition into a
    # passing one
    surface = build_surface(data_dir / "family1_nonfree.json")
    base = check_free_action(surface)
    assert not base.ok

    # Sigma is read from the covering group's cover, in its indices.
    cover = surface.h_covering

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.sampled_from(surface.action.G0.members[1:]), max_size=5))
    def enlarge(extra):
        sigma = cover.sigma_v.union(surface.to_h[g] for g in extra)
        bumped = surface._replace(h_covering=cover._replace(sigma_v=sigma))
        report = check_free_action(bumped)
        assert not (report.ok and not base.ok)
        if not base.no_isolated_fixed_points:
            assert not report.no_isolated_fixed_points
        if not base.no_fixed_curves:
            assert not report.no_fixed_curves

    enlarge()


def _sigma_in_g(surface):
    # Sigma_V in G-indices, read the way check_free_action reads it.
    sigma = surface.h_covering.sigma_v
    return frozenset(g for g in surface.action.G0.members if surface.to_h[g] in sigma)


def _helpers_say_free(G, members, sigma, phi, tau) -> bool:
    return (isolated_point_witness(sigma, phi) is None
            and fixed_curve_witness(G, members, sigma, phi, tau) is None)


@pytest.mark.parametrize("name", ["family1", "family1_nonfree", "toy_z4"])
def test_freeness_helpers_match_set_form_oracle(data_dir, name):
    surface = build_surface(data_dir / f"{name}.json")
    act = surface.action
    sigma = _sigma_in_g(surface)
    expected = free_pair(act.G, act.G0.members, sigma, act.phi, act.tau)
    assert _helpers_say_free(act.G, act.G0.members, sigma, act.phi, act.tau) == expected
    assert check_free_action(surface).ok == expected == (name == "family1")


def test_curve_witness_squares_into_sigma(data_dir):
    # (tau' h)^2 = phi(h) tau h: the helper's h gives the reported witness.
    surface = build_surface(data_dir / "toy_z4.json")
    act = surface.action
    sigma = _sigma_in_g(surface)
    h = fixed_curve_witness(act.G, act.G0.members, sigma, act.phi, act.tau)
    g = act.G.mul(act.tau_prime, h)
    assert check_free_action(surface).curve_witness == g
    assert g not in act.G0 and act.G.mul(g, g) in sigma


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_freeness_helpers_match_oracle_on_random_pairs(family1, data):
    # phi is conjugation by any element of G (an automorphism of G0), tau any
    # member of G0, and Sigma the identity plus a few G0-conjugacy classes.
    act = family1.surface.action
    G, members = act.G, act.G0.members
    g = data.draw(st.sampled_from(range(G.order)), label="g")
    phi = {h: G.conj(g, h) for h in members}
    tau = data.draw(st.sampled_from(members), label="tau")
    seeds = data.draw(st.lists(st.sampled_from(members), max_size=3), label="classes")
    sigma = frozenset({0}).union(*({G.conj(h, x) for h in members} for x in seeds))
    assert (_helpers_say_free(G, members, sigma, phi, tau)
            == free_pair(G, members, sigma, phi, tau))


def test_derive_induced_vectors_tower(data_dir):
    from mixedsurf.files import load_surface_record, resolve_word
    H = load_group(data_dir / "h768.json")
    record = load_surface_record(data_dir / "family2.json")
    abc = tuple(resolve_word(H, w) for w in record.extra.vector)
    tower = derive_induced_vectors(covering_data(GeneratingVector(H, TRIANGLE_TYPE, abc)))
    assert [len(members) for members in H.derived_series[:2]] == [384, 128]
    assert subgroup_generated(H, tower.first).order == 384
    assert subgroup_generated(H, tower.second).order == 128
    d, e, f = tower.first
    assert (H.order_of(d), H.order_of(e), H.order_of(f)) == (3, 3, 4)
    assert H.mul(H.mul(d, e), f) == 0
    u1, u2, u3 = tower.second
    assert {H.order_of(u1), H.order_of(u2), H.order_of(u3)} == {4}
    assert H.mul(H.mul(u1, u2), u3) == 0


def test_derive_induced_vectors_rejects_bad_input(data_dir):
    # The tower's [0;2,3,8] vector is validated once, when H is attached.
    g_side = build_surface(data_dir / "family2.json", use_extra=False)
    H = load_group(data_dir / "h768.json")
    b = next(i for i in range(H.order) if H.order_of(i) == 3)
    with pytest.raises(ValidationError, match="^invalid generating vector: orders: entry 1 "):
        attach_covering_group(g_side, H, (b, b, b))


def _take_whole_group_as_commutator_subgroup(H):
    """Set H's derived series to (H, H'', ...): H stands in for [H,H]."""
    H.__dict__["derived_series"] = (tuple(range(H.order)),) + H.derived_series[1:]


def test_induced_vector_must_generate_its_target(family2, data_dir, fresh_group_memo,
                                                 monkeypatch):
    # With [H,H] taken to be H, the induced [0;3,3,4] vector spans too little.
    message = "induced [0;3,3,4] vector does not generate the target subgroup"
    H = realize_group(load_group_record(data_dir / "h768.json"))
    _take_whole_group_as_commutator_subgroup(H)
    entries = family2.surface.h_covering.vector.entries
    with pytest.raises(ValidationError, match=re.escape(message)):
        derive_induced_vectors(covering_data(GeneratingVector(H, TRIANGLE_TYPE, entries)))

    def corrupting_fingerprint(G):
        checked = fingerprint(G)
        if G.order == 768:
            _take_whole_group_as_commutator_subgroup(G)
        return checked

    monkeypatch.setattr(files, "fingerprint", corrupting_fingerprint)
    out = io.StringIO()
    assert cli.run(["surface", str(data_dir / "family2.json")], out=out) == cli.EXIT_VALIDATION
    assert out.getvalue() == f"validation error: {message}\n"


def test_transport_identity_embedding(family1):
    S = family1.surface
    assert S.h_group is S.g0_group
    G = S.action.G
    elements, index = elements_of(G), element_index(S.g0_group, G)
    assert all(S.to_h[g] == index[elements[g]] for g in S.action.G0.members)


@pytest.mark.parametrize("name", ["family1", "family1_nonfree", "family2", "family2_search",
                                  "family3", "family4", "family5", "toy_z4"])
def test_g0_index_map_is_read_off_the_realization(data_dir, name):
    S = build_surface(data_dir / f"{name}.json", use_extra=False)
    G, g0 = S.action.G, S.g0_group
    # G0 closed afresh from the permutations of its generators.
    elements = elements_of(G)
    want = closure([elements[i] for i in S.action.G0.generators])
    assert [elements[p] for p in g0.positions] == list(elements_of(want))
    # to_h by its definition, one lookup per G0 member.
    in_g0 = element_index(want)
    assert S.to_h == {i: in_g0[elements[i]] for i in S.action.G0.members}


def test_transport_verifies_homomorphism(family2):
    S = family2.surface
    G = S.action.G
    H = S.h_group
    members = S.action.G0.members
    assert len(set(S.to_h[g] for g in members)) == S.g0_group.order == len(members)
    for x in members:
        for y in members:
            assert S.to_h[G.mul(x, y)] == H.mul(S.to_h[x], S.to_h[y])


def test_transport_rejects_order_mismatch(family1):
    S = family1.surface
    g0 = S.g0_group
    entries = S.covering.vector.entries
    bad_targets = tuple(0 for _ in entries)
    with pytest.raises(ValidationError):
        transport_embedding(g0, entries, g0, bad_targets)


def test_transport_rejects_non_homomorphic_matching(family1):
    S = family1.surface
    g0 = S.g0_group
    entries = S.covering.vector.entries
    # permute the targets: orders still match (all are involutions) but the
    # relations generally break
    shuffled = (entries[1], entries[0]) + entries[2:]
    if shuffled == entries:
        pytest.skip("vector is symmetric")
    try:
        img = transport_embedding(g0, entries, g0, shuffled)
    except ValidationError:
        return
    # if it extends, it must be a genuine automorphism; verify
    for x in range(g0.order):
        for y in range(g0.order):
            assert img[g0.mul(x, y)] == g0.mul(img[x], img[y])


def _transported(bundle):
    """The embedding of family 2-5's G0 into H, rebuilt as attach_covering_group builds it."""
    S = bundle.surface
    g0, H = S.g0_group, S.h_group
    tower = derive_induced_vectors(S.h_covering)
    return g0, S.covering.vector.entries, H, tower.second


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_transport_passes_the_all_pairs_oracle(families, k):
    g0, entries, H, targets = _transported(families[k])
    img = transport_embedding(g0, entries, H, targets)
    assert sorted(img) == list(range(g0.order))
    assert first_broken_product(g0, H, img) is None
    assert img == embedding_by_bfs(g0, entries, H, targets)


def test_all_pairs_oracle_rejects_two_swapped_images(family2):
    # Swapping two images keeps the map injective; only the products show it.
    g0, entries, H, targets = _transported(family2)
    img = dict(transport_embedding(g0, entries, H, targets))
    img[1], img[2] = img[2], img[1]
    assert len(set(img.values())) == g0.order
    assert first_broken_product(g0, H, img) is not None


@pytest.fixture(scope="module")
def v4():
    return closure([Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(3, 4)])])


def test_transport_rejects_matching_that_is_not_a_homomorphism(v4):
    # Orders and spans agree, but a b = ab while the images give b != a.
    a, b = v4.generator_indices
    ab = v4.mul(a, b)
    with pytest.raises(ValidationError, match="injective homomorphism"):
        transport_embedding(v4, (a, b, ab), v4, (a, b, a))


def test_transport_rejects_non_injective_matching(v4):
    a, b = v4.generator_indices
    with pytest.raises(ValidationError):
        transport_embedding(v4, (a, b), v4, (a, a))


def test_assemble_rejects_entries_outside_g0(z4):
    with pytest.raises(ValidationError):
        assemble_surface(z4, [z4.mul(1, 1)], 1, [1, 1],
                         CoverType(0, (4, 4)))


def test_genus_consistency_between_covers(family2):
    assert family2.surface.covering.genus == family2.surface.h_covering.genus == 17


def _change_h_cover(monkeypatch, change):
    """Make attach_covering_group see ``change`` applied to the [0;2,3,8] cover of H
    and the defining cover unchanged."""
    def changed(v):
        cov = covering_data(v)
        return change(cov) if v.cover_type.m == (2, 3, 8) else cov

    monkeypatch.setattr("mixedsurf.surface.covering_data", changed)


def test_covers_of_different_genus_are_refused(data_dir, monkeypatch):
    _change_h_cover(monkeypatch, lambda cov: cov._replace(genus=cov.genus + 1))
    with pytest.raises(IntegrityError, match="genus mismatch between covers: 17 vs 18"):
        build_surface(data_dir / "family2.json")
    out = io.StringIO()
    assert cli.run(["surface", str(data_dir / "family2.json")], out=out) == cli.EXIT_ASSERTION
    assert "genus mismatch between covers" in out.getvalue()


def test_covers_with_different_stabilizers_are_refused(data_dir, monkeypatch):
    # No element of H has fixed points any more, but G0's Sigma_V still holds some.
    _change_h_cover(monkeypatch, lambda cov: cov._replace(sigma_v=frozenset({0})))
    with pytest.raises(IntegrityError, match="stabilizer set of the subgroup cover disagrees"):
        build_surface(data_dir / "family2.json")
