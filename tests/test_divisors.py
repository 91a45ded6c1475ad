from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import CosetFiberOracle, act_on_graph, pairing_by_double_sum
from mixedsurf.divisors import OrbitDivisor, intersection_table
from mixedsurf.errors import IntegrityError, ValidationError
from mixedsurf.files import run_pipeline


def test_act_identity_plain_fixes_graphs(family1):
    S = family1.surface
    for f in range(0, S.h_group.order, 5):
        assert act_on_graph(S, 0, f) == f


def test_act_identity_mixed_sends_f_to_tau_f_inverse(family1):
    S = family1.surface
    H = S.h_group
    for f in range(0, H.order, 3):
        assert act_on_graph(S, 0, f, mixed=True) == H.mul(S.to_h[S.action.tau], H.inv(f))


def test_act_matches_direct_multiplication(family1):
    S = family1.surface
    H = S.h_group
    h = S.action.G0.members[3]
    hh = S.to_h[h]
    ph = S.to_h[S.action.phi[h]]
    tau = S.to_h[S.action.tau]
    for f in (1, 7, 20):
        expected = H.mul(H.mul(ph, f), H.inv(hh))
        assert act_on_graph(S, h, f) == expected
        expected_mixed = H.mul(H.mul(H.mul(tau, hh), H.inv(f)), H.inv(ph))
        assert act_on_graph(S, h, f, mixed=True) == expected_mixed


def test_act_rejects_elements_outside_g0(family1):
    S = family1.surface
    with pytest.raises(ValidationError):
        act_on_graph(S, S.action.tau_prime, 0)


def test_family1_has_four_orbits_of_size_eight(family1):
    orbits = family1.table.divisors
    assert len(orbits) == 4
    assert all(d.n == 8 for d in orbits)


def test_family2_has_fifteen_orbits(family2):
    orbits = family2.table.divisors
    assert len(orbits) == 15
    assert sorted(d.n for d in orbits) == [32] * 10 + [64] * 3 + [128] * 2


def test_orbits_partition_the_group(family1, family2):
    for bundle in (family1, family2):
        H = bundle.surface.h_group
        members = [f for d in bundle.table.divisors for f in d.members]
        assert sorted(members) == list(range(H.order))
        for d in bundle.table.divisors:
            assert bundle.surface.action.G.order % d.n == 0


def test_orbit_labels_sorted_by_minimal_member(family2):
    mins = [min(d.members) for d in family2.table.divisors]
    assert mins == sorted(mins)
    assert [d.label for d in family2.table.divisors] == list(range(1, 16))


def test_graph_intersection_zero_for_fixed_point_free_shift(family1):
    S = family1.surface
    cov = S.h_covering
    H = S.h_group
    sigma_free = next(s for s in range(1, H.order) if s not in cov.sigma_v)
    for f1 in (0, 3, 11):
        # graph(f1) . graph(sigma f1) counts Fix(f1^-1 sigma f1), conjugate
        # to the fixed-point-free sigma
        assert cov.fix_table[H.mul(H.inv(f1), H.mul(sigma_free, f1))] == 0


def test_graph_intersection_matches_coset_fiber_oracle(family1):
    S = family1.surface
    cov = S.h_covering
    H = S.h_group
    oracle = CosetFiberOracle(H, cov.vector.entries)
    pairs = [(f1, f2) for f1 in range(0, H.order, 7)
             for f2 in range(1, H.order, 9) if f1 != f2]
    positive = 0
    for f1, f2 in pairs:
        # graph(f1) . graph(f2) = |Fix(f1^-1 f2)| for distinct graphs
        x = H.mul(H.inv(f1), f2)
        assert cov.fix_table[x] == oracle.count(x)
        positive += cov.fix_table[x] > 0
    assert positive > 0


def test_family1_table_matches_published_values(family1):
    table = family1.table
    assert table.kdot == (4, 4, 4, 4)
    assert all(table.entry(i, i) == 0 for i in table.labels)
    # one zero partner each, remaining products 4
    for i in table.labels:
        row = [table.entry(i, j) for j in table.labels if j != i]
        assert sorted(row) == [0, 4, 4]


def test_kdot_formula_spot_value(family1):
    # n = 8, g - 1 = 8, |G| = 64 -> K.D = 4
    assert family1.table.genus_minus_1 == 8
    assert family1.table.order_g == 64
    assert Fraction(4 * 8 * 8, 64) == 4


def test_family2_has_null_pair_with_product_sixteen(family2):
    table = family2.table
    found = [(i, j) for i in table.labels for j in table.labels if i < j
             and table.entry(i, i) == 0 == table.entry(j, j)
             and table.entry(i, j) == 16]
    assert found


def test_pullback_consistency_both_triangle_orders(family1, family2):
    for bundle in (family1, family2):
        S = bundle.surface
        cov = S.h_covering
        H = S.h_group
        gm1 = cov.genus - 1
        order_g = S.action.G.order
        for d in bundle.table.divisors:
            mem = d.members
            upper = sum(cov.fix_table[H.mul(H.inv(mem[a]), mem[b])]
                        for a in range(len(mem)) for b in range(a + 1, len(mem)))
            lower = sum(cov.fix_table[H.mul(H.inv(mem[b]), mem[a])]
                        for a in range(len(mem)) for b in range(a + 1, len(mem)))
            assert upper == lower
            total = Fraction(-2 * gm1 * d.n, order_g) + Fraction(2 * upper, order_g)
            assert total == bundle.table.entry(d.label, d.label)


def test_adjunction_parity(family1, family2):
    for bundle in (family1, family2):
        table = bundle.table
        for i in table.labels:
            assert (table.kdot[i - 1] + table.entry(i, i)) % 2 == 0


def test_rank_two_and_hodge_index(family1, family2):
    for bundle in (family1, family2):
        table = bundle.table
        assert table.rank() == 2
        basis = bundle.report.basis
        i, j = basis
        det = table.entry(i, i) * table.entry(j, j) - table.entry(i, j) ** 2
        assert det < 0  # signature (1,1) on the rank-2 reduction


def test_orbits_closed_under_both_action_formulas(family1, family2):
    for bundle in (family1, family2):
        S = bundle.surface
        label_of = {}
        for d in bundle.table.divisors:
            for f in d.members:
                label_of[f] = d.label
        sample_h = list(S.action.G0.members)[::5]
        for d in bundle.table.divisors[:4]:
            f = min(d.members)
            for h in sample_h:
                assert label_of[act_on_graph(S, h, f)] == d.label
                assert label_of[act_on_graph(S, h, f, mixed=True)] == d.label


def test_canonical_class_consistent_with_pairing(family1, family2):
    # K = x A + y B in the null basis; the K.D column must be the matching
    # linear combination of pairing rows, and K^2 must equal 8 chi = 8.
    for bundle in (family1, family2):
        t = bundle.table
        a, b = bundle.report.basis
        ab = Fraction(t.entry(a, b))
        x = Fraction(t.kdot[b - 1]) / ab
        y = Fraction(t.kdot[a - 1]) / ab
        for d in t.labels:
            assert x * t.entry(a, d) + y * t.entry(b, d) == t.kdot[d - 1]
        assert 2 * x * y * ab == bundle.surface.k2 == 8


@pytest.mark.parametrize("use_extra", [True, False], ids=["extra", "g0_only"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_pairing_matches_double_sum_oracle(data_dir, families, k, use_extra):
    bundle = (families[k] if use_extra
              else run_pipeline(data_dir / f"family{k}.json", use_extra=False))
    table = bundle.table
    assert table.pairing == pairing_by_double_sum(table.divisors, bundle.surface)


def test_pairing_rejects_orbits_that_are_not_g_invariant(family2):
    # Swapping one member between two orbits breaks G-invariance, so some
    # entry read from O_i's representative disagrees with the one read
    # from O_j's.  (On family 1 the same swap happens to keep every sum.)
    divisors = list(family2.table.divisors)
    a, b = divisors[0].members, divisors[1].members
    divisors[0] = OrbitDivisor(1, a[:-1] + b[-1:])
    divisors[1] = OrbitDivisor(2, b[:-1] + a[-1:])
    with pytest.raises(IntegrityError, match=r"D_1\.D_3 disagrees between its two orbits"):
        intersection_table(divisors, family2.surface)
