from __future__ import annotations

import io
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (CosetFiberOracle, act_on_graph, orbits_by_action, pairing_by_double_sum,
                     rank_by_fractions)
from mixedsurf import cli, files
from mixedsurf.divisors import (IntersectionTable, OrbitDivisor, graph_orbits,
                                intersection_table)
from mixedsurf.errors import IntegrityError, ValidationError
from mixedsurf.files import run_pipeline
from mixedsurf.perm import conjugacy_class
from mixedsurf.surface import FreenessReport


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


def test_orbits_partition_the_group(data_dir, families):
    # Families 1-5 with their extra automorphisms, and families 2-5 with G0
    # alone as the covering group (family 1 has no extra block).
    bundles = [*families.items()] + [
        (f"{k} g0_only", run_pipeline(data_dir / f"family{k}.json", use_extra=False))
        for k in (2, 3, 4, 5)]
    for name, bundle in bundles:
        H = bundle.surface.h_group
        divisors = bundle.table.divisors
        members = [f for d in divisors for f in d.members]
        assert sorted(members) == list(range(H.order)), name
        for d in divisors:
            assert bundle.surface.action.G.order % d.n == 0, name
        assert [d.label for d in divisors] == list(range(1, len(divisors) + 1)), name
        mins = [min(d.members) for d in divisors]
        assert mins == sorted(mins), name


BUNDLED_SURFACES = ("family1", "family1_nonfree", "family2", "family2_search", "family3",
                    "family4", "family5", "toy_z4")
WITH_EXTRA = ("family2", "family2_search", "family3", "family4", "family5")


@pytest.mark.parametrize("name, use_extra",
                         [(name, False) for name in BUNDLED_SURFACES]
                         + [(name, True) for name in WITH_EXTRA])
def test_orbits_match_the_action_oracle(data_dir, name, use_extra):
    S = files.build_surface(data_dir / f"{name}.json", use_extra=use_extra)
    assert (S.h_group is not S.g0_group) == use_extra
    assert [(d.label, d.members) for d in graph_orbits(S)] == orbits_by_action(S)


def test_orbits_of_corrupted_actions_match_the_action_oracle(family1, family2):
    # The corrupted actions of the two refusal tests below.  They are not
    # actions, but each "orbit" is still its seed's image set.
    S = family1.surface
    G, z = S.action.G, S.action.G0.members[1]
    phi = {h: G.mul(image, z) for h, image in S.action.phi.items()}
    wrong = [_with_action(S, phi=phi),
             _with_action(family2.surface, tau=family2.surface.action.G0.members[1])]
    orbits = [graph_orbits(S) for S in wrong]
    for S, got in zip(wrong, orbits):
        assert [(d.label, d.members) for d in got] == orbits_by_action(S)
    assert all(0 not in d.members for d in orbits[0])  # no orbit holds its seed 0


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


def test_adjunction_parity(families):
    # K.D_i / 4 is an integer and delta_i = D_i^2/2 + K.D_i/4 is the number
    # of points where two graphs of O_i meet, counted on S: the sum over
    # pairs of distinct members of |Fix(x^-1 y)|, over |G|.
    deltas = {}
    for k, bundle in families.items():
        S, table = bundle.surface, bundle.table
        H, fix = S.h_group, S.h_covering.fix_table
        values = set()
        for d in table.divisors:
            kd, d2 = table.kdot[d.label - 1], table.entry(d.label, d.label)
            assert kd % 4 == 0
            delta = Fraction(d2, 2) + kd // 4
            mem = d.members
            crossings = sum(fix[H.mul(H.inv(mem[a]), mem[b])]
                            for a in range(len(mem)) for b in range(a + 1, len(mem)))
            assert delta == Fraction(crossings, S.action.G.order)
            values.add(delta)
        deltas[k] = sorted(values)
    assert deltas == {1: [1], 2: [2, 6, 20, 72], 3: [2, 6, 20, 72], 4: [2, 6, 20, 72],
                      5: [2, 6, 20, 72]}


def test_rank_two_and_hodge_index(family1, family2):
    for bundle in (family1, family2):
        table = bundle.table
        assert table.rank() == 2
        basis = bundle.report.basis
        i, j = basis
        det = table.entry(i, i) * table.entry(j, j) - table.entry(i, j) ** 2
        assert det < 0  # signature (1,1) on the rank-2 reduction


def _table(pairing) -> IntersectionTable:
    divisors = tuple(OrbitDivisor(i + 1, (i,)) for i in range(len(pairing)))
    return IntersectionTable(divisors, tuple(map(tuple, pairing)), (0,) * len(pairing), 1, 1)


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 16 x 16, many of them rank-deficient: some rows
    are combinations of others and some columns are zero."""
    nrows = draw(st.integers(1, 16))
    ncols = draw(st.integers(1, 16))
    entry = st.integers(-50, 50)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(draw(st.integers(1, nrows)))]
    while len(rows) < nrows:
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(entry), draw(entry)
        rows.insert(draw(st.integers(0, len(rows))), [s * x + t * y for x, y in zip(a, b)])
    zero = draw(st.sets(st.integers(0, ncols - 1)))
    return [[0 if c in zero else x for c, x in enumerate(row)] for row in rows]


@given(integer_matrices())
def test_rank_matches_elimination_over_fractions(matrix):
    assert _table(matrix).rank() == rank_by_fractions(matrix)


def test_rank_of_bundled_tables_matches_elimination_over_fractions(families):
    for bundle in families.values():
        assert bundle.table.rank() == rank_by_fractions(bundle.table.pairing) == 2


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


# The cross-checks of intersection_table, each reached by one change to a
# bundled surface.

def _with_action(S, **fields):
    return S._replace(action=S.action._replace(**fields))


def _with_h_cover(S, **fields):
    return S._replace(h_covering=S.h_covering._replace(**fields))


def _assert_orbits_refused(S, message, spec, monkeypatch):
    """The orbits of a corrupted action S and their table are refused with
    ``message``, and the divisors command exits 4 on them.  The freeness
    check, which runs first, is passed so that the command reaches the orbits."""
    with pytest.raises(IntegrityError, match=message):
        intersection_table(graph_orbits(S), S)
    monkeypatch.setattr(files, "build_surface", lambda path, use_extra=True: S)
    monkeypatch.setattr(files, "check_free_action",
                        lambda S: FreenessReport(True, True, None, None))
    out = io.StringIO()
    assert cli.run(["divisors", str(spec)], out=out) == cli.EXIT_ASSERTION
    assert re.fullmatch(f"integrity assertion failed: {message}\n", out.getvalue())


def test_orbit_without_its_seed_is_refused(family1, data_dir, monkeypatch):
    # With phi(h) z for phi(h), no element of G keeps the graph of the identity.
    S = family1.surface
    G, z = S.action.G, S.action.G0.members[1]
    phi = {h: G.mul(image, z) for h, image in S.action.phi.items()}
    _assert_orbits_refused(_with_action(S, phi=phi), "pairing matrix has rank 16 > 2",
                           data_dir / "family1.json", monkeypatch)


def test_overlapping_orbits_are_refused(family2, data_dir, monkeypatch):
    # The mixed elements act through the wrong tau, so the "orbits" overlap.
    S = family2.surface
    _assert_orbits_refused(_with_action(S, tau=S.action.G0.members[1]),
                           r"intersection D_1\.D_16 disagrees between its two orbits: "
                           r"2048 != 3072", data_dir / "family2.json", monkeypatch)


def test_orbit_size_must_divide_the_order_of_g(family1, s3, data_dir, monkeypatch):
    # An orbit of size 8 under a "G" of order 6.
    _assert_orbits_refused(_with_action(family1.surface, G=s3),
                           "K.D for divisor 1 is non-integral: 128/3",
                           data_dir / "family1.json", monkeypatch)


def test_non_integral_canonical_degree_is_refused(family1, s3):
    # K.D_1 = 4 (g-1) n_1 / |G| = 4 * 8 * 8 / 6.
    with pytest.raises(IntegrityError, match="K.D for divisor 1 is non-integral: 128/3"):
        intersection_table(family1.table.divisors, _with_action(family1.surface, G=s3))


@pytest.mark.parametrize("extra, message", [
    (1, r"intersection D_1\.D_2 is non-integral: 17/4"),
    (4, r"pairing matrix has rank 4 > 2"),
])
def test_fixed_point_counts_off_the_surface_are_refused(family1, extra, message):
    # Raising |Fix| on a class closed under inversion keeps each entry two-sided.
    S = family1.surface
    H = S.h_group
    fix = dict(S.h_covering.fix_table)
    for f in conjugacy_class(H, 1) | conjugacy_class(H, H.inv(1)):
        fix[f] += extra
    with pytest.raises(IntegrityError, match=message):
        intersection_table(family1.table.divisors, _with_h_cover(S, fix_table=fix))


def test_adjunction_parity_is_checked(family1, data_dir, monkeypatch):
    # With g - 1 four larger, K.D_i = 4 (g - 1) n_i / |G| grows from 4 to 6.
    wrong = _with_h_cover(family1.surface, genus=family1.surface.h_covering.genus + 4)
    message = "adjunction fails for divisor 1: K.D = 6 is not divisible by 4"
    with pytest.raises(IntegrityError, match=message):
        intersection_table(family1.table.divisors, wrong)
    monkeypatch.setattr(files, "build_surface", lambda path, use_extra=True: wrong)
    out = io.StringIO()
    assert cli.run(["divisors", str(data_dir / "family1.json")], out=out) == cli.EXIT_ASSERTION
    assert out.getvalue() == f"integrity assertion failed: {message}\n"


def test_a_fractional_delta_is_refused(family1):
    # Eight more fixed points for the central element 2 raise D_1^2 by
    # 8 n_1 / |G| = 1, so delta_1 = 1/2 + 4/4.
    S = family1.surface
    fix = dict(S.h_covering.fix_table)
    assert conjugacy_class(S.h_group, 2) == {2} and S.h_group.inv(2) == 2
    fix[2] += 8
    with pytest.raises(IntegrityError, match="adjunction fails for divisor 1: "
                                             "delta = 3/2 is not a nonnegative integer"):
        intersection_table(family1.table.divisors, _with_h_cover(S, fix_table=fix))
