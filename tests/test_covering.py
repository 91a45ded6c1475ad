from __future__ import annotations

import gc
import hashlib
import io
import weakref
from array import array
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (CosetFiberOracle, element_index, fixed_point_count,
                     generating_vector_entries)
from mixedsurf import cli, covering, surface
from mixedsurf.covering import (MAX_BRANCH_POINTS, MAX_SEARCH_LEAVES, CoverType,
                                GeneratingVector, covering_data, fixed_point_table,
                                generating_vectors, hurwitz_genus, parse_cover_type,
                                search_generating_vectors, stabilizer_set,
                                validate_generating_vector)
from mixedsurf.errors import BudgetExceeded, IntegrityError, ValidationError
from mixedsurf.files import load_group_record, realize_group, resolve_word
from mixedsurf.perm import (ClassMap, Permutation, closure, subgroup_as_group,
                            subgroup_generated)


def test_parse_cover_type():
    assert parse_cover_type("[0;2,3,8]") == CoverType(0, (2, 3, 8))
    assert parse_cover_type("[0; 2^5]") == CoverType(0, (2, 2, 2, 2, 2))
    assert parse_cover_type("[1;4^3]") == CoverType(1, (4, 4, 4))
    assert str(CoverType(0, (2, 2))) == "[0;2,2]"
    assert CoverType(0, (2, 2)) != (0, (2, 2))  # only a CoverType equals a CoverType
    assert parse_cover_type(f"[0;2^{MAX_BRANCH_POINTS}]").r == MAX_BRANCH_POINTS
    for bad in ["[0]", "0;2,2", "[0;1,2]", "[0;x]", f"[0;3,2^{MAX_BRANCH_POINTS}]",
                "[0;2^0]", "[0;2^0,3]"]:
        with pytest.raises(ValidationError):
            parse_cover_type(bad)


@pytest.mark.parametrize("text", ["[0;\u0662,3,8]", "[0;2^\uff13]", "[\u0660;2,3,8]",
                                  "[0;2,3,\U0001d7e0]"])
def test_cover_type_numbers_are_ascii_digits(text):
    # int() would read each of these as an ASCII type; the grammar refuses them.
    with pytest.raises(ValidationError, match="malformed"):
        parse_cover_type(text)


def test_cover_type_rejects_a_negative_quotient_genus():
    with pytest.raises(ValidationError, match="quotient genus must be nonnegative"):
        CoverType(-1, (2,))


def test_cover_type_prints_as_its_signature():
    # str() reaches stdout (genvec search, error messages); repr() lists the fields.
    assert str(parse_cover_type("[0;2,3,8]")) == "[0;2,3,8]"
    assert str(parse_cover_type("[0;2^5]")) == "[0;2,2,2,2,2]"
    assert repr(parse_cover_type("[0;2,3,8]")) == "CoverType(g_prime=0, m=(2, 3, 8))"
    assert len({CoverType(0, (2, 2)), parse_cover_type("[0;2^2]")}) == 1
    with pytest.raises(AttributeError, match="read-only"):
        CoverType(0, (2, 2)).m = (3,)


def test_hurwitz_genus_values():
    assert hurwitz_genus(32, parse_cover_type("[0;2^5]")) == 9
    assert hurwitz_genus(128, parse_cover_type("[0;4^3]")) == 17
    assert hurwitz_genus(768, parse_cover_type("[0;2,3,8]")) == 17
    assert hurwitz_genus(2, parse_cover_type("[0;2^6]")) == 2
    with pytest.raises(ValidationError):
        hurwitz_genus(3, parse_cover_type("[0;2,2]"))


def test_validate_z2_hyperelliptic(z2):
    sigma = 1
    v = GeneratingVector(z2, CoverType(0, (2, 2)), (sigma, sigma))
    assert validate_generating_vector(v) is None


def test_validate_reports_product_failure(z2):
    v = GeneratingVector(z2, CoverType(0, (2, 2, 2)), (1, 1, 1))
    with pytest.raises(ValidationError, match="^invalid generating vector: "
                       "product: entries do not multiply to the identity$"):
        validate_generating_vector(v)


def test_validate_reports_order_and_generation_failures(d4):
    r = next(i for i in range(d4.order) if d4.order_of(i) == 4)
    v = GeneratingVector(d4, CoverType(0, (2, 2)), (r, d4.inv(r)))
    # <r> is a proper subgroup too, so the generation failure follows.
    with pytest.raises(ValidationError, match="^invalid generating vector: "
                       "orders: entry 1 has order 4, expected 2; "
                       "orders: entry 2 has order 4, expected 2; "
                       "generates: entries generate a proper subgroup$"):
        validate_generating_vector(v)
    # entries in the center generate a proper subgroup
    z = next(i for i in range(1, d4.order)
             if all(d4.mul(i, j) == d4.mul(j, i) for j in range(d4.order)))
    v2 = GeneratingVector(d4, CoverType(0, (2, 2)), (z, z))
    with pytest.raises(ValidationError, match="^invalid generating vector: "
                       "generates: entries generate a proper subgroup$"):
        validate_generating_vector(v2)


def test_validate_joins_failures_in_condition_order(z2):
    v = GeneratingVector(z2, CoverType(0, (2, 2)), (1, 0))
    with pytest.raises(ValidationError, match="^invalid generating vector: "
                       "orders: entry 2 has order 1, expected 2; "
                       "product: entries do not multiply to the identity$"):
        validate_generating_vector(v)


def test_validate_rejects_a_vector_of_the_wrong_length(z2):
    v = GeneratingVector(z2, CoverType(0, (2, 2)), (1,))
    with pytest.raises(ValidationError, match=r"vector has 1 entries but type \[0;2,2\] needs 2"):
        validate_generating_vector(v)


def test_genus_one_quotient_rejected(z2):
    v = GeneratingVector(z2, CoverType(1, ()), ())
    with pytest.raises(ValidationError):
        validate_generating_vector(v)


def test_stabilizer_set_z2(z2):
    v = GeneratingVector(z2, CoverType(0, (2,) * 6), (1,) * 6)
    assert stabilizer_set(v) == frozenset({0, 1})


def test_stabilizer_contains_identity(d4):
    found = search_generating_vectors(d4, CoverType(0, (2, 2, 4)), limit=1)
    assert found
    assert 0 in stabilizer_set(found[0])


def test_fixed_point_count_hyperelliptic(z2):
    v = GeneratingVector(z2, CoverType(0, (2,) * 6), (1,) * 6)
    assert fixed_point_count(1, v) == 6
    with pytest.raises(ValidationError):
        fixed_point_count(0, v)


def test_fixed_point_zero_outside_stabilizer():
    klein = closure([Permutation.from_cycles(4, [(1, 2)]),
                     Permutation.from_cycles(4, [(3, 4)])])
    index = element_index(klein)
    a = index[Permutation.from_cycles(4, [(1, 2)])]
    b = index[Permutation.from_cycles(4, [(3, 4)])]
    v = GeneratingVector(klein, CoverType(0, (2, 2, 2, 2)), (a, b, a, b))
    ab = klein.mul(a, b)
    assert ab not in stabilizer_set(v)
    assert fixed_point_count(ab, v) == 0


def _vectors_for_property_tests():
    d4 = closure([Permutation.from_cycles(4, [(1, 2, 3, 4)]),
                  Permutation.from_cycles(4, [(1, 3)])])
    s3 = closure([Permutation.from_cycles(3, [(1, 2)]),
                  Permutation.from_cycles(3, [(1, 2, 3)])])
    out = []
    out += search_generating_vectors(d4, CoverType(0, (2, 2, 4)), limit=2)
    out += search_generating_vectors(d4, CoverType(0, (2, 2, 2, 2)), limit=2)
    out += search_generating_vectors(s3, CoverType(0, (2, 2, 3)), limit=2)
    out += search_generating_vectors(s3, CoverType(0, (2, 3, 2)), limit=1)
    assert out
    return out


VECTORS = _vectors_for_property_tests()


def test_fixed_point_table_rejects_a_non_integral_count():
    # (r, r, r^2) in Z4 read as type [0;3,4,2]: r lies in all four
    # conjugates of <r>, so |Fix(r)| would be 4/3 + 4/4 + 0.
    G = closure([Permutation.from_cycles(4, [(1, 2, 3, 4)])])
    r = 1
    v = GeneratingVector(G, CoverType(0, (3, 4, 2)), (r, r, G.mul(r, r)))
    with pytest.raises(IntegrityError, match="element 1 is non-integral: 7/3"):
        fixed_point_table(v)


@pytest.mark.parametrize("v", VECTORS, ids=lambda v: f"{v.group.order}-{v.cover_type}")
def test_ramification_sum_identity(v):
    table = fixed_point_table(v)
    expected = sum((v.group.order // m) * (m - 1) for m in v.cover_type.m)
    assert sum(table.values()) == expected


@pytest.mark.parametrize("v", VECTORS, ids=lambda v: f"{v.group.order}-{v.cover_type}")
def test_fix_counts_conjugation_and_inversion_invariant(v):
    G = v.group
    table = fixed_point_table(v)
    for f in range(1, G.order):
        assert table[f] == table[G.inv(f)]
        for g in range(G.order):
            assert table[f] == table[G.conj(g, f)]


@pytest.mark.parametrize("v", VECTORS, ids=lambda v: f"{v.group.order}-{v.cover_type}")
def test_fix_counts_match_coset_fiber_oracle(v):
    table = fixed_point_table(v)
    oracle = CosetFiberOracle(v.group, v.entries)
    for f in range(1, v.group.order):
        assert table[f] == oracle.count(f)


@pytest.mark.parametrize("v", VECTORS, ids=lambda v: f"{v.group.order}-{v.cover_type}")
def test_zero_exactly_off_stabilizer(v):
    table = fixed_point_table(v)
    sigma = stabilizer_set(v)
    for f in range(1, v.group.order):
        assert (table[f] > 0) == (f in sigma)


def test_covering_data_bundle(z2):
    v = GeneratingVector(z2, CoverType(0, (2,) * 6), (1,) * 6)
    cov = covering_data(v)
    assert cov.genus == 2
    assert cov.sigma_v == frozenset({0, 1})
    assert cov.fix_table == {1: 6}


def test_a_non_integral_count_exits_4(data_dir, fresh_group_memo, monkeypatch):
    # Family 1's order-32 G0 realized with a class map that puts every
    # element in one class of 3 elements, so every power of its [0;2^5]
    # vector lands there: |Fix(1)| = 32 * 5 / (2 * 3).  With an empty group
    # memo, g64 and the G0 it realizes are requested once and kept nowhere,
    # so the corrupted G0 dies with the test.
    def realize_corrupted(sub):
        G0 = subgroup_as_group(sub)
        G0.__dict__["class_map"] = ClassMap((frozenset({1, 2, 3}),), array("i", [0]) * G0.order)
        return G0

    monkeypatch.setattr(surface, "subgroup_as_group", realize_corrupted)
    out = io.StringIO()
    assert cli.run(["surface", str(data_dir / "family1.json")], out=out) == cli.EXIT_ASSERTION
    assert out.getvalue() == ("integrity assertion failed: "
                              "fixed-point count for element 1 is non-integral: 80/3\n")


def test_search_z2_exactly_one_class(z2):
    found = search_generating_vectors(z2, CoverType(0, (2, 2)))
    assert len(found) == 1
    assert found[0].entries == (1, 1)


def test_search_respects_limit_and_dedup(d4):
    all_found = search_generating_vectors(d4, CoverType(0, (2, 2, 4)))
    limited = search_generating_vectors(d4, CoverType(0, (2, 2, 4)), limit=1)
    assert len(limited) == 1
    assert limited[0].entries == all_found[0].entries
    canon = set()
    for v in all_found:
        best = min(tuple(d4.conj(g, h) for h in v.entries) for g in range(d4.order))
        assert best not in canon
        canon.add(best)


def test_search_validates_results(d4):
    for v in search_generating_vectors(d4, CoverType(0, (2, 2, 4))):
        assert validate_generating_vector(v) is None


def test_search_leaf_budget_boundary(d4, monkeypatch):
    # [0;2,2,4] on D4: 3 classes of involutions for the first entry times 5
    # involutions for the second is 15 candidates, and the budget may be met.
    monkeypatch.setattr(covering, "MAX_SEARCH_LEAVES", 15)
    assert search_generating_vectors(d4, CoverType(0, (2, 2, 4)))
    monkeypatch.setattr(covering, "MAX_SEARCH_LEAVES", 14)
    with pytest.raises(BudgetExceeded, match="15 candidates"):
        search_generating_vectors(d4, CoverType(0, (2, 2, 4)))


def test_search_unsupported_inputs(z2):
    with pytest.raises(ValidationError):
        search_generating_vectors(z2, CoverType(1, (2, 2)))
    with pytest.raises(ValidationError):
        search_generating_vectors(z2, CoverType(0, (2,)))


@pytest.mark.parametrize("limit", [0, -3])
def test_search_rejects_a_nonpositive_limit(d4, limit):
    with pytest.raises(ValidationError, match="limit"):
        search_generating_vectors(d4, CoverType(0, (2, 2, 4)), limit=limit)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fixed_point_count_matches_table(data):
    v = data.draw(st.sampled_from(VECTORS))
    f = data.draw(st.integers(min_value=1, max_value=v.group.order - 1))
    table = fixed_point_table(v)
    assert fixed_point_count(f, v) == table[f]


def test_search_frees_its_group_without_the_cyclic_collector():
    # A long-lived process must not keep each searched group alive until the
    # next full collection.
    G = closure([Permutation.from_cycles(4, [(1, 2, 3, 4)]),
                 Permutation.from_cycles(4, [(1, 3)])])
    ref = weakref.ref(G)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert search_generating_vectors(G, CoverType(0, (2, 2, 4)))
        del G
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_a_scan_closed_after_its_first_vector_frees_its_group_without_the_cyclic_collector():
    G = closure([Permutation.from_cycles(4, [(1, 2, 3, 4)]),
                 Permutation.from_cycles(4, [(1, 3)])])
    ref = weakref.ref(G)
    enabled = gc.isenabled()
    gc.disable()
    try:
        scan = generating_vectors(G, CoverType(0, (2, 2, 4)))
        assert next(scan).group is G
        scan.close()
        del G, scan
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# The searches behind scripts/make_data.py: (group file, words generating the
# searched subgroup or None for the whole group, type, count, first vector).
REGENERATE_SEARCHES = [
    ("g64", "g1,g2,g3,g4", "[0;2^5]", 11520, (1, 2, 3, 4, 28)),
    ("g256b", "g1,g2,g3", "[0;4^3]", 192, (1, 2, 3)),
    ("h768", "g1*g2*g1^-1,g2,(g2*g2*g1)^2", "[0;3,3,4]", 16, (1, 2, 26)),
    ("h768", None, "[0;2,3,8]", 4, (1, 2, 7)),
]


@pytest.fixture(scope="module")
def search_group(data_dir):
    whole = {name: realize_group(load_group_record(data_dir / f"{name}.json"))
             for name in ("g64", "g256b", "h768")}

    def group(name, words):
        G = whole[name]
        if words is None:
            return G
        seeds = [resolve_word(G, w) for w in words.split(",")]
        return subgroup_as_group(subgroup_generated(G, seeds))

    return group


@pytest.mark.parametrize("name,words,type_text,count,first", REGENERATE_SEARCHES,
                         ids=lambda x: str(x))
def test_regenerate_searches_are_pinned(search_group, name, words, type_text, count, first):
    found = search_generating_vectors(search_group(name, words), parse_cover_type(type_text))
    assert len(found) == count
    assert found[0].entries == first


def test_the_g64_search_is_pinned_in_full(search_group):
    # The exhaustive oracle below skips this scan, and the pin above reads
    # only its count and first vector; this digest covers all 11,520 vectors
    # in scan order, so a change to the orderly pruning shows here.
    name, words, type_text = REGENERATE_SEARCHES[0][:3]
    found = search_generating_vectors(search_group(name, words), parse_cover_type(type_text))
    assert found[-1].entries == (31, 27, 24, 11, 4)
    assert hashlib.sha256(repr([v.entries for v in found]).encode()).hexdigest() == (
        "85a7dc67cc68502cf9492a4b8da1890ee94e697be0104766b3762892be32f3c2")


@pytest.mark.parametrize("search,leaves", zip(REGENERATE_SEARCHES, (182_505, 1152, 256, 768)),
                         ids=lambda x: str(x))
def test_regenerate_searches_are_far_under_the_leaf_budget(search_group, monkeypatch,
                                                           search, leaves):
    name, words, type_text = search[:3]
    assert MAX_SEARCH_LEAVES >= 50 * leaves
    monkeypatch.setattr(covering, "MAX_SEARCH_LEAVES", leaves - 1)
    with pytest.raises(BudgetExceeded, match=f" {leaves} candidates"):
        search_generating_vectors(search_group(name, words), parse_cover_type(type_text))


LIMITS = (None, 1, 2, 5)


@pytest.mark.parametrize("fixture,type_text", [
    ("d4", "[0;4,4]"), ("d4", "[0;2,2,4]"), ("d4", "[0;2,2,2,2]"), ("d4", "[0;4,4,2]"),
    ("d4", "[0;2^5]"), ("s4", "[0;2^5]"),
    ("s3", "[0;2,2,3]"), ("s3", "[0;2,3,2]"), ("s3", "[0;3,3,3]"), ("s3", "[0;2,2,2,2]"),
    ("s4", "[0;2,3,4]"), ("s4", "[0;2,4,4]"), ("s4", "[0;3,3,4]"), ("s4", "[0;2,2,2,3]"),
])
def test_search_matches_exhaustive_oracle(request, fixture, type_text):
    G = request.getfixturevalue(fixture)
    ctype = parse_cover_type(type_text)
    expected = generating_vector_entries(G, ctype)
    for limit in LIMITS:
        found = search_generating_vectors(G, ctype, limit=limit)
        assert [v.entries for v in found] == expected[:limit]


@pytest.mark.parametrize("name,words,type_text", [case[:3] for case in REGENERATE_SEARCHES[1:]],
                         ids=lambda x: str(x))
def test_regenerate_searches_match_exhaustive_oracle(search_group, name, words, type_text):
    G = search_group(name, words)
    ctype = parse_cover_type(type_text)
    expected = generating_vector_entries(G, ctype, search_group(name, None))
    for limit in LIMITS:
        found = search_generating_vectors(G, ctype, limit=limit)
        assert [v.entries for v in found] == expected[:limit]
        drawn = islice(generating_vectors(G, ctype), limit)
        assert [v.entries for v in drawn] == expected[:limit]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_search_matches_exhaustive_oracle_on_random_groups(data):
    degree = data.draw(st.integers(min_value=2, max_value=5))
    gens = data.draw(st.lists(st.permutations(range(1, degree + 1)), min_size=1, max_size=2))
    G = closure([Permutation(tuple(g)) for g in gens])
    orders = sorted({G.order_of(i) for i in range(1, G.order)})
    assume(orders)
    ctype = CoverType(0, tuple(data.draw(st.lists(st.sampled_from(orders),
                                                  min_size=2, max_size=4))))
    limit = data.draw(st.sampled_from(LIMITS))
    found = search_generating_vectors(G, ctype, limit=limit)
    assert [v.entries for v in found] == generating_vector_entries(G, ctype)[:limit]


@pytest.mark.parametrize("search", REGENERATE_SEARCHES[:2], ids=lambda x: str(x))
def test_pruned_search_cuts_the_full_scan_at_each_limit(search_group, search):
    # [0;2^5] has 11,520 vectors and [0;4^3] 192, so 500 cuts the first only.
    name, words, type_text = search[:3]
    G = search_group(name, words)
    ctype = parse_cover_type(type_text)
    full = [v.entries for v in search_generating_vectors(G, ctype)]
    for limit in (1, 2, 17, 500):
        found = search_generating_vectors(G, ctype, limit=limit)
        assert [v.entries for v in found] == full[:limit]


def test_pruned_search_skips_subtrees_without_a_kept_vector(search_group, monkeypatch):
    # The unpruned scan joins 2,501 spans on [0;2^5]; a prefix with a smaller
    # centralizer conjugate has its subtree, and its joins, skipped.
    calls = []

    def counting(G, seeds):
        calls.append(len(seeds))
        return subgroup_generated(G, seeds)

    name, words, type_text = REGENERATE_SEARCHES[0][:3]
    G = search_group(name, words)
    monkeypatch.setattr(covering, "subgroup_generated", counting)
    assert len(search_generating_vectors(G, parse_cover_type(type_text))) == 11520
    assert 0 < len(calls) < 2501
