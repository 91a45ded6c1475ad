"""Regeneration is deterministic: ``scripts/make_data.py`` rebuilds all
thirteen bundled data files byte for byte.  Its isomorphism split through
G0 agrees with a search over generator images of the whole extension
groups (``oracles.iso_test``).  Each of the script's raises is reached
once, with one step monkeypatched to go wrong.
"""

from __future__ import annotations

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mixedsurf.errors import IntegrityError, MismatchError
from mixedsurf.perm import Permutation, closure, homomorphisms
from mixedsurf.surface import FreenessReport
from oracles import iso_test

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_data.py"


@pytest.fixture(scope="module")
def make_data():
    spec = importlib.util.spec_from_file_location("make_data", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def regenerated(make_data, tmp_path_factory):
    """The output directory of a full run, and the run's log."""
    out = tmp_path_factory.mktemp("data")
    log = io.StringIO()
    with redirect_stdout(log):
        make_data.main(["--out", str(out)])
    return out, log.getvalue()


def test_all_data_files_regenerate_byte_identical(regenerated, data_dir):
    out, _ = regenerated
    names = sorted(p.name for p in data_dir.glob("*.json"))
    assert len(names) == 13
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (data_dir / name).read_bytes(), name


def test_extension_classes_7_and_15_are_type_b(regenerated):
    _, log = regenerated
    assert "extension isomorphism types: 14 classes of type a, type b at classes [7, 15]" in log


def test_family_1_buckets_the_library_search_by_stabilizer_set(regenerated):
    _, log = regenerated
    assert "family 1: 11520 [0;2^5] vector classes in 48 stabilizer-set buckets" in log


# G0 generated by a vector (v1, v2, (v1 v2)^-1) with v1 and v2 of the same
# order, the layout iso_test expects.
SMALL_G0 = {
    "z2^2": [[(1, 2)], [(3, 4)]],
    "d4": [[(1, 3)], [(1, 2), (3, 4)]],
    "z4xz2": [[(1, 2, 3, 4)], [(1, 2, 3, 4), (5, 6)]],
    "q8": [[(1, 2, 3, 4), (5, 6, 7, 8)], [(1, 5, 3, 7), (2, 8, 4, 6)]],
}


@pytest.mark.parametrize("name", sorted(SMALL_G0))
def test_isomorphism_types_match_iso_test_oracle(make_data, name):
    degree = max(x for cycles in SMALL_G0[name] for cycle in cycles for x in cycle)
    G0 = closure([Permutation.from_cycles(degree, cycles) for cycles in SMALL_G0[name]])
    a, b = G0.generator_indices
    V = (a, b, G0.inv(G0.mul(a, b)))
    members = tuple(range(G0.order))
    auts = list(homomorphisms(G0, V, G0, members))
    # Every pair, not one per class, so that isomorphic pairs occur.
    pairs = make_data.extension_pairs(G0, members, V, auts)
    type_of, groups = make_data.isomorphism_types(G0, members, V, auts, pairs)
    exts = [make_data.build_extension(G0, members, phi, tau, V) for phi, tau in pairs]
    outcomes = set()
    for i, ext_i in enumerate(exts):
        for j, ext_j in enumerate(exts[:i]):
            same = type_of[i] == type_of[j]
            assert same == iso_test(ext_i, ext_j), (i, j)
            outcomes.add(same)
    assert outcomes == {True, False}
    assert len(groups) == max(type_of) + 1
    for t, group in enumerate(groups):
        assert iso_test(exts[type_of.index(t)], group)


# ----------------------------------------------------------------------
# Each raise of the script, reached by a monkeypatched step.

def test_a_wrong_coset_enumeration_is_refused(make_data, monkeypatch):
    z4 = closure([Permutation.from_cycles(4, [(1, 2, 3, 4)])])
    monkeypatch.setattr(make_data, "todd_coxeter", lambda pres, max_cosets: z4)
    with pytest.raises(IntegrityError, match="^coset enumeration gave order 4, expected 768$"):
        make_data.build_h()


def test_a_wrong_family_1_g0_is_refused(make_data, monkeypatch):
    real = make_data.closure
    monkeypatch.setattr(make_data, "closure", lambda gens: real(gens[:3]))
    with pytest.raises(IntegrityError, match="^G0 has order 16, expected 32$"):
        make_data.family_1_g0()


def test_a_wrong_number_of_vector_classes_is_refused(make_data, monkeypatch, tmp_path):
    real = make_data.search_generating_vectors
    monkeypatch.setattr(make_data, "search_generating_vectors",
                        lambda group, cover_type: real(group, cover_type, limit=3))
    with pytest.raises(IntegrityError, match="^expected 4 vector classes, found 3$"):
        make_data.make_families_2_to_5(tmp_path)


def no_automorphisms(monkeypatch, make_data):
    """Skip the automorphism search: no automorphism, so no (phi, tau) pair."""
    monkeypatch.setattr(make_data, "homomorphisms", lambda *args: iter(()))


def test_classes_with_different_stabilizer_sets_are_refused(make_data, monkeypatch, tmp_path):
    no_automorphisms(monkeypatch, make_data)
    real = make_data.covering_data
    seen = []

    def first_cover_unramified(v):
        seen.append(v)
        cov = real(v)
        return cov._replace(sigma_v=frozenset({0})) if len(seen) == 1 else cov

    monkeypatch.setattr(make_data, "covering_data", first_cover_unramified)
    with pytest.raises(IntegrityError,
                       match="^the vector classes induce different stabilizer sets$"):
        make_data.make_families_2_to_5(tmp_path)
    assert len(seen) == 4


def test_a_wrong_number_of_extension_types_is_refused(make_data, monkeypatch, tmp_path):
    no_automorphisms(monkeypatch, make_data)
    with pytest.raises(IntegrityError,
                       match="^expected two extension isomorphism types, found 0$"):
        make_data.make_families_2_to_5(tmp_path)
    assert not any(tmp_path.iterdir())


def first_family_1_vectors(monkeypatch, make_data):
    """The family-1 search stops at its first two vector classes."""
    real = make_data.search_generating_vectors
    monkeypatch.setattr(make_data, "search_generating_vectors",
                        lambda group, cover_type: real(group, cover_type, limit=2))


def test_family_1_without_free_data_is_refused(make_data, monkeypatch, tmp_path):
    no_automorphisms(monkeypatch, make_data)
    first_family_1_vectors(monkeypatch, make_data)
    with pytest.raises(IntegrityError, match="^no free family-1 data found$"):
        make_data.make_family_1(tmp_path)


def test_family_1_without_a_non_free_vector_is_refused(make_data, monkeypatch, tmp_path):
    monkeypatch.setattr(make_data, "free", lambda *args: True)
    first_family_1_vectors(monkeypatch, make_data)
    with pytest.raises(IntegrityError, match="^no non-free family-1 vector found$"):
        make_data.make_family_1(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["family1.json", "g64.json"]


def test_self_check_refuses_a_failed_expectation(make_data, regenerated, monkeypatch):
    out, _ = regenerated
    monkeypatch.setattr(make_data, "compare_family",
                        lambda expected, bundle: [("genus", False, "g(C) = 8, expected 9")])
    message = r"^family 1 self-check failed: \[\('genus', 'g\(C\) = 8, expected 9'\)\]$"
    with pytest.raises(MismatchError, match=message):
        make_data.self_check(out)


def test_self_check_refuses_a_free_negative_fixture(make_data, regenerated, monkeypatch):
    out, _ = regenerated
    monkeypatch.setattr(make_data, "run_pipeline", lambda path: None)
    monkeypatch.setattr(make_data, "compare_family", lambda expected, bundle: [])
    monkeypatch.setattr(make_data, "check_free_action",
                        lambda surface: FreenessReport(True, True, None, None))
    message = "^family1_nonfree: the action is free, expected a freeness witness$"
    with pytest.raises(MismatchError, match=message):
        make_data.self_check(out)
