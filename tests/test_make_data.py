"""Regeneration is deterministic: ``scripts/make_data.py`` rebuilds all
thirteen bundled data files byte for byte.  Its isomorphism split through
G0 agrees with a search over generator images of the whole extension
groups (``oracles.iso_test``).
"""

from __future__ import annotations

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mixedsurf.perm import Permutation, closure, homomorphisms
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
