from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mixedsurf
from mixedsurf.files import FamilyBundle, run_pipeline
from mixedsurf.perm import FiniteGroup, Permutation, closure


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(mixedsurf.__file__).with_name("data")


@pytest.fixture(scope="session")
def family1(data_dir) -> FamilyBundle:
    return run_pipeline(data_dir / "family1.json")


@pytest.fixture(scope="session")
def family2(data_dir) -> FamilyBundle:
    return run_pipeline(data_dir / "family2.json")


@pytest.fixture(scope="session")
def families(data_dir, family1, family2) -> dict[int, FamilyBundle]:
    out = {1: family1, 2: family2}
    for k in (3, 4, 5):
        out[k] = run_pipeline(data_dir / f"family{k}.json")
    return out


@pytest.fixture(scope="session")
def d4() -> FiniteGroup:
    return closure([Permutation.from_cycles(4, [(1, 2, 3, 4)]),
                    Permutation.from_cycles(4, [(1, 3)])])


@pytest.fixture(scope="session")
def s3() -> FiniteGroup:
    return closure([Permutation.from_cycles(3, [(1, 2)]),
                    Permutation.from_cycles(3, [(1, 2, 3)])])


@pytest.fixture(scope="session")
def s4() -> FiniteGroup:
    return closure([Permutation.from_cycles(4, [(1, 2)]),
                    Permutation.from_cycles(4, [(1, 2, 3, 4)])])


@pytest.fixture(scope="session")
def z2() -> FiniteGroup:
    return closure([Permutation.from_cycles(2, [(1, 2)])])
