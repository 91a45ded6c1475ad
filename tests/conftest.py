from __future__ import annotations

import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mixedsurf.cone import ConeReport, cone_report
from mixedsurf.divisors import IntersectionTable, graph_orbits, intersection_table
from mixedsurf.files import build_surface
from mixedsurf.perm import FiniteGroup, Permutation, closure
from mixedsurf.surface import FreenessReport, SurfaceData, check_free_action


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(str(resources.files("mixedsurf").joinpath("data")))


@dataclass(frozen=True)
class FamilyBundle:
    surface: SurfaceData
    freeness: FreenessReport
    table: IntersectionTable
    report: ConeReport


def _bundle(path: Path) -> FamilyBundle:
    surface = build_surface(path)
    freeness = check_free_action(surface)
    orbits = graph_orbits(surface)
    table = intersection_table(orbits, surface)
    return FamilyBundle(surface, freeness, table, cone_report(table))


@pytest.fixture(scope="session")
def family1(data_dir) -> FamilyBundle:
    return _bundle(data_dir / "family1.json")


@pytest.fixture(scope="session")
def family2(data_dir) -> FamilyBundle:
    return _bundle(data_dir / "family2.json")


@pytest.fixture(scope="session")
def families(data_dir, family1, family2) -> dict[int, FamilyBundle]:
    out = {1: family1, 2: family2}
    for k in (3, 4, 5):
        out[k] = _bundle(data_dir / f"family{k}.json")
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
