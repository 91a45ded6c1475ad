"""Tests of the benchmark itself.

    python3 -m pytest benchmark/selftest.py

The file name keeps it out of the repository's default test run; these tests
start the benchmark several times and take about two minutes.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import END, JOB, PARENT, START, Tracer, self_times  # noqa: E402
from workloads import JOBS, ROOT, passes  # noqa: E402

COUNTS = ("perm.closure.elements", "files.realize_group.calls",
          "perm.subgroup_generated.calls", "surface.assemble_surface.calls",
          "divisors.intersection_table.pairs", "covering.search_generating_vectors.found")


def bench(workload: str, seed: int, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def result(workload: str, seed: int, trace: int) -> dict:
    done = bench(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", JOBS)
def test_shortest_run_passes_every_check(workload):
    out = result(workload, 1, 0)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == len(JOBS[workload])
    names = [m["name"] for m in spec()["end_to_end"]]
    assert list(out["metrics"]) == names
    assert all(out["metrics"][n]["value"] > 0 for n in names)


@pytest.mark.parametrize("workload", JOBS)
def test_seed_changes_order_not_multiset(workload):
    orders = set()
    for seed in range(1, 6):
        stream = passes(workload, seed)
        for _ in range(3):
            order = next(stream)
            assert Counter(order) == Counter(JOBS[workload])
            orders.add(tuple(order))
    assert len(orders) > 1
    assert next(passes(workload, 7)) == next(passes(workload, 7))


def test_spans_nest_and_self_times_are_not_negative():
    sys.path.insert(0, str(ROOT / "src"))
    from mixedsurf import cli

    original = cli.run
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = 0
        family1 = str(ROOT / "src" / "mixedsurf" / "data" / "family1.json")
        assert cli.run(["cone", "--format", "record", family1], io.StringIO()) == 0
    finally:
        tracer.uninstall()
    assert cli.run is original

    spans = tracer.spans
    names = {span[0] for span in spans}
    assert {"cli.run", "files.build_surface", "perm.closure", "perm.fingerprint",
            "surface.assemble_surface", "divisors.intersection_table"} <= names
    assert all(span[JOB] == 0 for span in spans)
    for span in spans:
        assert span[START] <= span[END]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] and span[END] <= parent[END]
    assert all(t >= 0 for t in self_times(spans))
    assert tracer.counts[0]["perm.subgroup_generated.calls"] > 0


def test_traced_counts_repeat_exactly():
    first, second = result("session", 1, 1), result("session", 2, 1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in spec()["per_layer"]]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    done = bench("session", 1, 0, root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
