"""Byte-for-byte comparison with outputs captured before refactoring.

``tests/golden/`` holds, for families 1-5, the bytes of ``divisors
--format record`` and ``cone --format record``, and the stdout of
``surface`` on the two non-free fixtures.  Record bytes are rebuilt from
the session fixtures through the same payload helpers the CLI uses, so the
groups are realized once per family rather than once per command.

The benchmark's golden file, ``benchmark/golden.json``, holds the exit code
and stdout of every command its workloads run; those commands are run twice
in this process, so the second pass reads groups that ``load_group`` kept.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from mixedsurf import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def _golden(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


@pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
def test_divisors_record_matches_golden(families, family):
    got = cli._record_dump(cli._table_payload(families[family].table))
    assert got == _golden(f"divisors_family{family}.record")


@pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
def test_cone_record_matches_golden(families, family):
    got = cli._record_dump(cli._cone_payload(families[family].report))
    assert got == _golden(f"cone_family{family}.record")


@pytest.mark.parametrize("name", ["family1_nonfree", "toy_z4"])
def test_nonfree_surface_output_matches_golden(data_dir, name):
    out = io.StringIO()
    code = cli.run(["surface", str(data_dir / f"{name}.json")], out=out)
    assert code == cli.EXIT_VALIDATION
    assert out.getvalue() == _golden(f"surface_{name}.txt")


def test_benchmark_commands_match_golden_on_a_cold_and_a_warm_pass(fresh_group_memo,
                                                                   monkeypatch):
    golden = json.loads((ROOT / "benchmark" / "golden.json").read_text(encoding="utf-8"))
    commands = {key: want for key, want in golden.items() if "stdout" in want}
    assert len(commands) == 17
    monkeypatch.chdir(ROOT)  # the commands name data files relative to the root
    for _ in range(2):
        for key, want in commands.items():
            out = io.StringIO()
            code = cli.run(key.split(" "), out=out)
            assert {"exit": code, "stdout": out.getvalue()} == want, key
    assert fresh_group_memo
