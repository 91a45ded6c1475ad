"""Job lists of the three benchmark workloads and the checks on their outputs.

A job is a list of strings.  On ``reproduce-cold`` and ``session`` it is the
argument list of one ``mixedsurf`` command, run through ``cli.run``; on
``regenerate`` it names one library kernel behind ``scripts/make_data.py``
(see ``worker.py``).  Every pass runs the workload's whole job list once, in
an order drawn from the seeded generator; the seed never changes the list.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = "src/mixedsurf/data"
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _data(name: str) -> str:
    return f"{DATA}/{name}.json"


JOBS: dict[str, tuple[tuple[str, ...], ...]] = {
    # What a reader of the paper runs; each job in a fresh worker process.
    "reproduce-cold": tuple(("reproduce", str(k)) for k in range(1, 6)),
    # How the tests and make_data.py's self-check drive the library: one
    # long-lived worker, so group files repeat inside one process.
    "session": (
        *(("cone", "--format", "record", _data(f"family{k}")) for k in range(1, 6)),
        ("cone", "--format", "record", _data("family2_search")),
        *(("divisors", "--g0-only", "--format", "record", _data(f"family{k}"))
          for k in range(2, 6)),
        ("surface", _data("family1_nonfree")),
        ("surface", _data("toy_z4")),
        ("reproduce", "3"),
    ),
    # The kernels behind make_data.py: coset enumeration of the order-768
    # presentation and exhaustive vector searches, one fresh worker per pass.
    "regenerate": (
        ("todd_coxeter", "h768"),
        ("search", "g64", "g1,g2,g3,g4", "[0;2^5]"),
        ("search", "g256b", "g1,g2,g3", "[0;4^3]"),
        # H' = [H,H], generated by the [0;3,3,4] vector that family 2's
        # [0;2,3,8] vector (g1, g2, g2*g2*g1) induces.  derived_subgroup lists
        # all 383 members as generators, and closing over those takes 43 s.
        ("search", "h768", "g1*g2*g1^-1,g2,(g2*g2*g1)^2", "[0;3,3,4]"),
        ("search", "h768", "H", "[0;2,3,8]"),
    ),
}


def passes(workload: str, seed: int):
    """Endless sequence of job lists, each a seeded shuffle of the workload's jobs."""
    rng = random.Random(seed)
    while True:
        order = list(JOBS[workload])
        rng.shuffle(order)
        yield order


def job_key(job) -> str:
    return " ".join(job)


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def check(golden: dict, job, result: dict) -> bool:
    """True when a job's result equals the golden one.

    ``reproduce-cold`` and ``session`` results are the exit code and the exact
    stdout; a ``regenerate`` result is the search's vector count and first
    vector, or the enumerated group's order and fingerprint, which must also
    equal the fingerprint recorded in the bundled ``h768.json``.
    """
    want = golden.get(job_key(job))
    if want is None or result != want:
        return False
    if job[0] == "todd_coxeter":
        with open(ROOT / _data(job[1]), encoding="utf-8") as fh:
            return result["fingerprint"] == json.load(fh)["fingerprint"]
    return True
