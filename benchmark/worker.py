"""Benchmark worker: runs jobs sent by ``run.py`` over JSON lines.

    python3 benchmark/worker.py <workload>

Started by ``run.py``, never by hand.  The worker imports mixedsurf from the
checkout's ``src``, loads the workload's inputs and writes ``{"ready": true}``.
Each request line ``{"id": n, "job": [...], "trace": bool}`` is answered with
``{"id": n, "seconds": t, "probes": [p, q], "result": {...}}``: the job's own
time and the times of the speed probes run just before and just after it.
``{"stop": true}`` is answered with the worker's private resident memory and the
tracer's spans and counts, after which the worker exits.
"""

from __future__ import annotations

import gc
import io
import json
import os
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Library functions are called through their modules, where the tracer
# replaces them.
from mixedsurf import cli, coset, covering, files, perm  # noqa: E402
from mixedsurf.words import Presentation, normalize_word, word_power  # noqa: E402

from tracer import Tracer  # noqa: E402

REGENERATE_GROUPS = ("g64", "g256b", "h768")

_rng = random.Random(0)
PROBE_PERMS = tuple(tuple(_rng.sample(range(128), 128)) for _ in range(8))


def speed_probe() -> float:
    """Time a fixed pure-Python kernel of permutation products.

    The machine's speed drifts by tens of percent within a minute, and the
    probe follows it; ``run.py`` scales reported times by it.  It uses no
    mixedsurf code and runs with the collector off, so neither the program
    nor the size of its heap changes the probe's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc, seen = PROBE_PERMS[0], {}
        for i in range(3000):
            acc = tuple(acc[j] for j in PROBE_PERMS[i & 7])
            seen[acc] = i
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def private_mb() -> float:
    """Resident memory not backed by files: the heap, without the interpreter's
    mapped code, whose residency depends on the host's page cache."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident, shared = (int(x) for x in fh.read().split()[1:3])
    return (resident - shared) * os.sysconf("SC_PAGE_SIZE") / 2**20


def h768_presentation() -> Presentation:
    """The (2,3,8) triangle-group quotient of order 768 that make_data.py enumerates."""
    return Presentation(("x", "y"), (
        normalize_word([("x", 2)]),
        normalize_word([("y", 3)]),
        word_power(normalize_word([("x", 1), ("y", 1)]), 8),
        word_power(normalize_word([("x", 1), ("y", 1)] * 2 + [("x", 1), ("y", 2)]), 4),
    ))


def run_cli(job) -> dict:
    out = io.StringIO()
    code = cli.run(list(job), out)
    return {"exit": code, "stdout": out.getvalue()}


def run_kernel(groups: dict, job) -> dict:
    if job[0] == "todd_coxeter":
        group = coset.todd_coxeter(h768_presentation(), max_cosets=60000)
        return {"order": group.order, "fingerprint": perm.fingerprint(group).as_dict()}
    _, group_name, span, type_text = job
    group = groups[group_name]
    if span != "H":
        seeds = [files.resolve_word(group, w) for w in span.split(",")]
        group = perm.subgroup_as_group(perm.subgroup_generated(group, seeds))
    found = covering.search_generating_vectors(group, covering.parse_cover_type(type_text))
    return {"found": len(found), "first": list(found[0].entries) if found else None}


def main(workload: str):
    data = ROOT / "src" / "mixedsurf" / "data"
    groups = {}
    if workload == "regenerate":
        groups = {name: files.realize_group(files.load_group_record(data / f"{name}.json"))
                  for name in REGENERATE_GROUPS}
    tracer = Tracer()
    tracing = False

    def reply(message: dict):
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    reply({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("stop"):
            reply({"rss_mb": private_mb(), "spans": tracer.spans,
                   "counts": {str(k): dict(v) for k, v in tracer.counts.items()}})
            return
        if request["trace"] != tracing:
            if request["trace"]:
                tracer.install()
            else:
                tracer.uninstall()
            tracing = request["trace"]
        tracer.job = request["id"]
        job = request["job"]
        before = speed_probe()
        start = perf_counter()
        result = run_kernel(groups, job) if workload == "regenerate" else run_cli(job)
        seconds = perf_counter() - start
        reply({"id": request["id"], "seconds": seconds, "probes": [before, speed_probe()],
               "result": result})


if __name__ == "__main__":
    main(sys.argv[1])
