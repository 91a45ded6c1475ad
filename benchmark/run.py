"""mixedsurf benchmark: one workload, timed end to end or traced per layer.

    python3 benchmark/run.py --workload session --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports mixedsurf from ``src`` and
needs no build.  One process drives one worker process at a time (a closed
loop with one client).  A pass runs the workload's job list once, in an
order shuffled by ``--seed``; passes repeat until ``--seconds`` is spent.
Every job's output is checked against ``golden.json``.

The host's speed drifts by tens of percent within a minute, so before each
job the worker times a fixed speed probe that uses no mixedsurf code.  Every
reported time is scaled by ``NOMINAL_PROBE_S`` over the run's mean probe
time: it is the time on a host where the probe takes ``NOMINAL_PROBE_S``.
The header line before the result gives the scale factor and raw times.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
``per_layer`` metrics: medians over traced passes of per-pass totals, and
the tracing overhead.  It also writes every span to ``benchmark/traces/``.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import JOBS, ROOT, check, job_key, load_golden, passes

HERE = Path(__file__).resolve().parent
TRACE_DIR = HERE / "traces"
MIN_PASSES = {False: 1, True: 2}   # a traced run needs an untraced and a traced pass
NOMINAL_PROBE_S = 0.025
MIN_SETUP_SAMPLES = 5   # worker starts per run; set-up-only starts make up the rest


class WorkerError(RuntimeError):
    pass


class Worker:
    """A ``worker.py`` process; ``setup_s`` is the time from spawn until it is ready."""

    def __init__(self, workload: str):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            self._read()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.kill()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def _send(self, message: dict):
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def run(self, job_id: int, job, trace: bool) -> dict:
        self._send({"id": job_id, "job": list(job), "trace": trace})
        return self._read()

    def stop(self) -> dict:
        """Collect the worker's spans and counts, and wait for it to exit."""
        self._send({"stop": True})
        final = self._read()
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def percentile(values, share: float) -> float:
    """Nearest-rank percentile: a value that was measured, never interpolated."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.golden = load_golden()
        self.setup: list[float] = []
        self.job_seconds: list[float] = []      # untraced jobs only
        self.probes: list[float] = []
        self.rss_mb: list[float] = []           # per worker, after its last job
        self.passes: list[tuple[bool, float, list]] = []   # (traced, seconds, [(id, job)])
        self.traces: list[tuple[list, dict]] = []          # (spans, counts) per worker
        self.attempted = self.failed = 0

    def start(self) -> Worker:
        worker = Worker(self.workload)
        self.setup.append(worker.setup_s)
        return worker

    def finish(self, worker: Worker):
        final = worker.stop()
        self.rss_mb.append(final["rss_mb"])
        self.traces.append((final["spans"],
                            {int(k): v for k, v in final["counts"].items()}))

    def job(self, worker: Worker, job, traced: bool, done: list) -> float:
        """Run and check one job; returns the time its speed probes took."""
        job_id = self.attempted
        reply = worker.run(job_id, job, traced)
        self.attempted += 1
        if not check(self.golden, job, reply["result"]):
            self.failed += 1
            print(f"mismatch: {job_key(job)}", file=sys.stderr)
        if not traced:
            self.job_seconds.append(reply["seconds"])
        self.probes.extend(reply["probes"])
        done.append((job_id, job))
        return sum(reply["probes"])

    def run_pass(self, order, traced: bool, long_lived: Worker | None):
        """Run one pass; returns its jobs and the time their probes took."""
        done: list = []
        probes = 0.0
        if long_lived is not None:
            for job in order:
                probes += self.job(long_lived, job, traced, done)
        elif self.workload == "reproduce-cold":
            for job in order:
                with self.start() as worker:
                    probes += self.job(worker, job, traced, done)
                    self.finish(worker)
        else:
            with self.start() as worker:
                for job in order:
                    probes += self.job(worker, job, traced, done)
                self.finish(worker)
        return done, probes

    def measure(self):
        long_lived = self.start() if self.workload == "session" else None
        try:
            start = time.perf_counter()
            for n, order in enumerate(passes(self.workload, self.seed)):
                if n >= MIN_PASSES[self.trace]:
                    typical = statistics.median(p[1] for p in self.passes)
                    if time.perf_counter() - start + typical / 2 > self.seconds:
                        break
                traced = self.trace and n % 2 == 1
                began = time.perf_counter()
                done, probes = self.run_pass(order, traced, long_lived)
                self.passes.append((traced, time.perf_counter() - began - probes, done))
            if long_lived is not None:
                self.finish(long_lived)
        finally:
            if long_lived is not None:
                long_lived.kill()
        while len(self.setup) < MIN_SETUP_SAMPLES:
            with self.start() as worker:
                worker.stop()

    def scale(self) -> float:
        """Factor that turns this run's times into times at the nominal speed."""
        return NOMINAL_PROBE_S / statistics.fmean(self.probes)

    def pass_seconds(self, traced: bool) -> float:
        return statistics.median(p[1] for p in self.passes if p[0] == traced)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup),
            "pass_s": self.pass_seconds(False),
            "job_s.p50": percentile(self.job_seconds, 0.50),
            "job_s.p75": percentile(self.job_seconds, 0.75),
            "rss_mb": max(self.rss_mb),
        }

    def per_layer(self) -> dict[str, float]:
        per_pass = []
        for traced, _, done in self.passes:
            if traced:
                ids = [job_id for job_id, _ in done]
                totals: dict[str, float] = {}
                for spans, counts in self.traces:
                    for key, value in layer_metrics(spans, counts, ids).items():
                        totals[key] = totals.get(key, 0.0) + value
                per_pass.append(totals)
        names = set().union(*per_pass)
        out = {name: statistics.median(p.get(name, 0.0) for p in per_pass) for name in names}
        assembled = out.get("surface.assemble_surface.calls", 0.0)
        out["files.build_surface.assemble_yield"] = (
            out.get("files.build_surface.calls", 0.0) / assembled if assembled else 0.0)
        out["trace.overhead_s"] = self.pass_seconds(True) - self.pass_seconds(False)
        return out

    def write_trace(self):
        TRACE_DIR.mkdir(exist_ok=True)
        record = {
            "workload": self.workload, "seed": self.seed,
            "scale": self.scale(),
            "passes": [{"traced": t, "seconds": s, "jobs": [[i, list(j)] for i, j in done]}
                       for t, s, done in self.passes],
            "workers": [{"spans": spans, "counts": counts} for spans, counts in self.traces],
        }
        path = TRACE_DIR / f"{self.workload}-seed{self.seed}.json"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "mixedsurf" / "__init__.py").is_file():
        print(f"no mixedsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.measure()
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values, wanted = run.per_layer(), spec["per_layer"]
        run.write_trace()
    else:
        values, wanted = run.end_to_end(), spec["end_to_end"]
    scale = run.scale()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(run.passes)} jobs={run.attempted} setup_samples={len(run.setup)} "
          f"scale={scale:.4f} raw: " + " ".join(
              f"{m['name']}={values.get(m['name'], 0.0):.6g}"
              for m in wanted if m["unit"] == "s"))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0)
                                * (scale if m["unit"] == "s" else 1.0),
                                "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
