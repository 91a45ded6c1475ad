"""Span tracer that wraps mixedsurf's public functions from outside the package.

Modules import each other's functions by name (``from .perm import closure``),
so a function is replaced in every ``mixedsurf`` module namespace that binds
it, and restored the same way.  Each call of a wrapped function records one
span: name, start, end, parent span and job id.  Hot leaf functions are kept
as an aggregate time and count per job instead; their time is charged to the
enclosing span as covered time, so self times stay disjoint.  Spans are kept
in memory and handed over when the worker stops.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Functions recorded as one span per call, by module of src/mixedsurf.
SPANS = {
    "perm": ("closure", "derived_subgroup", "fingerprint", "subgroup_as_group",
             "conjugacy_classes"),
    "files": ("load_group_record", "realize_group", "verify_group", "load_group",
              "build_surface", "resolve_word"),
    "covering": ("search_generating_vectors", "covering_data", "fixed_point_table",
                 "stabilizer_set", "validate_generating_vector"),
    "surface": ("assemble_surface", "build_mixed_action", "derive_induced_vectors",
                "transport_embedding", "check_free_action"),
    "divisors": ("graph_orbits", "intersection_table"),
    "cone": ("cone_report",),
    "coset": ("todd_coxeter",),
    "expected": ("compare_family",),
    "cli": ("run",),
}

# Leaf functions called up to hundreds of thousands of times per pass: a span
# per call would cost more than the call (it slowed a search by a third).
HOT = {"perm": ("subgroup_generated", "conjugacy_class")}

# Work counts taken from a span's result, keyed by span name.
RESULT_COUNTS = {
    "perm.closure": (("elements", lambda group: group.order),),
    "covering.search_generating_vectors": (("found", len),),
    "divisors.intersection_table": (
        ("pairs", lambda table: sum(a.n * b.n for i, a in enumerate(table.divisors)
                                    for b in table.divisors[i:])),),
}

# Span record fields.
NAME, START, END, PARENT, JOB, HOT_TIME = range(6)


class Tracer:
    """Installs wrappers around the traced functions and keeps what they record."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self):
        for layer, names in SPANS.items():
            for name in names:
                self._patch(layer, name, self._span_wrapper)
        for layer, names in HOT.items():
            for name in names:
                self._patch(layer, name, self._hot_wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _patch(self, layer: str, name: str, make_wrapper):
        original = getattr(importlib.import_module(f"mixedsurf.{layer}"), name)
        wrapper = make_wrapper(f"{layer}.{name}", original)
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "mixedsurf" or key.startswith("mixedsurf.")]
        for namespace in namespaces:
            for attr in [a for a, v in vars(namespace).items() if v is original]:
                setattr(namespace, attr, wrapper)
                self._patches.append((namespace, attr, original))

    def _span_wrapper(self, name: str, fn):
        counters = RESULT_COUNTS.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[END] = perf_counter()
                stack.pop()
                self.counts[self.job][f"{name}.errors"] += 1
                raise
            record[END] = perf_counter()
            stack.pop()
            for suffix, measure in counters:
                self.counts[self.job][f"{name}.{suffix}"] += measure(result)
            return result

        return wrapper

    def _hot_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                counts = self.counts[self.job]
                counts[f"{name}.self_s"] += spent
                counts[f"{name}.calls"] += 1
                if self._stack:
                    self.spans[self._stack[-1]][HOT_TIME] += spent

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans and hot calls cover."""
    covered = [span[HOT_TIME] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def layer_metrics(spans, counts: dict, jobs) -> dict[str, float]:
    """Per-layer totals over the given job ids: self time and calls per traced
    function and per module, plus the recorded work counts."""
    jobs = set(jobs)
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if span[JOB] in jobs:
            name = span[NAME]
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
            out[f"{name.split('.')[0]}.self_s"] += own
    for job in jobs:
        for key, value in counts.get(job, {}).items():
            out[key] += value
            if key.endswith(".self_s"):  # only hot functions count time here
                out[f"{key.split('.')[0]}.self_s"] += value
    return out
