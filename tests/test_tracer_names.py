"""Every function the benchmark's span tracer wraps or its worker calls still exists.

``benchmark/tracer.py`` patches ``mixedsurf`` functions by module and name,
so renaming or deleting one of them would break ``benchmark/run.py --trace
1`` only when it runs.  The tracer's source is run on its own, without
installing the tracer or writing its bytecode next to it.  The worker's
source is only parsed: a name it calls that is gone would otherwise show
as a failed run of the benchmark, not as a failed test.
"""

from __future__ import annotations

import ast
import importlib
import runpy
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
TRACER = BENCHMARK / "tracer.py"
WORKER = BENCHMARK / "worker.py"


def _tracer() -> dict:
    return runpy.run_path(str(TRACER))


def test_every_traced_name_is_a_function_of_its_module():
    tracer = _tracer()
    missing = [f"{layer}.{name}"
               for table in (tracer["SPANS"], tracer["HOT"])
               for layer, names in table.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"mixedsurf.{layer}"), name, None))]
    assert not missing, f"names the tracer wraps but mixedsurf lacks: {missing}"


def test_every_result_count_belongs_to_a_traced_span():
    tracer = _tracer()
    spans = {f"{layer}.{name}" for layer, names in tracer["SPANS"].items() for name in names}
    assert set(tracer["RESULT_COUNTS"]) <= spans


def test_every_library_name_the_worker_calls_exists():
    # The worker reads functions as attributes of the modules it imports
    # from mixedsurf (``files.realize_group``), and imports some by name.
    tree = ast.parse(WORKER.read_text(encoding="utf-8"), filename=str(WORKER))
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mixedsurf":
            modules.update((a.asname or a.name, f"mixedsurf.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mixedsurf."):
            names += [(node.module, a.name) for a in node.names]
    names += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    assert modules and names, "the worker's mixedsurf imports were not found"
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, f"names the benchmark worker calls but mixedsurf lacks: {missing}"
