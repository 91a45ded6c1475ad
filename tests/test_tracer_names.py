"""Every function the benchmark's span tracer wraps still exists.

``benchmark/tracer.py`` patches ``mixedsurf`` functions by module and name,
so renaming or deleting one of them would break ``benchmark/run.py --trace
1`` only when it runs.  The tracer's source is run on its own, without
installing the tracer or writing its bytecode next to it.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


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
