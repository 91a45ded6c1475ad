"""Importing the CLI loads none of the slow standard-library modules, and
not the coset enumerator, which only ``scripts/make_data.py`` calls.

Every ``reproduce`` run starts a fresh interpreter, so each module the
package imports is paid for on every run.  ``dataclasses`` alone pulled in
``inspect``, ``ast``, ``dis`` and ``tokenize``.  The check runs under
``python -S``: modules that ``site`` or a ``.pth`` file load on some hosts
cannot hide an import by the package.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import mixedsurf

SOURCE_ROOT = Path(mixedsurf.__file__).resolve().parent.parent
SLOW_MODULES = ("dataclasses", "inspect", "importlib.resources", "mixedsurf.coset")


def test_cli_import_loads_no_slow_modules():
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import mixedsurf.cli; "
              "print(*[m for m in sys.argv[2:] if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", script, str(SOURCE_ROOT), *SLOW_MODULES],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
