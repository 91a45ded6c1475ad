"""Outside ``perm.py``, code reads no attribute starting with ``_`` but its own.

``perm.py`` owns the group's private fields (parents and generator steps);
every other module and script goes through the public ``rows``,
``inverses`` and ``orders``.  Dunder names such as ``__getitem__`` are
public protocol, not private fields.
"""

from __future__ import annotations

import ast
from pathlib import Path

import mixedsurf

SOURCE = Path(mixedsurf.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _private_reads(paths: list[Path]) -> list[str]:
    if not paths:
        raise FileNotFoundError("no Python files to check")
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not (node.attr.startswith("__") and node.attr.endswith("__"))
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in ("self", "cls"))]
    return found


def test_package_reads_no_private_attributes_outside_perm():
    found = _private_reads([p for p in sorted(SOURCE.glob("*.py")) if p.name != "perm.py"])
    assert not found, f"private attribute reads: {found}"


def test_scripts_read_no_private_attributes():
    found = _private_reads(sorted(SCRIPTS.glob("*.py")))
    assert not found, f"private attribute reads: {found}"
