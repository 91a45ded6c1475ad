"""Exactness checks must raise typed errors, which ``python -O`` keeps."""

from __future__ import annotations

import ast
from pathlib import Path

import mixedsurf

SOURCE = Path(mixedsurf.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"
