"""Exactness checks must raise typed errors, which ``python -O`` keeps."""

from __future__ import annotations

import ast
from pathlib import Path

import mixedsurf

SOURCE = Path(mixedsurf.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _assert_statements(directory: Path) -> list[str]:
    paths = sorted(directory.glob("*.py"))
    if not paths:
        raise FileNotFoundError(f"no Python files in {directory}")
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    return found


def test_package_has_no_assert_statements():
    found = _assert_statements(SOURCE)
    assert not found, f"bare assert statements: {found}"


def test_scripts_have_no_assert_statements():
    # make_data.py's construction checks and self-check must hold under -O too.
    found = _assert_statements(SCRIPTS)
    assert not found, f"bare assert statements: {found}"
