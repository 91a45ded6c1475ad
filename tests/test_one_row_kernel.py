"""One kernel builds every Cayley row, and only ``perm`` calls it.

``perm._build_rows`` is the only function that packs rows: a group's row
store is filled by it, one gather and one pack per row, whether a row is
read alone, along another group's tree or as the whole table.  Outside
``perm``, ``divisors`` asks a group for the rows at G0's image with
``FiniteGroup.rows_at`` instead of gathering or packing rows itself, and
reads no whole table.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import mixedsurf

SOURCE = Path(mixedsurf.__file__).resolve().parent


def _readers(path: Path) -> dict[str, list[str]]:
    """For each name or attribute, the innermost named functions that read
    it, once per read; a read outside any function is listed as ``<module>``."""
    readers: dict[str, list[str]] = defaultdict(list)

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            readers[node.id].append(scope)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            readers["." + node.attr].append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "<module>")
    return readers


def test_one_function_packs_rows():
    readers = _readers(SOURCE / "perm.py")
    assert readers["Struct"] == ["_build_rows"]
    assert sorted(set(readers["_build_rows"])) == ["rows", "rows_at"]


def test_divisors_asks_perm_for_the_rows_at_g0s_image():
    readers = _readers(SOURCE / "divisors.py")
    assert ".rows_at" in readers and set(readers[".rows_at"]) == {"graph_orbits"}
    assert ".rows" not in readers
    assert not {"Struct", "array", "pack"} & set(readers)
