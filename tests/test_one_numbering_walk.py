"""One walk numbers every group, closed or realized.

``perm._number`` is the only layered walk in ``perm``: it numbers the
elements breadth first, each layer sorted by key, and derives the BFS
parents by ``perm._right_steps``.  ``closure`` only finds the elements, and
a realization only reads its parent's rows; both hand the numbering to
``_number``.  A second copy of the walk would have to call ``_right_steps``
itself, and this guard refuses that.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import mixedsurf

PERM = Path(mixedsurf.__file__).resolve().parent / "perm.py"


class _References(ast.NodeVisitor):
    """For each name, the innermost named function that reads it, once per
    read; a read outside any function is listed as ``<module>``."""

    def __init__(self):
        self.scope = ["<module>"]
        self.readers: dict[str, list[str]] = defaultdict(list)

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.readers[node.id].append(self.scope[-1])


def _readers(path: Path) -> dict[str, list[str]]:
    refs = _References()
    refs.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return refs.readers


def test_right_steps_are_read_by_the_one_numbering_walk():
    assert _readers(PERM)["_right_steps"] == ["_number"]


def test_closure_and_the_realization_share_the_numbering_walk():
    assert sorted(_readers(PERM)["_number"]) == ["_realize_subgroup", "closure"]
