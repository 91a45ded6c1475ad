"""Each memo a group keeps by ``FiniteGroup.kept`` has a tag of its own.

Every ``.kept(`` call in the package passes a tuple key whose first item is
a string literal, and no two calls share that literal.  All of a group's
memos share one dict, so two of them could otherwise meet under one key
and one would return the other's value.
"""

from __future__ import annotations

import ast
from pathlib import Path

import mixedsurf

SOURCE = Path(mixedsurf.__file__).resolve().parent


def _kept_tags(paths: list[Path]) -> list[str]:
    """The tag of each ``.kept(`` call, in file order; a call without a
    literal tag adds its location instead."""
    if not paths:
        raise FileNotFoundError("no Python files to check")
    tags = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "kept"):
                continue
            key = node.args[0] if node.args else None
            if (isinstance(key, ast.Tuple) and key.elts and isinstance(key.elts[0], ast.Constant)
                    and type(key.elts[0].value) is str):
                tags.append(key.elts[0].value)
            else:
                tags.append(f"{path.name}:{node.lineno}: no literal tag")
    return tags


def test_every_kept_call_has_a_tag_of_its_own():
    tags = _kept_tags(sorted(SOURCE.glob("*.py")))
    assert sorted(tags) == ["cover", "span", "subgroup", "tower", "word"], tags
