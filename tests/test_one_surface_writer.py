"""Scripts write surface files through ``files.save_surface_file`` only.

``files`` owns the surface-file format: ``load_surface_record`` reads it
and ``save_surface_file`` writes it from the same fields.  A script that
spells the format's own field names builds the JSON by hand, a second
writer that the reader's checks never see.
"""

from __future__ import annotations

import ast
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
FORMAT_FIELDS = {"g0_generators", "tau_prime", "extra_automorphisms"}


def test_scripts_spell_no_surface_file_field():
    paths = sorted(SCRIPTS.glob("*.py"))
    if not paths:
        raise FileNotFoundError("no Python files to check")
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in FORMAT_FIELDS]
    assert not found, f"surface-file fields spelled outside files.py: {found}"
