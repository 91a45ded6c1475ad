"""Regeneration is deterministic: ``scripts/make_data.py`` rebuilds the
bundled toy and family-1 files byte for byte.

Families 2-5 are left out: their isomorphism split takes minutes
(``python scripts/make_data.py --out DIR`` regenerates all thirteen files).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_data.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("make_data", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_and_family1_regenerate_byte_identical(tmp_path, data_dir):
    make_data = _load_script()
    make_data.make_toy(tmp_path)
    make_data.make_family_1(tmp_path)
    names = ("toy_z4_group.json", "toy_z4.json", "g64.json", "family1.json",
             "family1_nonfree.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name
