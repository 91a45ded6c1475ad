"""The canonical BFS element order of every group the pipeline realizes.

Words, labels and record output are read off element indices, so the order
``closure`` lists elements in (and the BFS parent of each) must not change.
``tests/golden/element_order.json`` holds a sha256 of the element image
list in index order plus the parent list, for the five bundled group files
and for the standalone realization of G0 in families 1-5.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from mixedsurf.files import load_group_record, realize_group
from mixedsurf.perm import FiniteGroup, subgroup_as_group
from oracles import elements_of

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "element_order.json")
                    .read_text(encoding="utf-8"))


def element_order_digest(G: FiniteGroup, parent: FiniteGroup | None = None) -> str:
    """The digest of G's elements, read in ``parent`` for a realization."""
    payload = json.dumps([[list(e.images) for e in elements_of(G, parent)],
                          [list(p) for p in G._parents]], separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", ["g64", "g256a", "g256b", "h768", "toy_z4_group"])
def test_bundled_group_element_order(data_dir, name):
    G = realize_group(load_group_record(data_dir / f"{name}.json"))
    assert element_order_digest(G) == GOLDEN[name]


@pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
def test_g0_realization_element_order(families, family):
    sub = families[family].surface.action.G0
    G0 = subgroup_as_group(sub)
    assert element_order_digest(G0, sub.parent) == GOLDEN[f"family{family}_g0"]
