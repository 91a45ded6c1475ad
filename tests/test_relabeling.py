"""Renumbering the points of the group files leaves the mathematics unchanged.

A surface depends only on the abstract group action (Bauer, Catanese and
Grunewald, 2008), so conjugating every generator of a group file by one
permutation of its points must not change what the pipeline reports.  The
element numbering follows the point labels (``closure`` sorts each layer by
image tuples), and with it the order of the conjugacy classes and of the
orbit divisors.  So the comparison is of a label-free form: fingerprints,
verdict, the multiset of (coordinates, class size), the sorted K.D values
and the multiset of (D^2, K.D, sorted row of the pairing).
"""

from __future__ import annotations

import json
import random
import shutil

from mixedsurf.files import run_pipeline
from mixedsurf.perm import fingerprint

RELABELED = ("g64", "g256a", "g256b", "h768")


def relabel(images: list[int], sigma: list[int]) -> list[int]:
    """The images of sigma^-1 g sigma, point i renamed sigma(i)."""
    out = [0] * len(images)
    for i, image in enumerate(images):
        out[sigma[i] - 1] = sigma[image - 1]
    return out


def label_free(bundle) -> tuple:
    S, table, report = bundle.surface, bundle.table, bundle.report
    return (fingerprint(S.action.G), fingerprint(S.h_group), report.verdict,
            sorted((c.coordinates, len(c.members)) for c in report.classes),
            sorted(table.kdot),
            sorted((table.entry(d, d), k, tuple(sorted(row)))
                   for d, k, row in zip(table.labels, table.kdot, table.pairing)))


def test_point_relabelings_keep_the_label_free_results(data_dir, tmp_path, fresh_group_memo):
    rng = random.Random(6)
    for name in RELABELED:
        raw = json.loads((data_dir / f"{name}.json").read_text())
        sigma = list(range(1, raw["degree"] + 1))
        rng.shuffle(sigma)
        raw["generators"] = [relabel(g, sigma) for g in raw["generators"]]
        (tmp_path / f"{name}.json").write_text(json.dumps(raw))
    for k in range(1, 6):
        shutil.copy(data_dir / f"family{k}.json", tmp_path)
    for k in range(1, 6):
        bundled = run_pipeline(data_dir / f"family{k}.json")
        relabeled = run_pipeline(tmp_path / f"family{k}.json")
        assert relabeled.surface.action.G.elements != bundled.surface.action.G.elements
        assert label_free(relabeled) == label_free(bundled), f"family {k}"
