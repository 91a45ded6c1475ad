"""Renumbering the points or reordering the generators of the group files
leaves the mathematics unchanged.

A surface depends only on the abstract group action (Bauer, Catanese and
Grunewald, 2008), so conjugating every generator of a group file by one
permutation of its points must not change what the pipeline reports, and
neither must listing the generators in another order, with every word of
the surface files rewritten to match.  The element numbering follows the
point labels (``closure`` sorts each layer by image tuples), and with it the
order of the conjugacy classes and of the orbit divisors; a generator
reordering keeps the numbering but moves the generators' indices and the
element each word names.  So the comparison is of a label-free form:
fingerprints, verdict, the multiset of (coordinates, class size), the
sorted K.D values and the multiset of (D^2, K.D, sorted row of the pairing).
"""

from __future__ import annotations

import json
import random
import re
import shutil

from mixedsurf.files import run_pipeline
from mixedsurf.perm import fingerprint
from oracles import elements_of

RELABELED = ("g64", "g256a", "g256b", "h768")
# h768 has two generators, so it has one reordering.
REORDERED = ("g64", "g256b", "h768")


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
        assert elements_of(relabeled.surface.action.G) != elements_of(bundled.surface.action.G)
        assert label_free(relabeled) == label_free(bundled), f"family {k}"


def rename_generators(word: str, rename: dict[str, str]) -> str:
    """The word with each symbol gN replaced by ``rename["gN"]``."""
    return re.sub(r"g\d+", lambda m: rename[m.group()], word)


def test_generator_reorderings_keep_the_label_free_results(data_dir, tmp_path,
                                                           fresh_group_memo):
    rng = random.Random(7)
    renames = {}
    for name in REORDERED:
        raw = json.loads((data_dir / f"{name}.json").read_text())
        order = list(range(len(raw["generators"])))
        while order == sorted(order):
            rng.shuffle(order)
        raw["generators"] = [raw["generators"][i] for i in order]
        (tmp_path / f"{name}.json").write_text(json.dumps(raw))
        renames[f"{name}.json"] = {f"g{old + 1}": f"g{new + 1}"
                                   for new, old in enumerate(order)}
    shutil.copy(data_dir / "g256a.json", tmp_path)
    renames["g256a.json"] = {f"g{i}": f"g{i}" for i in range(1, 5)}
    for k in range(1, 6):
        raw = json.loads((data_dir / f"family{k}.json").read_text())
        rename = renames[raw["group_file"]]
        raw["g0_generators"] = [rename_generators(w, rename) for w in raw["g0_generators"]]
        raw["tau_prime"] = rename_generators(raw["tau_prime"], rename)
        raw["vector"] = [rename_generators(w, rename) for w in raw["vector"]]
        extra = raw["extra_automorphisms"]
        if extra is not None:
            rename = renames[extra["group_file"]]
            extra["vector"] = [rename_generators(w, rename) for w in extra["vector"]]
        (tmp_path / f"family{k}.json").write_text(json.dumps(raw))
    for k in range(1, 6):
        bundled = run_pipeline(data_dir / f"family{k}.json")
        reordered = run_pipeline(tmp_path / f"family{k}.json")
        S, T = bundled.surface, reordered.surface
        assert ((T.action.G.generator_indices, T.h_group.generator_indices)
                != (S.action.G.generator_indices, S.h_group.generator_indices))
        assert label_free(reordered) == label_free(bundled), f"family {k}"
