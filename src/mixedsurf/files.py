"""Data file formats: group files and surface files.

Group file (JSON, UTF-8) -- field names are part of the format contract::

    {
      "name":        "...",                 # free-form label
      "claimed_id":  "G(64,92)",            # informational database id
      "degree":      64,
      "generators":  [[...], ...],          # 1-indexed image sequences
      "fingerprint": { ... },               # expected GroupFingerprint values
      "provenance":  "free text: oracle + date"
    }

Generators are addressed in word expressions as g1, g2, ... in file order.

Surface file (JSON, UTF-8)::

    {
      "name":          "family1",
      "group_file":    "g64.json",          # path relative to this file
      "g0_generators": ["g1", ...],         # words generating G0
      "tau_prime":     "g5",                # word for tau' (outside G0)
      "vector":        ["g1", ...],         # defining generating vector for G0
      "type":          "[0;2^5]",
      "extra_automorphisms": null | {
          "group_file": "h768.json",
          "vector":     ["...", "...", "..."] | "search"   # a [0;2,3,8] vector
      }
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .cone import ConeReport, cone_report
from .covering import CoverType, parse_cover_type, search_generating_vectors
from .divisors import IntersectionTable, graph_orbits, intersection_table
from .errors import InputParseError, MismatchError, ValidationError
from .perm import FiniteGroup, GroupFingerprint, Permutation, closure, fingerprint
from .surface import FreenessReport, SurfaceData, assemble_surface, check_free_action
from .words import evaluate_word_index, parse_word

GROUP_FIELDS = ("name", "claimed_id", "degree", "generators", "fingerprint", "provenance")


class GroupFile(NamedTuple):
    name: str
    claimed_id: str
    degree: int
    generators: tuple[Permutation, ...]
    fingerprint: GroupFingerprint
    provenance: str
    path: Path | None = None


def _load_json(path: Path) -> dict:
    """The file's JSON document, which must be an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable path, bad UTF-8 or bad JSON
        raise InputParseError(f"{path}: cannot read a JSON document: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputParseError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def load_group_record(path: str | Path) -> GroupFile:
    path = Path(path)
    raw = _load_json(path)
    missing = [f for f in GROUP_FIELDS if f not in raw]
    if missing:
        raise InputParseError(f"{path}: missing group-file fields {missing}")
    try:
        name, claimed_id, provenance = (
            _string(raw[f], f) for f in ("name", "claimed_id", "provenance"))
        # JSON integers only: int() would also take 2.0, "2" and true.
        degree = raw["degree"]
        if type(degree) is not int:
            raise InputParseError(f"degree must be an integer: {degree!r}")
        gens = []
        for row in raw["generators"]:
            if not isinstance(row, list) or any(type(x) is not int for x in row):
                raise InputParseError(f"generator images must be integers: {row!r}")
            images = tuple(row)
            if len(images) != degree:
                raise InputParseError(
                    f"generator has {len(images)} images, expected {degree}")
            try:
                gens.append(Permutation(images))
            except ValidationError as exc:
                raise InputParseError(str(exc)) from exc
        fp = GroupFingerprint.from_dict(raw["fingerprint"])
    except InputParseError as exc:
        raise InputParseError(f"{path}: {exc}") from exc
    except (TypeError, KeyError, ValueError) as exc:
        raise InputParseError(f"{path}: malformed group file: {exc}") from exc
    if not gens:
        raise InputParseError(f"{path}: group file lists no generators")
    return GroupFile(name, claimed_id, degree, tuple(gens), fp, provenance, path)


def realize_group(record: GroupFile) -> FiniteGroup:
    return closure(record.generators)


def verify_group(record: GroupFile, group: FiniteGroup) -> GroupFingerprint:
    """Recompute the fingerprint and compare with the file's expectation."""
    computed = fingerprint(group)
    if computed != record.fingerprint:
        raise MismatchError(
            f"fingerprint mismatch for {record.name}: computed {computed}, "
            f"file claims {record.fingerprint}")
    return computed


def load_group(path: str | Path) -> tuple[FiniteGroup, GroupFile]:
    record = load_group_record(path)
    group = realize_group(record)
    verify_group(record, group)
    return group, record


def save_group_file(path: str | Path, name: str, claimed_id: str, group: FiniteGroup,
                    provenance: str):
    payload = {
        "name": name,
        "claimed_id": claimed_id,
        "degree": group.degree,
        "generators": [list(g.images) for g in group.generators],
        "fingerprint": fingerprint(group).as_dict(),
        "provenance": provenance,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


class ExtraBlock(NamedTuple):
    group_file: str
    vector: tuple[str, str, str] | None   # None means "search"


class SurfaceFile(NamedTuple):
    name: str
    group_file: str
    g0_generators: tuple[str, ...]
    tau_prime: str
    vector: tuple[str, ...]
    cover_type: CoverType
    extra: ExtraBlock | None
    path: Path


def _strings(value, field: str) -> tuple[str, ...]:
    if not isinstance(value, list) or any(type(w) is not str for w in value):
        raise InputParseError(f"{field} must be a list of word strings: {value!r}")
    return tuple(value)


def _string(value, field: str) -> str:
    if type(value) is not str:
        raise InputParseError(f"{field} must be a string: {value!r}")
    return value


def load_surface_record(path: str | Path) -> SurfaceFile:
    path = Path(path)
    raw = _load_json(path)
    required = ("name", "group_file", "g0_generators", "tau_prime", "vector", "type")
    missing = [f for f in required if f not in raw]
    if missing:
        raise InputParseError(f"{path}: missing surface-file fields {missing}")
    try:
        name, group_file, tau_prime, type_text = (
            _string(raw[f], f) for f in ("name", "group_file", "tau_prime", "type"))
        g0_generators = _strings(raw["g0_generators"], "g0_generators")
        vector = _strings(raw["vector"], "vector")
        extra = None
        block = raw.get("extra_automorphisms")
        if block is not None:
            if not isinstance(block, dict) or "group_file" not in block or "vector" not in block:
                raise InputParseError(f"malformed extra_automorphisms block: {block!r}")
            vec = block["vector"]
            if vec == "search":
                vec = None
            else:
                vec = _strings(vec, "extra-automorphism vector")
                if len(vec) != 3:
                    raise InputParseError("extra-automorphism vector needs 3 words")
            extra = ExtraBlock(_string(block["group_file"], "extra group_file"), vec)
        ctype = parse_cover_type(type_text)
    except (InputParseError, ValidationError) as exc:
        raise InputParseError(f"{path}: {exc}") from exc
    return SurfaceFile(name, group_file, g0_generators, tau_prime, vector, ctype, extra, path)


def save_surface_file(path: str | Path, record: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def generator_alphabet(group: FiniteGroup) -> dict[str, int]:
    return {f"g{i + 1}": g for i, g in enumerate(group.generator_indices)}


def resolve_word(group: FiniteGroup, text: str) -> int:
    """Element index of a word written in the group file's g1..gk symbols."""
    assignment = generator_alphabet(group)
    word = parse_word(text, assignment.keys())
    return evaluate_word_index(group, word, assignment)


def element_word(group: FiniteGroup, index: int) -> str:
    """The element's canonical word (its BFS path) in the g1..gk symbols."""
    word = group.word_for(index)
    if not word:
        return "1"
    return "*".join(f"g{c + 1}" for c in word)


def build_surface(path: str | Path, use_extra: bool = True) -> SurfaceData:
    """Load a surface file and assemble its SurfaceData.

    ``use_extra=False`` ignores the extra-automorphism block, forcing the
    covering group down to G0.
    """
    record = load_surface_record(path)
    # Group files are relative to the surface file; an absolute path stays as is.
    here = record.path.parent
    G, _ = load_group(here / record.group_file)
    seeds = [resolve_word(G, w) for w in record.g0_generators]
    tau_prime = resolve_word(G, record.tau_prime)
    vector = [resolve_word(G, w) for w in record.vector]

    h_group = None
    h_vector = None
    if use_extra and record.extra is not None:
        h_group, _ = load_group(here / record.extra.group_file)
        if record.extra.vector is None:
            return _search_matching_surface(h_group, G, seeds, tau_prime, vector,
                                            record.cover_type)
        h_vector = tuple(resolve_word(h_group, w) for w in record.extra.vector)
    return assemble_surface(G, seeds, tau_prime, vector, record.cover_type,
                            h_group=h_group, h_vector=h_vector)


class FamilyBundle(NamedTuple):
    """Everything the pipeline computes for one surface file."""

    surface: SurfaceData
    freeness: FreenessReport
    table: IntersectionTable
    report: ConeReport


def run_pipeline(path: str | Path, use_extra: bool = True) -> FamilyBundle:
    """Surface, freeness, orbit-divisor intersection table and cone verdict.

    Raises :class:`ValidationError` when the action is not free, since the
    quotient is then not a smooth surface.  ``use_extra`` is passed on to
    :func:`build_surface`.
    """
    surface = build_surface(path, use_extra=use_extra)
    freeness = check_free_action(surface)
    if not freeness.ok:
        raise ValidationError("the action is not free; no smooth quotient surface")
    table = intersection_table(graph_orbits(surface), surface)
    return FamilyBundle(surface, freeness, table, cone_report(table))


def _search_matching_surface(h_group: FiniteGroup, G: FiniteGroup, seeds, tau_prime,
                             vector, cover_type: CoverType) -> SurfaceData:
    """The surface assembled with the first [0;2,3,8] vector of H whose
    induced vector transports onto the surface's defining vector."""
    candidates = search_generating_vectors(h_group, CoverType(0, (2, 3, 8)))
    for cand in candidates:
        try:
            return assemble_surface(G, seeds, tau_prime, vector, cover_type,
                                    h_group=h_group, h_vector=cand.entries)
        except ValidationError:
            continue
    raise ValidationError(
        "no [0;2,3,8] vector of the extra-automorphism group induces the "
        "surface's defining vector")
