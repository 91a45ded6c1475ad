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

:func:`load_group` keeps the groups it realizes by ``perm.keep``'s rule: a
group is kept on its second request, and the first is only noted, so a
one-shot process keeps nothing.  The key is the file's bytes: its content,
never its path.  A load reads the file once and, unless a group is kept
under those bytes, parses them, realizes the group and checks its claimed
fingerprint.  A kept group is thus a checked group, and a file with a wrong
claim raises on every load, before it can be kept.  The oldest kept groups
are dropped while their whole Cayley tables (order squared cells each, the
most a group holds) plus their keys' bytes, summed, exceed
``perm.MAX_CLOSURE_CELLS``.  Nothing else is
counted: not what a group keeps by the same rule
(:meth:`~mixedsurf.perm.FiniteGroup.kept`), its realizations, covers, G0
spans, induced towers and word indices.  So a warm pipeline neither builds
nor checks these again, and parses no word.  :func:`realize_group` keeps
nothing.

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

:func:`save_surface_file` writes it from the fields that
:func:`load_surface_record` returns: no ``extra`` block is written as
``null``, and an :class:`ExtraBlock` whose ``vector`` is ``None`` as
``"search"``.  :func:`save_group_file` writes a group file from a group.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Sequence

from . import perm
from .cone import ConeReport, cone_report
from .covering import CoverType, parse_cover_type, search_generating_vectors
from .divisors import IntersectionTable, graph_orbits, intersection_table
from .errors import BudgetExceeded, InputParseError, MismatchError, ValidationError
from .perm import FiniteGroup, GroupFingerprint, Permutation, closure, fingerprint
from .surface import (TRIANGLE_TYPE, FreenessReport, SurfaceData, assemble_surface,
                      attach_covering_group, check_free_action)
from .words import evaluate_word_index, parse_word

GROUP_FIELDS = ("name", "claimed_id", "degree", "generators", "fingerprint", "provenance")


class GroupFile(NamedTuple):
    name: str
    claimed_id: str
    degree: int
    generators: tuple[Permutation, ...]
    fingerprint: GroupFingerprint
    provenance: str


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise InputParseError(f"{path}: cannot read a JSON document: {exc}") from exc


def _json_object(path: Path, data: bytes) -> dict:
    """The JSON document in ``data``, UTF-8 only, which must be an object."""
    try:
        raw = json.loads(data.decode("utf-8"))
    # Bad UTF-8 (decoded here: json.loads would take UTF-16 and UTF-32 bytes
    # too), bad JSON, or JSON nested past the recursion limit (a 2 kB "[[[...").
    except (ValueError, RecursionError) as exc:
        raise InputParseError(f"{path}: cannot read a JSON document: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputParseError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def load_group_record(path: str | Path) -> GroupFile:
    path = Path(path)
    return _group_record(path, _read(path))


def _group_record(path: Path, data: bytes) -> GroupFile:
    """The group file whose bytes, read from ``path``, are ``data``."""
    raw = _json_object(path, data)
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
            if not isinstance(row, list) or not {int}.issuperset(map(type, row)):
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
    return GroupFile(name, claimed_id, degree, tuple(gens), fp, provenance)


def realize_group(record: GroupFile) -> FiniteGroup:
    """The group of the file's generators, closed at most one element past
    the claimed order: a group larger than its claim raises
    :class:`MismatchError` (and one past ``perm.closure_limit`` raises
    :class:`BudgetExceeded`, whatever the claim)."""
    claimed = record.fingerprint.order
    try:
        return closure(record.generators, budget=claimed + 1)
    except BudgetExceeded:
        if claimed + 1 >= perm.closure_limit(record.degree):
            raise
        raise MismatchError(f"fingerprint mismatch for {record.name}: the generators "
                            f"give more than the claimed order {claimed}") from None


def verify_group(record: GroupFile, computed: GroupFingerprint):
    """Raise :class:`MismatchError` unless the computed fingerprint is the
    file's claimed one."""
    if computed != record.fingerprint:
        raise MismatchError(
            f"fingerprint mismatch for {record.name}: computed {computed}, "
            f"file claims {record.fingerprint}")


# Groups kept by load_group, by file bytes, oldest first; and the hashes of
# the bytes requested once.
_kept: dict[bytes, FiniteGroup] = {}
_noted: set[int] = set()


def load_group(path: str | Path) -> FiniteGroup:
    """The group a group file generates, checked against its claimed fingerprint
    when it is made; a group kept under the file's bytes is returned as it is."""
    path = Path(path)
    data = _read(path)
    group = perm.keep(_kept, _noted, data, lambda: _checked_group(path, data))
    while sum(g.order ** 2 + len(k) for k, g in _kept.items()) > perm.MAX_CLOSURE_CELLS:
        del _kept[next(iter(_kept))]
    return group


def _checked_group(path: Path, data: bytes) -> FiniteGroup:
    record = _group_record(path, data)
    group = realize_group(record)
    verify_group(record, fingerprint(group))
    return group


def save_group_file(path: str | Path, name: str, claimed_id: str, group: FiniteGroup,
                    provenance: str):
    _save_json(path, {
        "name": name,
        "claimed_id": claimed_id,
        "degree": group.degree,
        "generators": [list(g.images) for g in group.generators],
        "fingerprint": fingerprint(group).as_dict(),
        "provenance": provenance,
    })


def _save_json(path: str | Path, payload: dict):
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
    raw = _json_object(path, _read(path))
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


def save_surface_file(path: str | Path, name: str, group_file: str,
                      g0_generators: tuple[str, ...], tau_prime: str, vector: tuple[str, ...],
                      type_text: str, extra: ExtraBlock | None = None):
    """Write the surface file that :func:`load_surface_record` reads back as
    these fields (the cover type as its text)."""
    block = None if extra is None else {
        "group_file": extra.group_file,
        "vector": "search" if extra.vector is None else extra.vector}
    _save_json(path, {"name": name, "group_file": group_file, "g0_generators": g0_generators,
                      "tau_prime": tau_prime, "vector": vector, "type": type_text,
                      "extra_automorphisms": block})


def generator_alphabet(group: FiniteGroup) -> dict[str, int]:
    return {f"g{i + 1}": g for i, g in enumerate(group.generator_indices)}


def resolve_word(group: FiniteGroup, text: str) -> int:
    """Element index of a word written in the group file's g1..gk symbols.

    The group keeps the index under the text by
    :meth:`~mixedsurf.perm.FiniteGroup.kept`; a word that does not parse or
    evaluate raises on every request.
    """
    def evaluate() -> int:
        assignment = generator_alphabet(group)
        return evaluate_word_index(group, parse_word(text, assignment.keys()), assignment)

    return group.kept(("word", text), evaluate)


def element_word(group: FiniteGroup, index: int) -> str:
    """The element's canonical word (its BFS path) in the g1..gk symbols."""
    word = group.word_for(index)
    if not word:
        return "1"
    return "*".join(f"g{c + 1}" for c in word)


def _field_words(path: Path, field: str, group: FiniteGroup,
                 texts: Sequence[str]) -> list[int]:
    """The element indices of the words in a field of the surface file at
    ``path``.  A word that does not parse or evaluate raises its own error
    class, its message led by the file and the field."""
    try:
        return [resolve_word(group, w) for w in texts]
    except (InputParseError, ValidationError) as exc:
        exc.args = (f"{path}: {field}: {exc}",)
        raise


def build_surface(path: str | Path, use_extra: bool = True) -> SurfaceData:
    """Load a surface file and assemble its SurfaceData.

    The G side is assembled once, then H is attached with the file's vector,
    or with the first searched one whose attachment raises no ValidationError.
    The search first asks the scan for one vector only, which stops it there;
    the full list is taken only when that first vector does not attach.  The
    leaf bound ``MAX_SEARCH_LEAVES`` covers that full list, not the first draw.
    ``use_extra=False`` ignores the extra-automorphism block, forcing the
    covering group down to G0.
    """
    record = load_surface_record(path)
    # Group files are relative to the surface file; an absolute path stays as is.
    here = record.path.parent
    G = load_group(here / record.group_file)
    seeds = _field_words(record.path, "g0_generators", G, record.g0_generators)
    [tau_prime] = _field_words(record.path, "tau_prime", G, [record.tau_prime])
    vector = _field_words(record.path, "vector", G, record.vector)

    H = h_vector = None
    if use_extra and record.extra is not None:
        H = load_group(here / record.extra.group_file)
        if record.extra.vector is not None:
            h_vector = tuple(_field_words(record.path, "extra-automorphism vector", H,
                                          record.extra.vector))
    surface = assemble_surface(G, seeds, tau_prime, vector, record.cover_type)
    if H is None:
        return surface
    if h_vector is not None:
        return attach_covering_group(surface, H, h_vector)
    tried = 0
    for limit in (1, None):
        candidates = search_generating_vectors(H, TRIANGLE_TYPE, limit)
        for candidate in candidates[tried:]:
            try:
                return attach_covering_group(surface, H, candidate.entries)
            except ValidationError:
                continue
        if not candidates:
            break
        tried = len(candidates)
    raise ValidationError(
        "no [0;2,3,8] vector of the extra-automorphism group induces the "
        "surface's defining vector")


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
