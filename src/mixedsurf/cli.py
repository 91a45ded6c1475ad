"""Command-line front end.

Commands::

    mixedsurf group <file>
    mixedsurf genvec search <groupfile> --type "[0;2,3,8]" [--limit N]
    mixedsurf surface <spec>
    mixedsurf divisors <spec> [--format table|record] [--g0-only]
    mixedsurf cone <spec> [--format table|record]
    mixedsurf reproduce <1|2|3|4|5>

A group is closed only while its order times the larger of its order and
degree stays within 2^22 cells (perm.MAX_CLOSURE_CELLS): at most 2,048
elements, perm.closure_limit.  A larger group exits 3.  A group file is
closed at most one element past the order it claims; a larger group exits
5.

Exit codes: 0 success; 2 parse error; 3 validation error; 4 internal
exactness assertion; 5 mismatch (fingerprint or reproduction diff).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .covering import parse_cover_type, search_generating_vectors
from .errors import InputParseError, IntegrityError, MismatchError, ValidationError
from .expected import FAMILY_EXPECTATIONS, FAMILY_FILES, compare_family
from .files import (build_surface, element_word, load_group, load_group_record,
                    realize_group, run_pipeline)
from .perm import fingerprint
from .surface import check_free_action

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_ASSERTION = 4
EXIT_MISMATCH = 5


def _record_dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_group(args, out) -> int:
    record = load_group_record(args.file)
    group = realize_group(record)
    computed = fingerprint(group)
    out.write(f"name: {record.name}\nclaimed_id: {record.claimed_id}\n")
    out.write(f"degree: {record.degree}\norder: {group.order}\n")
    mismatches = []
    # as_dict names the fields in order; the namedtuples give their values.
    for field, got, want in zip(computed.as_dict(), computed, record.fingerprint):
        status = "ok" if got == want else "MISMATCH"
        if got != want:
            mismatches.append(field)
        out.write(f"fingerprint.{field}: computed={got} expected={want} [{status}]\n")
    if mismatches:
        raise MismatchError(f"fingerprint mismatch in fields: {', '.join(mismatches)}")
    out.write("fingerprint: match\n")
    return EXIT_OK


def cmd_genvec_search(args, out) -> int:
    group = load_group(args.file)
    ctype = parse_cover_type(args.type_text)
    found = search_generating_vectors(group, ctype, limit=args.limit)
    for k, vec in enumerate(found, start=1):
        words = ", ".join(element_word(group, e) for e in vec.entries)
        out.write(f"{k}: {words}\n")
    out.write(f"found {len(found)} generating vector(s) of type {ctype}"
              f" up to simultaneous conjugation\n")
    return EXIT_OK


def cmd_surface(args, out) -> int:
    surface = build_surface(args.spec)
    freeness = check_free_action(surface)
    out.write(f"g(C) = {surface.covering.genus}\n")
    out.write(f"chi = {surface.chi}\nK^2 = {surface.k2}\ne = {surface.euler}\n")
    out.write(f"q = {surface.q}\np_g = {surface.pg}\n")
    out.write(f"free action: no isolated fixed points = {freeness.no_isolated_fixed_points}, "
              f"no fixed curves = {freeness.no_fixed_curves}\n")
    if freeness.isolated_witness is not None:
        out.write(f"  witness (isolated fixed point): element "
                  f"{element_word(surface.action.G, freeness.isolated_witness)}\n")
    if freeness.curve_witness is not None:
        out.write(f"  witness (fixed curve): element "
                  f"{element_word(surface.action.G, freeness.curve_witness)}\n")
    if not freeness.ok:
        raise ValidationError("the action is not free")
    return EXIT_OK


def _table_payload(table) -> dict:
    return {
        "divisors": [
            {"label": d.label, "size": d.n, "kdot": table.kdot[i],
             "row": list(table.pairing[i])}
            for i, d in enumerate(table.divisors)
        ],
        "genus_minus_1": table.genus_minus_1,
        "order_g": table.order_g,
    }


def _cone_payload(report) -> dict:
    return {
        "verdict": report.verdict,
        "basis": list(report.basis) if report.basis else None,
        "generators": list(report.generators) if report.generators else None,
        "witness": list(report.witness) if report.witness else None,
        "classes": [
            {"coordinates": [str(c.coordinates[0]), str(c.coordinates[1])],
             "members": list(c.members)}
            for c in report.classes
        ],
        "notes": list(report.notes),
    }


def _print_table(table, out):
    labels = table.labels
    width = max(2, *(len(str(x)) for row in table.pairing for x in row),
                *(len(str(k)) for k in table.kdot),
                *(len(f"D{l}") for l in labels))
    head = " " * (width + 7) + " ".join(f"D{l}".rjust(width) for l in labels)
    out.write(head + "\n")
    for i, d in enumerate(table.divisors):
        row = " ".join(str(x).rjust(width) for x in table.pairing[i])
        out.write(f"D{d.label}".rjust(width) + f" n={d.n}".ljust(7)[:7] + row + "\n")
    out.write("K.D: " + " ".join(str(k).rjust(width) for k in table.kdot) + "\n")


def cmd_divisors(args, out) -> int:
    table = run_pipeline(args.spec, use_extra=not args.g0_only).table
    if args.format == "record":
        out.write(_record_dump(_table_payload(table)))
        return EXIT_OK
    out.write(f"{len(table.divisors)} orbit divisors; orbit sizes "
              f"{[d.n for d in table.divisors]}\n")
    _print_table(table, out)
    return EXIT_OK


def cmd_cone(args, out) -> int:
    report = run_pipeline(args.spec).report
    if args.format == "record":
        out.write(_record_dump(_cone_payload(report)))
        return EXIT_OK
    out.write(f"verdict: {report.verdict}\n")
    if report.basis:
        out.write(f"basis: D{report.basis[0]}, D{report.basis[1]}\n")
    if report.generators:
        out.write(f"cone generators: D{report.generators[0]}, D{report.generators[1]}\n")
    if report.witness:
        a, a2, b, b2 = report.witness
        out.write(f"witness quadruple: D{a} ~ D{a2}, D{b} ~ D{b2}\n")
    for c in report.classes:
        x, y = c.coordinates
        members = ", ".join(f"D{m}" for m in c.members)
        out.write(f"class ({x}, {y}): {members}\n")
    for note in report.notes:
        out.write(f"note: {note}\n")
    return EXIT_OK


def bundled_spec_path(family: int) -> Path:
    return Path(__file__).with_name("data") / FAMILY_FILES[family]


def cmd_reproduce(args, out) -> int:
    family = args.family
    bundle = run_pipeline(bundled_spec_path(family))
    items = compare_family(FAMILY_EXPECTATIONS[family], bundle)
    failed = [name for name, ok, _ in items if not ok]
    for name, ok, detail in items:
        out.write(f"[{'PASS' if ok else 'FAIL'}] family {family} {name}: {detail}\n")
    if failed:
        raise MismatchError(f"family {family} reproduction failed: {', '.join(failed)}")
    out.write(f"family {family}: all checks passed\n")
    return EXIT_OK


def positive_int(text: str) -> int:
    """The argparse type of ``--limit``: an integer of at least 1, written in
    ASCII digits and nothing else, like every other number the CLI reads.
    ``int`` alone would also take any Unicode decimal digit, a sign,
    underscores between digits and surrounding whitespace."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a positive integer in ASCII digits, "
                                         f"got {text!r}")
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    A parser holds its actions and formatters in reference cycles; building
    one per ``run`` left them for the cyclic collector on every call.
    """
    parser = argparse.ArgumentParser(
        prog="mixedsurf",
        description="Orbit divisors and cone verdicts for mixed product-quotient surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="validate a group data file against its fingerprint")
    p.add_argument("file")

    p = sub.add_parser("genvec", help="generating-vector tools")
    gsub = p.add_subparsers(dest="genvec_command", required=True)
    ps = gsub.add_parser("search", help="search generating vectors of a given type")
    ps.add_argument("file")
    ps.add_argument("--type", required=True, dest="type_text", metavar="TYPE",
                    help='cover type, e.g. "[0;2,3,8]" or "[0;2^5]"')
    ps.add_argument("--limit", type=positive_int, default=None)

    p = sub.add_parser("surface", help="invariants and freeness report for a surface file")
    p.add_argument("spec")

    p = sub.add_parser("divisors", help="orbit divisors and intersection table")
    p.add_argument("spec")
    p.add_argument("--format", choices=("table", "record"), default="table")
    p.add_argument("--g0-only", action="store_true",
                   help="ignore the extra-automorphism block (covering group = G0)")

    p = sub.add_parser("cone", help="numerical classes and Mori-dream verdict")
    p.add_argument("spec")
    p.add_argument("--format", choices=("table", "record"), default="table")

    p = sub.add_parser("reproduce", help="run a bundled family and diff against "
                                         "its expected results")
    p.add_argument("family", type=int, choices=(1, 2, 3, 4, 5))

    return parser


COMMANDS = {"group": cmd_group, "genvec": cmd_genvec_search, "surface": cmd_surface,
            "divisors": cmd_divisors, "cone": cmd_cone, "reproduce": cmd_reproduce}


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = make_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, out)
    except InputParseError as exc:
        out.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except ValidationError as exc:
        out.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except IntegrityError as exc:
        out.write(f"integrity assertion failed: {exc}\n")
        return EXIT_ASSERTION
    except MismatchError as exc:
        out.write(f"mismatch: {exc}\n")
        return EXIT_MISMATCH


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
