from __future__ import annotations

import gc
import io
import json
import random
import re
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedsurf import cli, covering, expected, files, perm, surface
from mixedsurf.errors import (BudgetExceeded, InputParseError, IntegrityError, MismatchError,
                              ValidationError)
from mixedsurf.files import (element_word, load_group, load_group_record,
                             load_surface_record, realize_group, resolve_word, save_group_file,
                             save_surface_file)


GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# group files

def test_load_bundled_group_files(data_dir):
    for name, order in [("g64.json", 64), ("g256a.json", 256),
                        ("g256b.json", 256), ("h768.json", 768),
                        ("toy_z4_group.json", 4)]:
        group, record = load_group(data_dir / name), load_group_record(data_dir / name)
        assert group.order == order
        assert record.fingerprint.order == order


def test_group_file_round_trip(tmp_path, d4):
    save_group_file(tmp_path / "d4.json", "d4", "G(8,3)", d4, "test")
    group = load_group(tmp_path / "d4.json")
    record = load_group_record(tmp_path / "d4.json")
    assert group.order == 8
    assert record.claimed_id == "G(8,3)"
    assert record.provenance == "test"


# The 13 bundled files (tests/test_make_data.py checks there are no others).
GROUP_FILES = ("g64.json", "g256a.json", "g256b.json", "h768.json", "toy_z4_group.json")
SURFACE_FILES = ("family1.json", "family1_nonfree.json", "family2.json", "family2_search.json",
                 "family3.json", "family4.json", "family5.json", "toy_z4.json")


@pytest.mark.parametrize("name", GROUP_FILES)
def test_bundled_group_file_is_written_back_byte_identical(tmp_path, data_dir, name):
    record = load_group_record(data_dir / name)
    save_group_file(tmp_path / name, record.name, record.claimed_id, realize_group(record),
                    record.provenance)
    assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes()


@pytest.mark.parametrize("name", SURFACE_FILES)
def test_bundled_surface_file_is_written_back_byte_identical(tmp_path, data_dir, name):
    # Covers an explicit H vector (family2), "search" (family2_search) and
    # no block (family1).
    record = load_surface_record(data_dir / name)
    type_text = json.loads((data_dir / name).read_text())["type"]
    save_surface_file(tmp_path / name, record.name, record.group_file, record.g0_generators,
                      record.tau_prime, record.vector, type_text, record.extra)
    assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes()


def test_non_bijective_generator_is_parse_error(tmp_path):
    raw = {
        "name": "bad", "claimed_id": "?", "degree": 3,
        "generators": [[1, 1, 2]],
        "fingerprint": {"order": 1, "element_orders": [[1, 1]], "abelianization": [],
                        "derived_series": [1], "center_order": 1, "class_count": 1},
        "provenance": "test",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(InputParseError):
        load_group_record(path)
    code, text = run_cli("group", str(path))
    assert code == cli.EXIT_PARSE


@pytest.mark.parametrize("generators,message", [
    ([], "group file lists no generators"),
    (5, "malformed group file"),
])
def test_group_file_without_a_generator_list_is_parse_error(tmp_path, data_dir, generators,
                                                            message):
    raw = json.loads((data_dir / "toy_z4_group.json").read_text())
    raw["generators"] = generators
    path = tmp_path / "no_generators.json"
    path.write_text(json.dumps(raw))
    code, text = run_cli("group", str(path))
    assert code == cli.EXIT_PARSE
    assert message in text


TRIVIAL_FINGERPRINT = {"order": 1, "element_orders": [[1, 1]], "abelianization": [],
                       "derived_series": [1], "center_order": 1, "class_count": 1}


@pytest.mark.parametrize("degree", [0, 1])
def test_trivial_degree_group_files(tmp_path, degree):
    # The identity is the only permutation of degree 0 or 1.
    path = tmp_path / f"degree{degree}.json"
    path.write_text(json.dumps({"name": "trivial", "claimed_id": "1", "degree": degree,
                                "generators": [list(range(1, degree + 1))],
                                "fingerprint": TRIVIAL_FINGERPRINT, "provenance": "test"}))
    code, text = run_cli("group", str(path))
    assert code == cli.EXIT_OK, text
    assert "fingerprint: match" in text


# S9 has 362,880 elements, whose closure takes about 3 s and 200 MB; it stops
# at closure_limit(9) == 2,048 elements instead, since the file claims the
# true order.
S9_FILE = {"name": "S9", "claimed_id": "S9", "degree": 9,
           "generators": [[*range(2, 10), 1], [2, 1, *range(3, 10)]],
           "fingerprint": {**TRIVIAL_FINGERPRINT, "order": 362880}, "provenance": "test"}


def test_group_past_the_table_bound_exits_3_within_its_element_budget(tmp_path, monkeypatch):
    # S9 claims its true order.  The closure is given that plus one, cuts it
    # to its limit for degree 9, the table bound, and stops there: its
    # message names the budget of 2,048 elements.
    path = tmp_path / "s9.json"
    path.write_text(json.dumps(S9_FILE))
    budgets = []
    closure = files.closure

    def recorded(generators, budget):
        budgets.append(budget)
        return closure(generators, budget)

    monkeypatch.setattr(files, "closure", recorded)
    code, text = run_cli("group", str(path))
    assert code == cli.EXIT_VALIDATION
    assert "element budget of 2048 " in text
    assert budgets == [362881]
    assert perm.closure_limit(9) == 2048


def test_group_past_its_claimed_order_exits_5_one_element_later(tmp_path, data_dir,
                                                               monkeypatch):
    # g64.json with two images of its first generator swapped generates a
    # group of more than 65,536 elements; the walk stops after 65.
    raw = json.loads((data_dir / "g64.json").read_text())
    images = raw["generators"][0]
    images[0], images[1] = images[1], images[0]
    path = tmp_path / "g64.json"
    path.write_text(json.dumps(raw))
    budgets = []
    closure = files.closure

    def recorded(generators, budget):
        budgets.append(budget)
        return closure(generators, budget)

    monkeypatch.setattr(files, "closure", recorded)
    code, text = run_cli("group", str(path))
    assert code == cli.EXIT_MISMATCH
    assert text == ("mismatch: fingerprint mismatch for g64: the generators "
                    "give more than the claimed order 64\n")
    assert budgets == [65]


@st.composite
def corrupted_generator_rows(draw):
    """Generator rows of a degree <= 8 group file, one of them corrupted."""
    degree = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(st.permutations(range(1, degree + 1)), min_size=1, max_size=3))
    rows = [list(r) for r in rows]
    bad = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
    pos = draw(st.integers(min_value=0, max_value=degree - 1))
    kinds = ["out_of_range", "wrong_length", "not_integer"] + (["non_bijective"]
                                                               if degree > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "non_bijective":
        bad[pos] = bad[(pos + 1) % degree]
    elif kind == "out_of_range":
        bad[pos] = draw(st.integers(max_value=0) | st.integers(min_value=degree + 1))
    elif kind == "wrong_length":
        if draw(st.booleans()):
            del bad[pos]
        else:
            bad.append(draw(st.integers(min_value=1, max_value=degree)))
    else:
        bad[pos] = draw(st.sampled_from([float(bad[pos]), str(bad[pos]), True, None,
                                         [bad[pos]], {"x": 1}, 1.5]))
    return degree, rows


@settings(max_examples=60, deadline=None)
@given(corrupted_generator_rows())
def test_corrupted_generator_rows_exit_cleanly(tmp_path_factory, case):
    degree, rows = case
    path = tmp_path_factory.getbasetemp() / "fuzz_group.json"
    path.write_text(json.dumps({"name": "fuzz", "claimed_id": "?", "degree": degree,
                                "generators": rows, "fingerprint": TRIVIAL_FINGERPRINT,
                                "provenance": "test"}))
    code, text = run_cli("group", str(path))
    assert code in (cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_ASSERTION,
                    cli.EXIT_MISMATCH), text


@pytest.mark.parametrize("row", [[2.0, 1.0, 3.0], ["2", "1", "3"], [2, True, 3], "213"])
def test_non_integer_generator_images_are_parse_errors(tmp_path, row):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "claimed_id": "?", "degree": 3,
                                "generators": [row], "fingerprint": TRIVIAL_FINGERPRINT,
                                "provenance": "test"}))
    with pytest.raises(InputParseError, match=f"generator images must be integers: "
                                              f"{re.escape(repr(row))}$"):
        load_group_record(path)
    assert run_cli("group", str(path))[0] == cli.EXIT_PARSE


def test_deeply_nested_group_file_is_parse_error(tmp_path, data_dir):
    # json.loads raised RecursionError on 1,000 nested "[", a traceback.
    (tmp_path / "nested.json").write_text("[" * 1000)
    code, text = run_cli("group", str(tmp_path / "nested.json"))
    assert code == cli.EXIT_PARSE and "cannot read a JSON document" in text, text
    path = _toy_surface(tmp_path, data_dir, group_file="nested.json")
    code, text = run_cli("cone", str(path))
    assert code == cli.EXIT_PARSE and "cannot read a JSON document" in text, text


@pytest.mark.parametrize("field,value", [
    ("degree", "64"), ("degree", 64.0), ("degree", True),
    ("order", "64"), ("element_orders", 0.9), ("abelianization", "2"),
    ("derived_series", 32.0), ("center_order", [4]), ("class_count", None),
])
def test_non_integer_group_fields_are_parse_errors(tmp_path, data_dir, field, value):
    # int() would accept "64" and truncate 2.9, so such a file used to print
    # "fingerprint: match" and exit 0.
    raw = json.loads((data_dir / "g64.json").read_text())
    fp = raw["fingerprint"]
    if field == "degree":
        raw["degree"] = value
    elif field == "element_orders":
        fp["element_orders"][1][0] += value
    elif field in ("abelianization", "derived_series"):
        fp[field][-1] = value
    else:
        fp[field] = value
    path = tmp_path / "g64_bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(InputParseError):
        load_group_record(path)
    assert run_cli("group", str(path))[0] == cli.EXIT_PARSE


NON_INTEGERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
                         st.none(), st.text(max_size=3), st.integers().map(str),
                         st.integers().map(float), st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_non_integer_group_fields_exit_as_parse_errors(tmp_path_factory, data_dir, data):
    raw = json.loads((data_dir / "toy_z4_group.json").read_text())
    fp = raw["fingerprint"]
    slots = [(raw, "degree")] + [(fp, key) for key in ("order", "center_order", "class_count")]
    slots += [(pair, i) for pair in fp["element_orders"] for i in (0, 1)]
    slots += [(fp[key], i) for key in ("abelianization", "derived_series")
              for i in range(len(fp[key]))]
    container, key = data.draw(st.sampled_from(slots))
    container[key] = data.draw(NON_INTEGERS)
    path = tmp_path_factory.getbasetemp() / "fuzz_fields.json"
    path.write_text(json.dumps(raw))
    code, text = run_cli("group", str(path))
    assert code == cli.EXIT_PARSE, text


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["name", "claimed_id", "provenance"]),
       st.one_of(st.text(max_size=8), NON_INTEGERS))
@example("name", {"a": [1]})
@example("claimed_id", None)
def test_fuzzed_group_string_fields_exit_cleanly(tmp_path_factory, data_dir, field, value):
    # str() used to turn any JSON value into a name, and such a file loaded.
    raw = json.loads((data_dir / "toy_z4_group.json").read_text())
    raw[field] = value
    path = tmp_path_factory.getbasetemp() / "fuzz_strings.json"
    path.write_text(json.dumps(raw))
    code, text = run_cli("group", str(path))
    assert code == (cli.EXIT_OK if isinstance(value, str) else cli.EXIT_PARSE), text


def test_warm_run_leaves_no_cyclic_garbage(data_dir):
    argv = ["group", str(data_dir / "toy_z4_group.json")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_cli(*argv)
        gc.collect()
        assert run_cli(*argv)[0] == cli.EXIT_OK
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_missing_field_is_parse_error(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"name": "x"}))
    with pytest.raises(InputParseError):
        load_group_record(path)


def test_tampered_fingerprint_is_mismatch(tmp_path, data_dir):
    raw = json.loads((data_dir / "g64.json").read_text())
    raw["fingerprint"]["order"] = 63
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(MismatchError):
        load_group(path)
    code, text = run_cli("group", str(path))
    assert code == cli.EXIT_MISMATCH
    assert code != cli.EXIT_PARSE


def test_tampered_fingerprint_message_prints_both_fingerprints(tmp_path, data_dir):
    # A surface file whose group file claims one conjugacy class too many.
    (tmp_path / "family1.json").write_bytes((data_dir / "family1.json").read_bytes())
    raw = json.loads((data_dir / "g64.json").read_text())
    raw["fingerprint"]["class_count"] += 1
    (tmp_path / "g64.json").write_text(json.dumps(raw))
    code, text = run_cli("cone", str(tmp_path / "family1.json"))
    assert code == cli.EXIT_MISMATCH
    fp = ("GroupFingerprint(order=64, element_orders=((1, 1), (2, 23), (4, 8), (8, 32)), "
          "abelianization=(2, 2, 4), derived_series=(64, 4, 1), center_order=4, "
          "class_count={})")
    assert text == (f"mismatch: fingerprint mismatch for g64: computed {fp.format(22)}, "
                    f"file claims {fp.format(23)}\n")


@pytest.mark.parametrize("name", ["g64", "g256a", "h768"])
def test_transposed_generator_images_never_pass(tmp_path, data_dir, name, monkeypatch):
    # The swap keeps a bijection, so only the closure bound (exit 3) or the
    # fingerprint (exit 5) can refuse the file.  The closure may grow one
    # element past the claimed order and no further.
    raw = json.loads((data_dir / f"{name}.json").read_text())
    first = raw["generators"][0]
    first[0], first[1] = first[1], first[0]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    budgets = []
    closure = files.closure

    def recorded(generators, budget=None):
        budgets.append(budget)
        return closure(generators, budget)

    monkeypatch.setattr(files, "closure", recorded)
    code, text = run_cli("group", str(path))
    assert code in (cli.EXIT_VALIDATION, cli.EXIT_MISMATCH), text
    assert budgets == [raw["fingerprint"]["order"] + 1]


def test_cmd_group_bundled_files_match(data_dir):
    for name in ("g64.json", "g256b.json", "toy_z4_group.json"):
        code, text = run_cli("group", str(data_dir / name))
        assert code == cli.EXIT_OK
        assert "fingerprint: match" in text


def test_resolve_word_round_trip(data_dir):
    group = load_group(data_dir / "g64.json")
    assert resolve_word(group, "g1*g1") == 0
    assert resolve_word(group, "1") == 0
    assert resolve_word(group, "g5^2") == group.mul(
        resolve_word(group, "g5"), resolve_word(group, "g5"))


# ----------------------------------------------------------------------
# the group memo of load_group

def counted_realizations(monkeypatch) -> list[str]:
    """The names of the group files ``files.realize_group`` realizes from now on."""
    calls = []
    realize = files.realize_group

    def counted(record):
        calls.append(record.name)
        return realize(record)

    monkeypatch.setattr(files, "realize_group", counted)
    return calls


def test_third_load_returns_the_group_kept_on_the_second(data_dir, fresh_group_memo,
                                                         monkeypatch):
    calls = counted_realizations(monkeypatch)
    first, second, third = (load_group(data_dir / "g64.json") for _ in range(3))
    assert second is not first and third is second
    assert calls == ["g64", "g64"]


def test_one_off_load_is_not_kept(data_dir, fresh_group_memo):
    load_group(data_dir / "g64.json")
    assert not fresh_group_memo


def test_wrong_claim_exits_5_before_and_after_the_genuine_file_is_kept(
        tmp_path, data_dir, fresh_group_memo):
    # Same generators as g64.json, with a wrong claim: other bytes, so
    # another memo key.
    raw = json.loads((data_dir / "g64.json").read_text())
    raw["fingerprint"]["center_order"] += 1
    path = tmp_path / "g64.json"
    path.write_text(json.dumps(raw))
    argv = ("genvec", "search", str(path), "--type", "[0;2^5]", "--limit", "1")
    code, before = run_cli(*argv)
    assert code == cli.EXIT_MISMATCH, before
    for _ in range(2):
        load_group(data_dir / "g64.json")
    assert [g.order for g in fresh_group_memo.values()] == [64]
    assert run_cli(*argv) == (cli.EXIT_MISMATCH, before)


def test_group_past_the_closure_budget_exits_3_on_every_load(tmp_path, fresh_group_memo):
    path = tmp_path / "s9.json"
    path.write_text(json.dumps(S9_FILE))
    for _ in range(3):
        code, text = run_cli("genvec", "search", str(path), "--type", "[0;2,3,8]")
        assert code == cli.EXIT_VALIDATION
        assert "element budget of 2048 " in text
    assert not fresh_group_memo


# S8 claims its true order, 40,320.  Closed in full, its Cayley table would
# hold 40,320^2 two-byte indices, about 3.2 GB.  Since the budget counts the
# table, its closure stops at closure_limit(8) == 2,048 elements, on every
# path that loads the file.
S8_FILE = {"name": "S8", "claimed_id": "S8", "degree": 8,
           "generators": [[2, 1, *range(3, 9)], [*range(2, 9), 1]],
           "fingerprint": {**TRIVIAL_FINGERPRINT, "order": 40320}, "provenance": "test"}
S8_SURFACE = {"name": "s8", "group_file": "s8.json", "g0_generators": ["g1", "g2"],
              "tau_prime": "g1", "vector": ["g1", "g2", "g2"], "type": "[0;2,8,8]",
              "extra_automorphisms": None}


@pytest.mark.parametrize("argv", [("group", "s8.json"),
                                  ("genvec", "search", "s8.json", "--type", "[0;2,3,8]"),
                                  ("surface", "s8_surface.json")], ids=lambda argv: argv[0])
def test_s8_file_exits_3_within_its_element_budget(tmp_path, fresh_group_memo, argv):
    (tmp_path / "s8.json").write_text(json.dumps(S8_FILE))
    (tmp_path / "s8_surface.json").write_text(json.dumps(S8_SURFACE))
    code, text = run_cli(*(str(tmp_path / a) if a.endswith(".json") else a for a in argv))
    assert code == cli.EXIT_VALIDATION, text
    assert text == ("validation error: group closure exceeded the element budget of 2048 "
                    "(order times the larger of order and degree is at most 4194304)\n")
    assert not fresh_group_memo


def test_kept_images_past_the_closure_budget_evict_the_oldest_group(
        data_dir, fresh_group_memo, monkeypatch):
    # The budget counts table cells and file bytes: g64 holds 64 x 64 cells
    # and 2,731 bytes, g256a 256 x 256 and 8,274.  Each fits; together they
    # do not.
    monkeypatch.setattr(perm, "MAX_CLOSURE_CELLS",
                        256 * 256 + len((data_dir / "g256a.json").read_bytes()))
    calls = counted_realizations(monkeypatch)
    for name, kept in (("g64", [64]), ("g256a", [256])):
        for _ in range(2):
            load_group(data_dir / f"{name}.json")
        assert [g.order for g in fresh_group_memo.values()] == kept
    load_group(data_dir / "g64.json")
    assert calls == ["g64", "g64", "g256a", "g256a", "g64"]


def test_two_paths_with_the_same_bytes_share_one_kept_group(tmp_path, data_dir,
                                                           fresh_group_memo, monkeypatch):
    copy = tmp_path / "copy.json"
    copy.write_bytes((data_dir / "g64.json").read_bytes())
    calls = counted_realizations(monkeypatch)
    first, second, third = (load_group(path) for path in (data_dir / "g64.json", copy,
                                                          data_dir / "g64.json"))
    assert second is not first and third is second
    assert calls == ["g64", "g64"] and len(fresh_group_memo) == 1


def test_kept_file_rewritten_with_a_wrong_claim_is_refused_on_every_load(
        tmp_path, data_dir, fresh_group_memo):
    path = tmp_path / "g64.json"
    path.write_bytes((data_dir / "g64.json").read_bytes())
    for _ in range(2):
        load_group(path)
    assert len(fresh_group_memo) == 1
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["fingerprint"]["center_order"] += 1
    path.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    for _ in range(3):
        with pytest.raises(MismatchError):
            load_group(path)
    assert len(fresh_group_memo) == 1


def test_the_group_budget_counts_the_files_bytes(data_dir, fresh_group_memo, monkeypatch):
    # g64's 64 x 64 images fit this budget; with its file's 2,731 bytes they do not.
    path = data_dir / "g64.json"
    assert len(path.read_bytes()) > 1000
    monkeypatch.setattr(perm, "MAX_CLOSURE_CELLS", 64 * 64 + 1000)
    calls = counted_realizations(monkeypatch)
    for _ in range(3):
        load_group(path)
    assert not fresh_group_memo
    assert calls == ["g64"] * 3


# ----------------------------------------------------------------------
# surface files

def test_load_surface_record(data_dir):
    record = load_surface_record(data_dir / "family1.json")
    assert record.cover_type.m == (2,) * 5
    assert record.extra is None
    record2 = load_surface_record(data_dir / "family2.json")
    assert record2.extra is not None and record2.extra.vector is not None
    search = load_surface_record(data_dir / "family2_search.json")
    assert search.extra.vector is None


def test_surface_cmd_family1(data_dir):
    code, text = run_cli("surface", str(data_dir / "family1.json"))
    assert code == cli.EXIT_OK
    assert "g(C) = 9" in text and "chi = 1" in text
    assert "no isolated fixed points = True" in text


def test_surface_cmd_nonfree_reports_witness(data_dir):
    code, text = run_cli("surface", str(data_dir / "family1_nonfree.json"))
    assert code == cli.EXIT_VALIDATION
    assert "witness" in text


def test_surface_cmd_toy(data_dir):
    code, text = run_cli("surface", str(data_dir / "toy_z4.json"))
    assert code == cli.EXIT_VALIDATION
    assert "no isolated fixed points = False" in text


# ----------------------------------------------------------------------
# divisors / cone commands

def test_divisors_cmd_family1_table(data_dir):
    code, text = run_cli("divisors", str(data_dir / "family1.json"))
    assert code == cli.EXIT_OK
    assert "4 orbit divisors" in text
    assert "K.D:" in text


def test_divisors_cmd_family1_record(data_dir):
    code, text = run_cli("divisors", str(data_dir / "family1.json"),
                         "--format", "record")
    assert code == cli.EXIT_OK
    payload = json.loads(text)
    assert len(payload["divisors"]) == 4
    assert all(d["kdot"] == 4 for d in payload["divisors"])


def test_cone_cmd_family1(data_dir):
    code, text = run_cli("cone", str(data_dir / "family1.json"), "--format", "record")
    assert code == cli.EXIT_OK
    payload = json.loads(text)
    assert payload["verdict"] == "MoriDream_EffEqNefEqSAmp"
    assert len(payload["classes"]) == 2


NOT_FREE = "the action is not free; no smooth quotient surface"


@pytest.mark.parametrize("command", ["divisors", "cone"])
@pytest.mark.parametrize("name, tau_prime, message", [
    ("family1_nonfree", None, NOT_FREE),
    ("toy_z4", None, NOT_FREE),
    # g1 generates part of G0, so it cannot be the mixed element tau'.
    ("family1", "g1", "tau' must lie outside G0"),
])
def test_pipeline_commands_refuse_surfaces_without_free_mixed_action(
        tmp_path, data_dir, command, name, tau_prime, message):
    path = data_dir / f"{name}.json"
    if tau_prime is not None:
        raw = json.loads(path.read_text())
        raw["group_file"] = str(data_dir / raw["group_file"])
        raw["tau_prime"] = tau_prime
        path = tmp_path / path.name
        path.write_text(json.dumps(raw))
    code, text = run_cli(command, str(path))
    assert (code, text) == (cli.EXIT_VALIDATION, f"validation error: {message}\n")


# Swapping entries 0-1, 0-3, 1-2 or 2-4 of family 1's vector keeps the
# product 1 and gives a valid vector of the same surface; every other swap of
# family 1 or family 2 breaks the product relation.
VALID_SWAPS = {("family1", 0, 1), ("family1", 0, 3), ("family1", 1, 2), ("family1", 2, 4)}


@pytest.mark.parametrize("name, i, j",
                         [("family1", i, j) for i, j in combinations(range(5), 2)]
                         + [("family2", i, j) for i, j in combinations(range(3), 2)])
def test_swapped_vector_entries_keep_the_surface_or_exit_3(tmp_path, data_dir, name, i, j):
    raw = json.loads((data_dir / f"{name}.json").read_text())
    raw["group_file"] = str(data_dir / raw["group_file"])
    if raw["extra_automorphisms"] is not None:
        extra = raw["extra_automorphisms"]
        extra["group_file"] = str(data_dir / extra["group_file"])
    vector = raw["vector"]
    vector[i], vector[j] = vector[j], vector[i]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    code, text = run_cli("cone", str(path), "--format", "record")
    if (name, i, j) in VALID_SWAPS:
        assert (code, text) == (cli.EXIT_OK,
                                (GOLDEN / f"cone_{name}.record").read_bytes().decode("utf-8"))
    else:
        assert (code, text) == (cli.EXIT_VALIDATION,
                                "validation error: invalid generating vector: "
                                "product: entries do not multiply to the identity\n")


def test_genvec_search_cmd(data_dir):
    code, text = run_cli("genvec", "search", str(data_dir / "toy_z4_group.json"),
                         "--type", "[0;4,4]")
    assert code == cli.EXIT_OK
    assert "found 2 generating vector(s)" in text


@pytest.mark.parametrize("type_text", ["[0;2^999999999]", "[0;4^3,2^254]",
                                       "[0;" + "9" * 5000 + "]"])
def test_genvec_search_rejects_oversized_type(data_dir, type_text):
    # "^k" used to be expanded before any check: 15 bytes asked for gigabytes.
    code, text = run_cli("genvec", "search", str(data_dir / "toy_z4_group.json"),
                         "--type", type_text)
    assert code == cli.EXIT_VALIDATION, text


def test_surface_file_with_oversized_type_is_parse_error(tmp_path, data_dir):
    (tmp_path / "toy_z4_group.json").write_bytes((data_dir / "toy_z4_group.json").read_bytes())
    raw = json.loads((data_dir / "toy_z4.json").read_text())
    raw["type"] = "[0;2^999999999]"
    path = tmp_path / "big_type.json"
    path.write_text(json.dumps(raw))
    code, text = run_cli("surface", str(path))
    assert code == cli.EXIT_PARSE, text
    assert "branch points" in text


def _toy_surface(tmp_path, data_dir, **fields):
    """A copy of toy_z4.json next to its group file, with ``fields`` replaced."""
    (tmp_path / "toy_z4_group.json").write_bytes((data_dir / "toy_z4_group.json").read_bytes())
    raw = json.loads((data_dir / "toy_z4.json").read_text())
    raw.update(fields)
    path = tmp_path / "toy_variant.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("command", ["surface", "divisors", "cone"])
def test_fractional_chi_is_a_validation_error(tmp_path, data_dir, command):
    # C -> C/G0 of type [0;2,2] has genus 0, so chi = (0 - 1)^2 / |G| = 1/4:
    # no free action gives that, and the file, not the program, is at fault.
    path = _toy_surface(tmp_path, data_dir, vector=["g1^2", "g1^2"], type="[0;2,2]")
    code, text = run_cli(command, str(path))
    assert (code, text) == (cli.EXIT_VALIDATION,
                            "validation error: (g-1)^2 = 1 is not divisible by |G| = 4, "
                            "so the action cannot be free\n")


def test_exponent_past_int_digit_limit_is_parse_error(tmp_path, data_dir):
    # int() refuses more than 4300 digits; that was a ValueError traceback.
    path = _toy_surface(tmp_path, data_dir, tau_prime="g1^" + "9" * 5000)
    code, text = run_cli("surface", str(path))
    assert code == cli.EXIT_PARSE, text
    assert "too many digits" in text


def test_zero_exponent_in_type_is_parse_error(tmp_path, data_dir):
    # "[0;2^0]" used to parse to a type with no branch points, and the
    # vector's length check then failed with exit 3.
    path = _toy_surface(tmp_path, data_dir, type="[0;2^0]")
    code, text = run_cli("cone", str(path))
    assert code == cli.EXIT_PARSE, text
    assert "exponents start at 1" in text


def test_huge_merged_exponents_reduce_modulo_the_group_order(tmp_path, data_dir,
                                                            monkeypatch):
    # g1^(10^8 + 1) = g1 and g1^-999998 = g1^2 in Z/4: the same surface as
    # toy_z4.json.  Merged adjacent powers were evaluated one factor at a
    # time, for 41 s.  Reduced modulo |G|, each factor of the normalized word
    # takes at most |G| - 1 products; the count stops a word at its bound.
    tau_prime = "g1*" + "*".join(["g1^1000000"] * 100)
    path = _toy_surface(tmp_path, data_dir, tau_prime=tau_prime,
                        vector=["g1^-999998"] * 8)
    evaluate, words = files.evaluate_word_index, []

    def counted(group, word, assignment):
        bound, made = (group.order - 1) * len(word), 0
        words.append(word)

        def mul(i, j):
            nonlocal made
            made += 1
            if made > bound:
                pytest.fail(f"{word} took more than {bound} products")
            return group.mul(i, j)

        return evaluate(SimpleNamespace(order=group.order, inv=group.inv, mul=mul),
                        word, assignment)

    monkeypatch.setattr(files, "evaluate_word_index", counted)
    code, text = run_cli("surface", str(path))
    assert (("g1", 10**8 + 1),) in words and (("g1", -999998),) in words
    assert code == cli.EXIT_VALIDATION
    assert text == (GOLDEN / "surface_toy_z4.txt").read_text()


WORD_TEXT = st.lists(st.sampled_from(["g1", "g2", "g3", "g4", "g5", *"0123456789",
                                      "^", "*", "(", ")", "-", " "]),
                     max_size=14).map("".join)


@settings(max_examples=100, deadline=1000)
@given(WORD_TEXT, st.lists(WORD_TEXT, min_size=1, max_size=2), st.lists(WORD_TEXT, max_size=9))
@example(tau_prime="(" * 1000 + "g1" + ")" * 1000, g0_generators=["g1^2"], vector=[])
@example(tau_prime="g1", g0_generators=["(" * 101 + "g1" + ")" * 101], vector=["g1"] * 8)
def test_fuzzed_words_exit_cleanly(tmp_path_factory, data_dir, tau_prime, g0_generators,
                                   vector):
    path = _toy_surface(tmp_path_factory.getbasetemp(), data_dir, tau_prime=tau_prime,
                        g0_generators=g0_generators, vector=vector)
    code, text = run_cli("surface", str(path))
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_ASSERTION,
                    cli.EXIT_MISMATCH), text


def test_genvec_search_rejects_an_unbounded_scan(data_dir):
    # [0;2^12] on g64 would scan about 3.7e14 candidate tuples.
    code, text = run_cli("genvec", "search", str(data_dir / "g64.json"),
                         "--type", "[0;2^12]")
    assert code == cli.EXIT_VALIDATION, text
    assert "372838600922841 candidates" in text


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_genvec_search_rejects_a_nonpositive_limit(data_dir, capsys, limit):
    with pytest.raises(SystemExit) as exc:
        run_cli("genvec", "search", str(data_dir / "h768.json"), "--type", "[0;2,3,8]",
                "--limit", limit)
    assert exc.value.code == cli.EXIT_PARSE
    assert "positive" in capsys.readouterr().err


def test_genvec_search_with_limit_is_not_bounded_ahead(data_dir):
    # [0;2^8] on h768 has 6 * 79^6 candidates, but --limit 1 stops at the
    # first vector the scan meets.
    code, text = run_cli("genvec", "search", str(data_dir / "h768.json"),
                         "--type", "[0;2^8]", "--limit", "1")
    assert code == cli.EXIT_OK, text
    assert text == ("1: g1, g1, g1, g1, g2*g1*g2*g2, g2*g1*g2*g2, g2*g2*g1*g2, g2*g2*g1*g2\n"
                    "found 1 generating vector(s) of type [0;2,2,2,2,2,2,2,2] "
                    "up to simultaneous conjugation\n")


def test_reproduce_family1(data_dir):
    code, text = run_cli("reproduce", "1")
    assert code == cli.EXIT_OK
    assert "[PASS]" in text and "[FAIL]" not in text
    assert "all checks passed" in text


def test_reproduce_harness_rejects_wrong_expectation(monkeypatch):
    wrong = expected.FAMILY_EXPECTATIONS[1]._replace(orbit_count=5)
    monkeypatch.setitem(expected.FAMILY_EXPECTATIONS, 1, wrong)
    code, text = run_cli("reproduce", "1")
    assert code == cli.EXIT_MISMATCH
    assert "[FAIL] family 1 orbit count: 4 orbit divisors, expected 5" in text


def test_cone_table_names_the_basis_the_witness_and_the_classes(data_dir):
    code, text = run_cli("cone", str(data_dir / "family1.json"))
    assert (code, text) == (cli.EXIT_OK, "verdict: MoriDream_EffEqNefEqSAmp\n"
                            "basis: D1, D2\n"
                            "cone generators: D1, D2\n"
                            "witness quadruple: D1 ~ D4, D2 ~ D3\n"
                            "class (0, 1): D2, D3\n"
                            "class (1, 0): D1, D4\n")


def _g0_only(monkeypatch):
    """Make the CLI run its pipelines without the extra automorphisms: the
    divisors of G0 alone pair with rank 1, so there is no basis."""
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda spec: files.run_pipeline(spec, use_extra=False))


def test_cone_prints_the_notes_of_its_report(data_dir, monkeypatch):
    _g0_only(monkeypatch)
    code, text = run_cli("cone", str(data_dir / "family2.json"))
    assert (code, text) == (cli.EXIT_OK, "verdict: Inconclusive\n"
                            "note: pairing has rank < 2; no basis of numerical classes\n")


def test_reproduce_without_a_basis_exits_5(monkeypatch):
    _g0_only(monkeypatch)
    code, text = run_cli("reproduce", "2")
    assert code == cli.EXIT_MISMATCH
    assert "[FAIL] family 2 basis: no basis of numerical classes\n" in text


def test_reproduce_refuses_divisors_of_nonzero_square_as_a_zero_matching(monkeypatch):
    # Families 2-5 have divisors with D^2 = 8, so no zero matching.
    wrong = expected.FAMILY_EXPECTATIONS[2]._replace(matched_zero_pattern=True)
    monkeypatch.setitem(expected.FAMILY_EXPECTATIONS, 2, wrong)
    code, text = run_cli("reproduce", "2")
    assert code == cli.EXIT_MISMATCH
    assert text.splitlines()[-1] == ("mismatch: family 2 reproduction failed: "
                                     "zero-pairing matching")


def test_reproduce_refuses_a_divisor_with_two_zero_partners(monkeypatch):
    # Family 1's pairing with D1 ~ D2 ~ D3 and D4 the other null class: every
    # square is 0, but D1 has two zero partners, D2 and D3.
    real = files.intersection_table
    pairing = ((0, 0, 0, 4), (0, 0, 0, 4), (0, 0, 0, 4), (4, 4, 4, 0))
    monkeypatch.setattr(files, "intersection_table",
                        lambda orbits, S: real(orbits, S)._replace(pairing=pairing))
    code, text = run_cli("reproduce", "1")
    assert code == cli.EXIT_MISMATCH
    assert ("[FAIL] family 1 zero-pairing matching: "
            "off-diagonal zeros pair the divisors perfectly\n") in text


def test_element_words_resolve_to_their_elements(data_dir):
    G = load_group(data_dir / "g64.json")
    words = [element_word(G, i) for i in range(G.order)]
    assert words[0] == "1"
    assert words[G.generator_indices[1]] == "g2"
    assert [resolve_word(G, w) for w in words] == list(range(G.order))


def test_exit_codes_are_distinct():
    codes = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION,
             cli.EXIT_ASSERTION, cli.EXIT_MISMATCH}
    assert len(codes) == 5


def test_vector_search_propagates_integrity_errors(data_dir, monkeypatch):
    # Only a ValidationError means "this candidate does not match"; corrupted
    # data must surface as exit 4 instead of being skipped.
    def corrupted(*args, **kwargs):
        raise IntegrityError("corrupted candidate")

    monkeypatch.setattr(files, "attach_covering_group", corrupted)
    spec = data_dir / "family2_search.json"
    with pytest.raises(IntegrityError, match="corrupted candidate"):
        files.build_surface(spec)
    code, text = run_cli("surface", str(spec))
    assert code == cli.EXIT_ASSERTION
    assert "corrupted candidate" in text


def test_vector_search_assembles_the_matching_surface_once(data_dir, monkeypatch):
    assembled, attached = [], []

    def counted_assemble(*args):
        assembled.append(args)
        return assemble(*args)

    def counted_attach(surface, H, h_vector):
        attached.append(h_vector)
        return attach(surface, H, h_vector)

    assemble, attach = files.assemble_surface, files.attach_covering_group
    monkeypatch.setattr(files, "assemble_surface", counted_assemble)
    monkeypatch.setattr(files, "attach_covering_group", counted_attach)
    searched = files.build_surface(data_dir / "family2_search.json")
    assert len(assembled) == 1
    assert attached == [(1, 2, 7)]
    monkeypatch.undo()
    # family2.json names the vector the search finds.
    given = files.build_surface(data_dir / "family2.json")
    assert given.h_covering.vector.entries == (1, 2, 7)
    assert searched.h_covering.fix_table == given.h_covering.fix_table
    assert searched[3:] == given[3:]  # to_h, chi, K^2, e, q, p_g


def test_vector_search_draws_one_vector_from_the_scan(data_dir, monkeypatch):
    drawn, limits, joins = [], [], []
    scan, search = covering.generating_vectors, files.search_generating_vectors
    join = covering.subgroup_generated

    def counted_scan(*args):
        for v in scan(*args):
            drawn.append(v.entries)
            yield v

    def counted_search(G, cover_type, limit=None):
        limits.append(limit)
        return search(G, cover_type, limit)

    def counted_join(G, seeds):
        joins.append(seeds)
        return join(G, seeds)

    monkeypatch.setattr(covering, "generating_vectors", counted_scan)
    monkeypatch.setattr(files, "search_generating_vectors", counted_search)
    monkeypatch.setattr(covering, "subgroup_generated", counted_join)
    files.build_surface(data_dir / "family2_search.json")
    assert limits == [1]
    assert drawn == [(1, 2, 7)]
    lazy = len(joins)
    joins.clear()
    H = load_group(data_dir / "h768.json")
    covering.search_generating_vectors(H, surface.TRIANGLE_TYPE)
    assert lazy < len(joins)


def test_vector_search_tries_every_candidate_in_scan_order(data_dir, monkeypatch):
    tried = []

    def refused(g_side, H, h_vector):
        tried.append(h_vector)
        raise ValidationError("refused")

    monkeypatch.setattr(files, "attach_covering_group", refused)
    code, text = run_cli("cone", str(data_dir / "family2_search.json"))
    H = load_group(data_dir / "h768.json")
    scan = [v.entries for v in covering.search_generating_vectors(H, surface.TRIANGLE_TYPE)]
    assert len(scan) == 4
    assert tried == scan
    assert (code, text) == (cli.EXIT_VALIDATION,
                            "validation error: no [0;2,3,8] vector of the extra-automorphism "
                            "group induces the surface's defining vector\n")


def _search_file(tmp_path, data_dir, **fields) -> Path:
    """A copy of family2_search.json with ``fields`` replaced and its group
    files named by absolute path."""
    raw = json.loads((data_dir / "family2_search.json").read_text())
    raw["group_file"] = str(data_dir / raw["group_file"])
    raw["extra_automorphisms"]["group_file"] = str(
        data_dir / raw["extra_automorphisms"]["group_file"])
    raw.update(fields)
    path = tmp_path / "search.json"
    path.write_text(json.dumps(raw))
    return path


def test_vector_search_reports_a_tau_prime_inside_g0(tmp_path, data_dir):
    code, text = run_cli("surface", str(_search_file(tmp_path, data_dir, tau_prime="g1")))
    assert (code, text) == (cli.EXIT_VALIDATION,
                            "validation error: tau' must lie outside G0\n")


def test_vector_search_reports_a_defining_vector_off_the_identity(tmp_path, data_dir):
    path = _search_file(tmp_path, data_dir, vector=["g2", "g1", "g3"])
    code, text = run_cli("surface", str(path))
    assert code == cli.EXIT_VALIDATION
    assert text.startswith("validation error: invalid generating vector: product: "), text


def _count_calls(monkeypatch, module, name: str, record) -> None:
    """Wrap ``module.name`` in every mixedsurf namespace that binds it, so that
    each call first passes its argument to ``record``."""
    original = getattr(module, name)

    def counted(arg):
        record(arg)
        return original(arg)

    for namespace in (files, perm, covering, surface):
        if getattr(namespace, name, None) is original:
            monkeypatch.setattr(namespace, name, counted)


def test_warm_pipeline_validates_each_vector_until_its_cover_is_kept(
        data_dir, fresh_group_memo, monkeypatch):
    # Groups, G0's realization on its kept G, and the covers on their kept
    # groups are each kept on their second request.  Run 2 keeps g256b and
    # h768; run 3 keeps G0 and H's cover, run 4 the cover of that G0.  A run
    # that returns kept covers validates no vector.
    spec = data_dir / "family2.json"
    derived, validated = [], []
    _count_calls(monkeypatch, perm, "derived_subgroup", derived.append)
    _count_calls(monkeypatch, covering, "validate_generating_vector",
                 lambda v: validated.append(str(v.cover_type)))
    runs = []
    for _ in range(5):
        derived.clear()
        validated.clear()
        bundle = files.run_pipeline(spec)
        runs.append((bool(derived), tuple(validated), bundle.surface.g0_group))
    assert sorted(g.order for g in fresh_group_memo.values()) == [256, 768]
    both = ("[0;4,4,4]", "[0;2,3,8]")
    assert [run[:2] for run in runs] == [(True, both), (True, both), (False, both),
                                         (False, ("[0;4,4,4]",)), (False, ())]
    g0_groups = [run[2] for run in runs]
    assert g0_groups[2] is g0_groups[3] is g0_groups[4]
    assert g0_groups[1] is not g0_groups[2]


def test_warm_pipeline_walks_no_span_and_parses_no_word_once_they_are_kept(
        data_dir, fresh_group_memo, monkeypatch):
    # A run walks G0's span and the two generation checks of H's tower, and
    # parses family2.json's ten words.  Runs 1 and 2 realize G and H afresh,
    # and run 2's are kept.  On them, the words g1-g3, requested twice a run,
    # are kept in run 2; the span, the tower and the four words requested
    # once a run are kept in run 3.  From run 4 on, nothing is walked or
    # parsed.
    walks, parses = [], []
    walk, parse = surface.subgroup_generated, files.parse_word

    def counted_walk(G, seeds):
        walks.append(seeds)
        return walk(G, seeds)

    def counted_parse(text, alphabet):
        parses.append(text)
        return parse(text, alphabet)

    monkeypatch.setattr(surface, "subgroup_generated", counted_walk)
    monkeypatch.setattr(files, "parse_word", counted_parse)
    spec = data_dir / "family2.json"
    runs = []
    for _ in range(6):
        walks.clear()
        parses.clear()
        files.run_pipeline(spec)
        runs.append((len(walks), len(parses)))
    assert runs == [(3, 10), (3, 10), (3, 4), (0, 0), (0, 0), (0, 0)]


# ----------------------------------------------------------------------
# malformed JSON documents and surface-file fields

@pytest.mark.parametrize("content", ["5", '"x"', "null"])
@pytest.mark.parametrize("command", ["group", "surface"])
def test_non_object_json_is_parse_error(tmp_path, command, content):
    path = tmp_path / "doc.json"
    path.write_text(content)
    code, text = run_cli(command, str(path))
    assert code == cli.EXIT_PARSE, text
    assert "expected a JSON object" in text


def test_non_utf8_file_is_parse_error(tmp_path, data_dir, fresh_group_memo):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xe9"}')
    assert run_cli("group", str(path))[0] == cli.EXIT_PARSE
    # g64.json in UTF-16 with a BOM, which json.loads would take as bytes.
    utf16 = tmp_path / "g64_utf16.json"
    utf16.write_bytes((data_dir / "g64.json").read_text(encoding="utf-8").encode("utf-16"))
    assert utf16.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
    for argv in (("group", str(utf16)),
                 ("genvec", "search", str(utf16), "--type", "[0;2^5]", "--limit", "1")):
        code, text = run_cli(*argv)
        assert code == cli.EXIT_PARSE, text


@pytest.mark.parametrize("field,value", [
    ("vector", 5),
    ("vector", ["g1", 2, "g3"]),
    ("g0_generators", 5),
    ("g0_generators", "g1"),
    ("tau_prime", 4),
    ("type", ["[0;4^3]"]),
    ("extra_automorphisms", 5),
    ("extra_automorphisms", ["group_file", "vector"]),
    ("extra_automorphisms", {"group_file": "h768.json", "vector": 5}),
    ("extra_automorphisms", {"group_file": "h768.json", "vector": "g1"}),
    ("extra_automorphisms", {"group_file": 7, "vector": "search"}),
])
def test_malformed_surface_fields_are_parse_errors(tmp_path, data_dir, field, value):
    raw = json.loads((data_dir / "family2.json").read_text())
    raw[field] = value
    path = tmp_path / "family2_bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(InputParseError):
        load_surface_record(path)
    code, text = run_cli("surface", str(path))
    assert code == cli.EXIT_PARSE, text


def test_extra_vector_of_two_words_is_parse_error(tmp_path, data_dir):
    raw = json.loads((data_dir / "family2.json").read_text())
    raw["extra_automorphisms"]["vector"] = raw["extra_automorphisms"]["vector"][:2]
    path = tmp_path / "family2_short.json"
    path.write_text(json.dumps(raw))
    code, text = run_cli("surface", str(path))
    assert code == cli.EXIT_PARSE
    assert "extra-automorphism vector needs 3 words" in text


SURFACE_FIELDS = ("name", "group_file", "g0_generators", "tau_prime", "vector", "type",
                  "extra_automorphisms")
WORDS = st.sampled_from(["g1", "g1^2", "g1^-1", "(g1*g1)^3", "1", "g2", "g1*", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | WORDS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)
SURFACE_VALUES = st.one_of(
    JSON_VALUES,
    st.lists(WORDS, max_size=9),
    st.sampled_from(["toy_z4_group.json", "toy_z4.json", "[0;2^8]", "[0;4,4]", "search"]),
    st.fixed_dictionaries({"group_file": st.sampled_from(["toy_z4_group.json", "nope.json"]),
                           "vector": st.just("search") | st.lists(WORDS, max_size=4)}),
)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.sampled_from(SURFACE_FIELDS), SURFACE_VALUES | st.just(...),
                       min_size=1, max_size=3))
def test_fuzzed_surface_fields_exit_cleanly(tmp_path_factory, data_dir, changes):
    # Each drawn field is replaced by a JSON value, or deleted (...).
    base = tmp_path_factory.getbasetemp()
    (base / "toy_z4_group.json").write_bytes((data_dir / "toy_z4_group.json").read_bytes())
    raw = json.loads((data_dir / "toy_z4.json").read_text())
    for field, value in changes.items():
        if value is ...:
            raw.pop(field)
        else:
            raw[field] = value
    path = base / "fuzz_surface.json"
    path.write_text(json.dumps(raw))
    code, text = run_cli("surface", str(path))
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_ASSERTION,
                    cli.EXIT_MISMATCH), text


# ----------------------------------------------------------------------
# seeded mutation sweep over the bundled surface files

SWEEP_SURFACES = ("family1", "family1_nonfree", "family2", "family2_search", "family3",
                  "family4", "family5", "toy_z4")
SWEEP_GROUPS = ("g64.json", "g256a.json", "g256b.json", "h768.json", "toy_z4_group.json")
# A run on families 2-5 that reaches the group closure takes about 0.1 s, so
# eight mutations per file keep the sweep to a few seconds.
SWEEP_SEED, SWEEP_MUTATIONS = 13, 8
# A run closes at most the two group files a surface names, G's and the
# extra block's, each at most one element past its claim, and no bundled
# group claims more than 768 elements.
SWEEP_ELEMENTS = 2 * (768 + 1)
LAST_EXPONENT = re.compile(r"\^-?\d+(?=[^^]*$)")


def _blocks(raw: dict) -> list[dict]:
    return [raw] + ([raw["extra_automorphisms"]] if raw["extra_automorphisms"] else [])


def _word_slots(raw: dict) -> list[tuple]:
    """(holder, key) of every word in a surface record."""
    return [(raw, "tau_prime")] + [(block[key], i) for block in _blocks(raw)
                                   for key in ("g0_generators", "vector")
                                   if isinstance(block.get(key), list)
                                   for i in range(len(block[key]))]


def mutate_surface(raw: dict, rng: random.Random) -> str:
    """Apply one mutation drawn from ``rng`` to a surface record; describe it.

    It drops a field, swaps two words, changes an exponent (of a word or of
    the type) or points a group_file at another bundled group.
    """
    blocks = _blocks(raw)
    words = _word_slots(raw)
    kind = rng.choice(("drop", "swap", "exponent", "group"))
    if kind == "drop":
        block = rng.choice(blocks)
        key = rng.choice(sorted(block))
        del block[key]
        return f"drop {key}"
    if kind == "swap":
        (a, i), (b, j) = rng.choice([(x, y) for x, y in combinations(words, 2)
                                     if x[0][x[1]] != y[0][y[1]]])
        a[i], b[j] = b[j], a[i]
        return f"swap {a[i]!r} and {b[j]!r}"
    if kind == "exponent":
        holder, key = rng.choice(words + [(raw, "type")])
        old = holder[key]
        changed = [LAST_EXPONENT.sub(f"^{e}", old) if LAST_EXPONENT.search(old)
                   else f"({old})^{e}" for e in (-3, -2, -1, 0, 2, 3, 5)]
        holder[key] = rng.choice([text for text in changed if text != old])
        return f"exponent {old!r} -> {holder[key]!r}"
    block = rng.choice(blocks)
    old = block["group_file"]
    block["group_file"] = rng.choice([g for g in SWEEP_GROUPS if g != old])
    return f"group_file {old} -> {block['group_file']}"


# Nesting past the parsers' recursion: 600 parentheses around a word, and a
# group file of 1,000 nested "[" (each used to end in a RecursionError).
NESTED_GROUP = "nested_group.json"


def nest_word(raw: dict, rng: random.Random) -> str:
    holder, key = rng.choice(_word_slots(raw))
    holder[key] = "(" * 600 + holder[key] + ")" * 600
    return f"600 parentheses around {holder[key][600:-600]!r}"


def nest_group_file(raw: dict, rng: random.Random) -> str:
    rng.choice(_blocks(raw))["group_file"] = NESTED_GROUP
    return f"group_file -> {NESTED_GROUP}"


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("sweep")
    for name in SWEEP_GROUPS:
        (out / name).write_bytes((data_dir / name).read_bytes())
    (out / NESTED_GROUP).write_text("[" * 1000)
    return out


@pytest.fixture
def closed_elements(monkeypatch) -> list[int]:
    """The elements of each group closure that ``files`` runs from now on: the
    group's order, or the budget it stopped at."""
    closed = []
    closure = files.closure

    def recorded(generators, budget):
        try:
            group = closure(generators, budget)
        except BudgetExceeded:
            closed.append(budget)
            raise
        closed.append(group.order)
        return group

    monkeypatch.setattr(files, "closure", recorded)
    return closed


@pytest.mark.parametrize("name", SWEEP_SURFACES)
def test_seeded_mutations_of_bundled_surfaces_exit_cleanly(sweep_dir, data_dir, name,
                                                           fresh_group_memo, closed_elements):
    # A fresh memo: the first two loads of each group file close it.
    rng = random.Random(f"{SWEEP_SEED}:{name}")
    text = (data_dir / f"{name}.json").read_text()
    path = sweep_dir / f"{name}.json"
    # The nesting shapes come after the seeded draws, so they leave those as
    # they were; each must be a parse error.
    for mutate in [mutate_surface] * SWEEP_MUTATIONS + [nest_word, nest_group_file]:
        raw = json.loads(text)
        change = mutate(raw, rng)
        path.write_text(json.dumps(raw))
        closed_elements.clear()
        code, out = run_cli("cone", str(path), "--format", "record")
        assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_ASSERTION,
                        cli.EXIT_MISMATCH), (change, out)
        if mutate is not mutate_surface:
            assert code == cli.EXIT_PARSE, (change, out)
        assert "Traceback" not in out, (change, out)
        assert sum(closed_elements) <= SWEEP_ELEMENTS, (change, closed_elements)
