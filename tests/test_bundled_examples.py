"""Spot checks of the bundled data against known values."""

from __future__ import annotations

import io
import json

from mixedsurf import cli
from mixedsurf.cone import VERDICT_INCONCLUSIVE
from mixedsurf.covering import CoverType, search_generating_vectors
from mixedsurf.files import build_surface, load_group, load_group_record, run_pipeline
from mixedsurf.perm import fingerprint, subgroup_generated


def test_family1_g0_fingerprint(family1):
    # the index-2 subgroup is Z2^2 x D4: abelianization (Z2)^4, order 32
    fp = fingerprint(family1.surface.g0_group)
    assert fp.order == 32
    assert fp.abelianization == (2, 2, 2, 2)


def test_h768_fingerprint_and_series(data_dir):
    record = load_group_record(data_dir / "h768.json")
    assert load_group(data_dir / "h768.json").order == record.fingerprint.order == 768
    assert record.fingerprint.derived_series[:3] == (768, 384, 128)
    assert record.fingerprint.abelianization == (2,)


def test_vector_entries_generate_index_two_subgroup(family1):
    S = family1.surface
    G = S.action.G
    entries = [g for g, k in S.to_h.items() if k in S.covering.vector.entries]
    sub = subgroup_generated(G, entries)
    assert sub.order == 32 and G.order == 64


def test_order_eight_element_generates_cyclic_subgroup(data_dir):
    H = load_group(data_dir / "h768.json")
    x = next(i for i in range(H.order) if H.order_of(i) == 8)
    assert subgroup_generated(H, [x]).order == 8


def test_family1_ramification_total(family1):
    # sum over branch points of (|H|/m)(m-1) = 5 * 16 = 80
    assert sum(family1.surface.h_covering.fix_table.values()) == 80


def test_family2_ramification_total(family2):
    # 768/2 + 2*768/3 + 7*768/8 = 384 + 512 + 672
    assert sum(family2.surface.h_covering.fix_table.values()) == 1568


def test_search_finds_type_2_5_vector_in_g0(family1):
    g0 = family1.surface.g0_group
    found = search_generating_vectors(g0, CoverType(0, (2,) * 5), limit=1)
    assert len(found) == 1


def test_g0_only_pipeline_gives_single_numerical_class(data_dir):
    # Without the extra automorphisms the graphs give divisors that are all
    # numerically equivalent (one vector in N^1, a rank-1 pairing), so no
    # cone basis exists: this is why the bigger covering group is needed.
    bundle = run_pipeline(data_dir / "family2.json", use_extra=False)
    assert bundle.surface.h_group.order == 128
    table, report = bundle.table, bundle.report
    rows = {row for row in table.pairing}
    assert len(rows) == 1          # every divisor has identical products
    assert table.rank() == 1
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert any("rank" in n for n in report.notes)


def test_g0_only_cli_flag(data_dir):
    out = io.StringIO()
    code = cli.run(["divisors", str(data_dir / "family2.json"), "--g0-only",
                    "--format", "record"], out=out)
    assert code == cli.EXIT_OK
    payload = json.loads(out.getvalue())
    rows = {tuple(d["row"]) for d in payload["divisors"]}
    assert len(rows) == 1


def test_search_fixture_resolves(data_dir):
    surface = build_surface(data_dir / "family2_search.json")
    assert surface.h_group.order == 768
    assert surface.covering.genus == 17


def test_family1_stabilizer_elements_are_involutions(family1):
    cov = family1.surface.h_covering
    g0 = family1.surface.g0_group
    orders = {g0.order_of(s) for s in cov.sigma_v if s != 0}
    assert orders == {2}


def test_order256_groups_share_fingerprint_but_are_distinct_files(data_dir):
    # The two bundled order-256 groups agree on every fingerprint invariant
    # (fingerprints do not determine isomorphism type); the pipeline relies
    # on downstream behavioral checks, not on telling them apart.
    rec_a = load_group_record(data_dir / "g256a.json")
    rec_b = load_group_record(data_dir / "g256b.json")
    assert rec_a.fingerprint == rec_b.fingerprint
    assert rec_a.generators != rec_b.generators


def test_surface_cmd_family3(data_dir):
    out = io.StringIO()
    code = cli.run(["surface", str(data_dir / "family3.json")], out=out)
    assert code == cli.EXIT_OK
    text = out.getvalue()
    assert "g(C) = 17" in text and "chi = 1" in text
