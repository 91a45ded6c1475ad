"""Acceptance suite: every criterion at its stated tolerance.

All arithmetic in the package is exact, so every comparison here is an
equality check (tolerance zero); runtime budgets are asserted where
stated.  One PASS/FAIL line is printed per criterion.
"""

from __future__ import annotations

import io
import time

import pytest

from oracles import CosetFiberOracle, evaluate_word
from mixedsurf import cli
from mixedsurf.coset import todd_coxeter
from mixedsurf.covering import CoverType, covering_data, search_generating_vectors
from mixedsurf.files import load_group
from mixedsurf.perm import derived_subgroup
from mixedsurf.surface import check_free_action, derive_induced_vectors
from mixedsurf.files import build_surface
from mixedsurf.words import Presentation


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


def test_criterion_1_family1_reproduction():
    t0 = time.monotonic()
    code, text = _run_cli("reproduce", "1")
    elapsed = time.monotonic() - t0
    ok = code == 0 and "[FAIL]" not in text and elapsed < 5.0
    _report("1. family 1 reproduction",
            ok, f"exit={code}, {elapsed:.2f}s (< 5s), all itemized checks pass")


@pytest.mark.parametrize("family", [2, 3, 4, 5])
def test_criterion_2_families_2_to_5_reproduction(family):
    t0 = time.monotonic()
    code, text = _run_cli("reproduce", str(family))
    elapsed = time.monotonic() - t0
    ok = code == 0 and "[FAIL]" not in text and elapsed < 60.0
    _report(f"2. family {family} reproduction",
            ok, f"exit={code}, {elapsed:.2f}s (< 60s), 15 divisors, class partition, verdict")


def test_criterion_3_genus_and_invariants(families):
    details = []
    ok = True
    for k, bundle in sorted(families.items()):
        s = bundle.surface
        want_genus = 9 if k == 1 else 17
        good = (s.covering.genus == want_genus
                and (s.chi, s.k2, s.euler, s.q, s.pg) == (1, 8, 4, 0, 0))
        ok = ok and good
        details.append(f"family {k}: g={s.covering.genus} chi={s.chi} K2={s.k2} "
                       f"e={s.euler} q={s.q} pg={s.pg}")
    _report("3. genus and invariants", ok, "; ".join(details))


def test_criterion_4_freeness(families, data_dir):
    ok = all(bundle.freeness.ok for bundle in families.values())
    details = [f"families 1-5 free: {ok}"]
    for name in ("family1_nonfree", "toy_z4"):
        surface = build_surface(data_dir / f"{name}.json")
        rep = check_free_action(surface)
        witness = rep.isolated_witness if rep.isolated_witness is not None else rep.curve_witness
        good = (not rep.ok) and witness is not None
        G = surface.action.G
        from_h = {k: g for g, k in surface.to_h.items()}
        sigma_g = {from_h[s] for s in surface.covering.sigma_v}
        if rep.isolated_witness is not None:
            good = good and witness in sigma_g and surface.action.phi[witness] in sigma_g
        else:
            good = good and witness not in surface.action.G0 and \
                G.mul(witness, witness) in sigma_g
        ok = ok and good
        details.append(f"{name}: fails with verified witness {witness}")
    _report("4. freeness conditions", ok, "; ".join(details))


def test_criterion_5_extra_automorphism_tower(families, data_dir):
    H, _ = load_group(data_dir / "h768.json")
    found = search_generating_vectors(H, CoverType(0, (2, 3, 8)), limit=1)
    ok = len(found) == 1
    details = [f"[0;2,3,8] vector found: {bool(found)}"]

    h_prime = derived_subgroup(H)
    second = derived_subgroup(h_prime)
    ok = ok and h_prime.order == 384 and second.order == 128
    ok = ok and H.derived_series[:2] == (h_prime.members, second.members)
    details.append(f"|[H,H]|={h_prime.order}, |[[H,H],[H,H]]|={second.order}")

    tower = derive_induced_vectors(covering_data(found[0]))
    t1 = tuple(H.order_of(x) for x in tower.first)
    t2 = tuple(H.order_of(x) for x in tower.second)
    ok = ok and t1 == (3, 3, 4) and t2 == (4, 4, 4)
    details.append(f"induced types {t1} and {t2}")

    pair_counts = []
    for k in (2, 3, 4, 5):
        S = families[k].surface
        G = S.action.G
        to_h = S.to_h
        Hk = S.h_group
        checked = 0
        good = len(set(to_h.values())) == len(to_h)
        for x in S.action.G0.members:
            for y in S.action.G0.members:
                checked += 1
                if to_h[G.mul(x, y)] != Hk.mul(to_h[x], to_h[y]):
                    good = False
        ok = ok and good and checked == 16384
        pair_counts.append(checked)
    details.append(f"embeddings verified on {pair_counts} products")
    _report("5. extra-automorphism tower", ok, "; ".join(details))


def test_criterion_6_oracle_equivalence(family1, family2):
    t0 = time.monotonic()
    checked = 0
    ok = True
    for bundle in (family1, family2):
        cov = bundle.surface.h_covering
        H = bundle.surface.h_group
        oracle = CosetFiberOracle(H, cov.vector.entries)
        for f in range(1, H.order):
            checked += 1
            if cov.fix_table[f] != oracle.count(f):
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report("6. oracle equivalence", ok,
            f"{checked} elements checked against the coset-fiber oracle "
            f"in {elapsed:.2f}s (< 30s)")


def test_criterion_7_property_suite(families):
    ok = True
    details = []

    # ramification-sum identity on every bundled cover
    for k, bundle in sorted(families.items()):
        cov = bundle.surface.h_covering
        got = sum(cov.fix_table.values())
        want = sum((cov.vector.group.order // m) * (m - 1)
                   for m in cov.vector.cover_type.m)
        ok = ok and got == want
    details.append("ramification sums exact")

    # integrality is enforced by construction (entries are ints); adjunction
    # parity, rank and the Hodge sign pattern re-checked here
    for bundle in families.values():
        t = bundle.table
        for i in t.labels:
            ok = ok and isinstance(t.entry(i, i), int)
            ok = ok and (t.kdot[i - 1] + t.entry(i, i)) % 2 == 0
        ok = ok and t.rank() == 2
        i, j = bundle.report.basis
        ok = ok and (t.entry(i, i) * t.entry(j, j) - t.entry(i, j) ** 2) < 0
    details.append("integrality, parity, rank 2, Hodge signs")

    for bundle in families.values():
        H = bundle.surface.h_group
        sizes = [d.n for d in bundle.table.divisors]
        ok = ok and sum(sizes) == H.order
        ok = ok and all(bundle.surface.action.G.order % n == 0 for n in sizes)
    details.append("orbit sizes sum to |H| and divide |G|")

    _report("7. property suite", ok, "; ".join(details))


def test_criterion_8_todd_coxeter():
    t0 = time.monotonic()
    cases = [
        (("x",), ["x^5"], 5),
        (("x", "y"), ["x^2", "y^4", "(x*y)^2"], 8),
        (("x", "y"), ["x^2", "y^8", "x*y*x^-1*y^-5"], 16),
    ]
    ok = True
    orders = []
    for gens, rels, want in cases:
        pres = Presentation.parse(gens, rels)
        group = todd_coxeter(pres)
        orders.append(group.order)
        ok = ok and group.order == want
        assignment = dict(zip(pres.generators, group.generators))
        for rel in pres.relators:
            ok = ok and evaluate_word(rel, assignment).images == tuple(
                range(1, group.degree + 1))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report("8. Todd-Coxeter", ok,
            f"orders {orders} == [5, 8, 16], relators all evaluate to the "
            f"identity, {elapsed:.2f}s (< 1s)")
