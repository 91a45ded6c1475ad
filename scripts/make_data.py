#!/usr/bin/env python3
"""Regenerate the bundled group and surface data files from scratch.

Everything here is deterministic (fixed presentations, fixed scan orders,
first-found selection rules), so rerunning the script reproduces the
bundled files byte for byte.  The script is also self-checking: it runs
the full library pipeline on every fixture it writes and compares the
output against the expected tables before declaring success.

Construction outline:

* The order-768 covering group is enumerated from the presentation
  < x, y | x^2, y^3, (xy)^8, ((xyxyxy^2)^2)^2 > by coset enumeration; its
  derived series (768, 384, 128, ...) and the induced generating-vector
  tower of types [0;2,3,8] -> [0;3,3,4] -> [0;4^3] are verified on the fly.
* The order-256 mixed groups arise as index-2 extensions of the second
  derived subgroup by pairs (phi, tau), phi an automorphism with
  phi^2 = conj_tau and phi(tau) = tau, filtered by the two freeness
  conditions and deduplicated; a backtracking isomorphism test splits the
  survivors into their two isomorphism types.
* The order-64 group is the analogous extension of Z2^2 x D4 found by
  exhaustive search over automorphisms and [0;2^5] generating vectors.

Usage:  python scripts/make_data.py [--out DIR]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixedsurf.cone import cone_report
from mixedsurf.covering import (CoverType, GeneratingVector, covering_data,
                                search_generating_vectors)
from mixedsurf.divisors import graph_orbits, intersection_table
from mixedsurf.errors import IntegrityError, MismatchError
from mixedsurf.expected import FAMILY_EXPECTATIONS, compare_family
from mixedsurf.files import build_surface, element_word, save_group_file, save_surface_file
from mixedsurf.perm import (FiniteGroup, Permutation, closure, conjugacy_classes,
                            extend_homomorphism, subgroup_generated)
from mixedsurf.surface import (check_free_action, derive_induced_vectors,
                               fixed_curve_witness, isolated_point_witness)
from mixedsurf.coset import todd_coxeter
from mixedsurf.words import Presentation, normalize_word, word_power

PROVENANCE = ("constructed in-repo by scripts/make_data.py "
              "(coset enumeration + exhaustive extension search); 2026-08-09")


def log(msg: str):
    print(msg, flush=True)


# ----------------------------------------------------------------------
# The order-768 covering group, automorphisms, free extension pairs, and the
# extension groups.

def build_h() -> FiniteGroup:
    relators = [
        normalize_word([("x", 2)]),
        normalize_word([("y", 3)]),
        word_power(normalize_word([("x", 1), ("y", 1)]), 8),
        word_power(normalize_word([("x", 1), ("y", 1)] * 2 + [("x", 1), ("y", 2)]), 4),
    ]
    pres = Presentation(("x", "y"), tuple(relators))
    H = todd_coxeter(pres, max_cosets=60000)
    if H.order != 768:
        raise IntegrityError(f"coset enumeration gave order {H.order}, expected 768")
    return H


def embedding(src: FiniteGroup, src_gens, dst: FiniteGroup, dst_gens) -> dict[int, int]:
    """The injective homomorphism src_gens[i] -> dst_gens[i] on <src_gens>."""
    img = extend_homomorphism(src, src_gens, dst, dst_gens)
    if img is None:
        raise IntegrityError("generator matching does not extend to an embedding")
    return img


def automorphisms_of_span(G: FiniteGroup, members, gens) -> list[dict[int, int]]:
    """All automorphisms of the subgroup spanned by ``gens`` (a generating
    vector with product 1, so the last image is forced)."""
    pools = []
    for g in gens[:-1]:
        o = G.order_of(g)
        pools.append([m for m in members if G.order_of(m) == o])
    last_order = G.order_of(gens[-1])
    out = []

    def rec(position, chosen, product):
        if position == len(gens) - 1:
            last = G.inv(product)
            if G.order_of(last) != last_order:
                return
            # An injective homomorphism of the span into itself is onto.
            m = extend_homomorphism(G, gens, G, chosen + [last])
            if m is not None:
                out.append(m)
            return
        for t in pools[position]:
            rec(position + 1, chosen + [t], G.mul(product, t))

    rec(0, [], 0)
    return out


def free_extension_pairs(G: FiniteGroup, members, gens, auts, sigma):
    """(phi, tau) with phi^2 = conj_tau, phi(tau) = tau, and both freeness
    conditions satisfied."""
    out = []
    for phi in auts:
        if isolated_point_witness(sigma, phi) is not None:
            continue
        for tau in members:
            if (phi[tau] == tau and all(phi[phi[g]] == G.conj(tau, g) for g in gens)
                    and fixed_curve_witness(G, members, sigma, phi, tau) is None):
                out.append((phi, tau))
    return out


def canon_ext_key(G: FiniteGroup, members, phi, tau):
    """Canonical form of (phi, tau) modulo re-choosing tau' inside its coset."""
    best = None
    for h in members:
        key = (tuple(G.conj(h, phi[m]) for m in members),
               G.mul(G.mul(h, phi[h]), tau))
        if best is None or key < best:
            best = key
    return best


def dedup_extensions(G: FiniteGroup, members, pairs):
    reps = {}
    for phi, tau in pairs:
        key = canon_ext_key(G, members, phi, tau)
        if key not in reps:
            reps[key] = (phi, tau)
    return [reps[k] for k in sorted(reps)]


def build_extension(G: FiniteGroup, members, phi, tau, vec_gens) -> FiniteGroup:
    """The index-2 extension of the span of ``members`` by (phi, tau), as a
    permutation group acting on its own 2|span| elements (right
    multiplication); generators are (vec_gens..., tau')."""
    pos = {m: i for i, m in enumerate(members)}
    size = 2 * len(members)

    def pid(m, eps):
        return pos[m] + len(members) * eps + 1

    def emul(m1, e1, m2, e2):
        if e1 == 0:
            return (G.mul(m1, m2), e2)
        mm = G.mul(m1, phi[m2])
        return ((G.mul(mm, tau), 0) if e2 == 1 else (mm, 1))

    def right_mult(g, ge):
        images = [0] * size
        for m in members:
            for eps in (0, 1):
                r = emul(m, eps, g, ge)
                images[pid(m, eps) - 1] = pid(*r)
        return Permutation(tuple(images))

    gens = [right_mult(v, 0) for v in vec_gens] + [right_mult(0, 1)]
    ext = closure(gens, budget=size + 1)
    if ext.order != size:
        raise IntegrityError(f"extension has order {ext.order}, expected {size}")
    return ext


def iso_test(GA: FiniteGroup, GB: FiniteGroup) -> bool:
    """Exhaustive generator-image isomorphism search (order-pruned)."""
    if GA.order != GB.order:
        return False
    gA = list(GA.generator_indices)

    def word_ord(G, gens, w):
        acc = 0
        for q in w:
            acc = G.mul(acc, gens[q])
        return G.order_of(acc)

    probes = [(0, 1), (0, 3), (1, 3), (0, 1, 3), (0, 0, 1), (1, 1, 3)]
    cons = {w: word_ord(GA, gA, w) for w in probes}
    pool4 = [i for i in range(GB.order) if GB.order_of(i) == GA.order_of(gA[0])]
    poolt = [i for i in range(GB.order) if GB.order_of(i) == GA.order_of(gA[3])]

    for t1 in pool4:
        for t2 in pool4:
            p12 = GB.mul(t1, t2)
            if GB.order_of(p12) != cons[(0, 1)]:
                continue
            t3 = GB.inv(p12)
            if GB.order_of(t3) != GA.order_of(gA[2]):
                continue
            if word_ord(GB, [t1, t2, t3, 0], (0, 0, 1)) != cons[(0, 0, 1)]:
                continue
            for t4 in poolt:
                if GB.order_of(GB.mul(t1, t4)) != cons[(0, 3)]:
                    continue
                if GB.order_of(GB.mul(t2, t4)) != cons[(1, 3)]:
                    continue
                if word_ord(GB, [t1, t2, t3, t4], (0, 1, 3)) != cons[(0, 1, 3)]:
                    continue
                if word_ord(GB, [t1, t2, t3, t4], (1, 1, 3)) != cons[(1, 1, 3)]:
                    continue
                if extend_homomorphism(GA, gA, GB, (t1, t2, t3, t4)) is not None:
                    return True
    return False


# ----------------------------------------------------------------------
# Families 2..5.

def make_families_2_to_5(out: Path):
    t0 = time.time()
    H = build_h()
    log(f"covering group of order {H.order} built ({time.time() - t0:.1f}s)")

    type_238 = CoverType(0, (2, 3, 8))
    classes = [v.entries for v in search_generating_vectors(H, type_238)]
    if len(classes) != 4:
        raise IntegrityError(f"expected 4 vector classes, found {len(classes)}")
    log(f"[0;2,3,8] vector classes: {classes}")

    # Each class induces a [0;4^3] vector of G0 = [[H,H],[H,H]].
    towers = [derive_induced_vectors(H, *abc) for abc in classes]
    induced = [tower.second for tower in towers]
    members = towers[0].g0_sub.members
    V0 = induced[0]

    t0 = time.time()
    auts = automorphisms_of_span(H, members, V0)
    log(f"|Aut(G0)| = {len(auts)} ({time.time() - t0:.1f}s)")

    # Sigma_V: the G0 members with fixed points on C, read from each class's
    # H-cover; all four classes must agree.
    fix_tables = [covering_data(GeneratingVector(H, type_238, abc)).fix_table
                  for abc in classes]
    sigmas = {frozenset(g for g in members if g == 0 or fix[g] > 0) for fix in fix_tables}
    if len(sigmas) != 1:
        raise IntegrityError("the vector classes induce different stabilizer sets")
    sigma, = sigmas

    t0 = time.time()
    pairs = free_extension_pairs(H, members, V0, auts, sigma)
    ext_reps = dedup_extensions(H, members, pairs)
    log(f"free (phi,tau) pairs: {len(pairs)}; extension classes: {len(ext_reps)} "
        f"({time.time() - t0:.1f}s)")

    t0 = time.time()
    ext_groups = [build_extension(H, members, phi, tau, V0) for phi, tau in ext_reps]
    type_a_idx = 0
    type_b_idx = None
    type_of = {0: "a"}
    for i in range(1, len(ext_groups)):
        if iso_test(ext_groups[type_a_idx], ext_groups[i]):
            type_of[i] = "a"
        else:
            if type_b_idx is None:
                type_b_idx = i
                type_of[i] = "b"
            elif iso_test(ext_groups[type_b_idx], ext_groups[i]):
                type_of[i] = "b"
            else:
                raise IntegrityError("more than two extension isomorphism types")
    counts = {t: sum(1 for v in type_of.values() if v == t) for t in ("a", "b")}
    log(f"extension isomorphism types: {counts} ({time.time() - t0:.1f}s)")
    if type_b_idx is None:
        raise IntegrityError("expected two isomorphism types")
    # The type occurring in more extension classes is the one carrying three
    # of the four families; the database ids follow the classification table
    # (multiplicity 3 <-> G(256,3678), multiplicity 1 <-> G(256,3679)).
    if counts["a"] < counts["b"]:
        type_a_idx, type_b_idx = type_b_idx, type_a_idx

    G_a = ext_groups[type_a_idx]
    G_b = ext_groups[type_b_idx]
    save_group_file(out / "g256a.json", "g256a", "G(256,3678)", G_a, PROVENANCE)
    save_group_file(out / "g256b.json", "g256b", "G(256,3679)", G_b, PROVENANCE)
    save_group_file(out / "h768.json", "h768", "G(768,1085341)", H, PROVENANCE)
    log("wrote g256a.json, g256b.json, h768.json")

    # Surface files.  Family 2 pairs the rarer group with the first vector
    # class; families 3-5 pair the common group with the other three classes.
    def vector_words_in_ext(ext: FiniteGroup, vec):
        # An induced vector (H-indices inside G0) in the extension, whose
        # generators g1..g3 are the images of V0.
        to_ext = embedding(H, V0, ext, ext.generator_indices[:3])
        return [element_word(ext, to_ext[v]) for v in vec]

    assignments = {
        2: (G_b, "g256b.json", 0),
        3: (G_a, "g256a.json", 1),
        4: (G_a, "g256a.json", 2),
        5: (G_a, "g256a.json", 3),
    }
    for fam, (ext, gfile, class_id) in assignments.items():
        record = {
            "name": f"family{fam}",
            "group_file": gfile,
            "g0_generators": ["g1", "g2", "g3"],
            "tau_prime": "g4",
            "vector": vector_words_in_ext(ext, induced[class_id]),
            "type": "[0;4^3]",
            "extra_automorphisms": {
                "group_file": "h768.json",
                "vector": [element_word(H, x) for x in classes[class_id]],
            },
        }
        save_surface_file(out / f"family{fam}.json", record)
        log(f"wrote family{fam}.json (vector class {class_id})")

    search_variant = {
        "name": "family2-search",
        "group_file": "g256b.json",
        "g0_generators": ["g1", "g2", "g3"],
        "tau_prime": "g4",
        "vector": vector_words_in_ext(G_b, induced[0]),
        "type": "[0;4^3]",
        "extra_automorphisms": {"group_file": "h768.json", "vector": "search"},
    }
    save_surface_file(out / "family2_search.json", search_variant)
    log("wrote family2_search.json")


# ----------------------------------------------------------------------
# Family 1.

def involution_vectors(G: FiniteGroup, invol):
    """Every [0;2^5] candidate (h1, ..., h5) of involutions with product 1,
    in scan order; generation is not checked."""
    for h1 in invol:
        for h2 in invol:
            p2 = G.mul(h1, h2)
            for h3 in invol:
                p3 = G.mul(p2, h3)
                for h4 in invol:
                    h5 = G.inv(G.mul(p3, h4))
                    if G.order_of(h5) == 2:
                        yield (h1, h2, h3, h4, h5)


def make_family_1(out: Path):
    e1 = Permutation.from_cycles(8, [(1, 2)])
    e2 = Permutation.from_cycles(8, [(3, 4)])
    r = Permutation.from_cycles(8, [(5, 6, 7, 8)])
    s = Permutation.from_cycles(8, [(5, 7)])
    G0 = closure([e1, e2, r, s])
    n = G0.order
    if n != 32:
        raise IntegrityError(f"G0 has order {n}, expected 32")
    gens = [G0.index_of(p) for p in (e1, e2, r, s)]
    class_of = {x: cls for cls in conjugacy_classes(G0) for x in cls}

    def stab_set(V) -> frozenset[int]:
        """Stabilizer set of an involution vector: 1 and the entries' classes."""
        return frozenset({0}.union(*(class_of[h] for h in V)))

    invol = [i for i in range(n) if G0.order_of(i) == 2]
    ord4 = [i for i in range(n) if G0.order_of(i) == 4]
    central = [i for i in range(n)
               if all(G0.mul(i, g) == G0.mul(g, i) for g in gens)]
    cinvol = [i for i in central if G0.order_of(i) == 2]

    t0 = time.time()
    auts = []
    for a1 in cinvol:
        for a2 in cinvol:
            if a1 == a2:
                continue
            for br in ord4:
                for cs in invol:
                    if G0.mul(G0.mul(cs, br), cs) != G0.inv(br):
                        continue
                    m = extend_homomorphism(G0, gens, G0, (a1, a2, br, cs))
                    if m is not None:
                        auts.append(m)
    log(f"family 1: |Aut(G0)| = {len(auts)} ({time.time() - t0:.1f}s)")

    pairs = []
    for phi in auts:
        for tau in range(n):
            if all(phi[phi[g]] == G0.conj(tau, g) for g in gens) and phi[tau] == tau:
                pairs.append((phi, tau))
    log(f"family 1: {len(pairs)} (phi,tau) pairs")

    t0 = time.time()
    buckets: dict[frozenset, list[tuple]] = {}
    for V in involution_vectors(G0, invol):
        buckets.setdefault(stab_set(V), []).append(V)
    log(f"family 1: {sum(map(len, buckets.values()))} tuples in {len(buckets)} "
        f"stabilizer-set buckets ({time.time() - t0:.1f}s)")

    def free(S, phi, tau) -> bool:
        """Conditions (i) and (ii) for the stabilizer set S under (phi, tau)."""
        return (isolated_point_witness(S, phi) is None
                and fixed_curve_witness(G0, range(n), S, phi, tau) is None)

    t0 = time.time()
    chosen = None
    for S, tuples in sorted(buckets.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        # The first generating V of a bucket does not depend on (phi, tau),
        # so the bucket's first free pair decides it.
        pair = next(((phi, tau) for phi, tau in pairs if free(S, phi, tau)), None)
        if pair is None:
            continue
        V = next((V for V in tuples if subgroup_generated(G0, V).order == n), None)
        if V is not None:
            chosen = (*pair, V, S)
            break
    if chosen is None:
        raise IntegrityError("no free family-1 data found")
    phi, tau, V, S = chosen
    log(f"family 1: free data found, |Sigma_V| = {len(S)} ({time.time() - t0:.1f}s)")

    G = build_extension(G0, tuple(range(n)), phi, tau, V[:4])
    save_group_file(out / "g64.json", "g64", "G(64,92)", G, PROVENANCE)

    record = {
        "name": "family1",
        "group_file": "g64.json",
        "g0_generators": ["g1", "g2", "g3", "g4"],
        "tau_prime": "g5",
        "vector": ["g1", "g2", "g3", "g4", "(g1*g2*g3*g4)^-1"],
        "type": "[0;2^5]",
        "extra_automorphisms": None,
    }
    save_surface_file(out / "family1.json", record)
    log("wrote g64.json, family1.json")

    # Negative fixture: the first valid [0;2^5] generating vector (scan
    # order) whose stabilizer set breaks a freeness condition for the same
    # extension.
    bad = next((Vb for Vb in involution_vectors(G0, invol)
                if not free(stab_set(Vb), phi, tau) and subgroup_generated(G0, Vb).order == n),
               None)
    if bad is None:
        raise IntegrityError("no non-free family-1 vector found")
    to_ext = embedding(G0, V[:4], G, G.generator_indices[:4])
    bad_words = [element_word(G, to_ext[x]) for x in bad]
    record = {
        "name": "family1-nonfree",
        "group_file": "g64.json",
        "g0_generators": ["g1", "g2", "g3", "g4"],
        "tau_prime": "g5",
        "vector": bad_words,
        "type": "[0;2^5]",
        "extra_automorphisms": None,
    }
    save_surface_file(out / "family1_nonfree.json", record)
    log("wrote family1_nonfree.json")


# ----------------------------------------------------------------------
# Toy negative fixture: abelian G0 with phi = identity.

def make_toy(out: Path):
    sgen = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    G = closure([sgen])
    save_group_file(out / "toy_z4_group.json", "z4", "G(4,1)", G, PROVENANCE)
    record = {
        "name": "toy-z4",
        "group_file": "toy_z4_group.json",
        "g0_generators": ["g1^2"],
        "tau_prime": "g1",
        "vector": ["g1^2"] * 8,
        "type": "[0;2^8]",
        "extra_automorphisms": None,
    }
    save_surface_file(out / "toy_z4.json", record)
    log("wrote toy_z4_group.json, toy_z4.json")


# ----------------------------------------------------------------------
# Self-check: run the pipeline on every fixture.

def self_check(out: Path):
    for fam in (1, 2, 3, 4, 5):
        t0 = time.time()
        surface = build_surface(out / f"family{fam}.json")
        freeness = check_free_action(surface)
        orbits = graph_orbits(surface.h_group, surface)
        table = intersection_table(orbits, surface, surface.h_covering)
        report = cone_report(table)
        items = compare_family(FAMILY_EXPECTATIONS[fam], surface, freeness,
                               table, report)
        bad = [(name, detail) for name, ok, detail in items if not ok]
        if bad:
            raise MismatchError(f"family {fam} self-check failed: {bad}")
        log(f"family {fam}: all {len(items)} expectation checks pass "
            f"({time.time() - t0:.1f}s)")

    for name in ("family1_nonfree", "toy_z4"):
        # A report that is not ok carries at least one witness.
        if check_free_action(build_surface(out / f"{name}.json")).ok:
            raise MismatchError(f"{name}: the action is free, expected a freeness witness")
        log(f"{name}: freeness fails with a witness, as intended")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "src" / "mixedsurf" / "data")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    make_toy(args.out)
    make_family_1(args.out)
    make_families_2_to_5(args.out)
    self_check(args.out)
    log("all data files written and verified")


if __name__ == "__main__":
    main()
