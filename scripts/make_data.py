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
  conditions and deduplicated.  The survivors fall into two isomorphism
  types, told apart through G0: an isomorphism maps G0 onto an index-2
  subgroup and is fixed there by an automorphism of G0, so each test is
  one set lookup per automorphism.
* The order-64 group is the analogous extension of Z2^2 x D4, found by an
  exhaustive search over automorphisms and over the [0;2^5] generating
  vectors and their stabilizer sets Sigma_V from the library's
  covering.search_generating_vectors and covering.stabilizer_set.

Usage:  python scripts/make_data.py [--out DIR]
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import product
from operator import itemgetter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixedsurf.covering import (CoverType, covering_data, search_generating_vectors,
                                stabilizer_set)
from mixedsurf.errors import IntegrityError, MismatchError
from mixedsurf.expected import FAMILY_EXPECTATIONS, compare_family
from mixedsurf.files import (build_surface, element_word, run_pipeline, save_group_file,
                             save_surface_file)
from mixedsurf.perm import (FiniteGroup, Permutation, closure, extend_homomorphism,
                            homomorphisms)
from mixedsurf.surface import (TRIANGLE_TYPE, check_free_action, derive_induced_vectors,
                               fixed_curve_witness, isolated_point_witness)
from mixedsurf.coset import todd_coxeter
from mixedsurf.words import Presentation

PROVENANCE = ("constructed in-repo by scripts/make_data.py "
              "(coset enumeration + exhaustive extension search); 2026-08-09")


def log(msg: str):
    print(msg, flush=True)


# ----------------------------------------------------------------------
# The order-768 covering group, automorphisms, free extension pairs, and the
# extension groups.

def build_h() -> FiniteGroup:
    pres = Presentation.parse(("x", "y"), ["x^2", "y^3", "(x*y)^8", "(x*y*x*y*x*y^2)^4"])
    H = todd_coxeter(pres, max_cosets=60000)
    if H.order != 768:
        raise IntegrityError(f"coset enumeration gave order {H.order}, expected 768")
    return H


def extension_pairs(G: FiniteGroup, members, gens, auts):
    """(phi, tau) with phi^2 = conj_tau and phi(tau) = tau."""
    return [(phi, tau) for phi in auts for tau in members
            if phi[tau] == tau and all(phi[phi[g]] == G.conj(tau, g) for g in gens)]


def free(G: FiniteGroup, members, sigma, phi, tau) -> bool:
    """Conditions (i) and (ii) for the stabilizer set sigma under (phi, tau)."""
    return (isolated_point_witness(sigma, phi) is None
            and fixed_curve_witness(G, members, sigma, phi, tau) is None)


def dedup_extensions(G: FiniteGroup, members, pairs):
    """One (phi, tau) per class modulo re-choosing tau' inside its coset, in
    order of the classes' canonical forms."""
    rows, inv = G.rows, G.inverses
    # conj[k][x] = index of h x h^-1 for h = members[k], over all of G.
    conj = [tuple(rows[y][inv[h]] for y in rows[h]) for h in members]
    reps = {}
    for phi, tau in pairs:
        read_phi = itemgetter(*[phi[m] for m in members])
        key = min((read_phi(conj_h), rows[rows[h][phi[h]]][tau])
                  for h, conj_h in zip(members, conj))
        reps.setdefault(key, (phi, tau))
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
    # The generators span the extension, which acts regularly: a larger
    # group is a multiple of ``size`` and exceeds the budget, which raises.
    return closure(gens, budget=size + 1)


def index_two_subgroups(G: FiniteGroup) -> list[set[int]]:
    """Kernels of the nonzero homomorphisms G -> Z/2: signs on the generators
    that give each element the sign of its word, when every step by a
    generator adds that generator's sign."""
    out = []
    for signs in product((0, 1), repeat=len(G.generators)):
        sign = [sum(signs[c] for c in G.word_for(k)) % 2 for k in range(G.order)]
        if any(signs) and all(sign[G.mul(k, g)] == sign[k] ^ s for k in range(G.order)
                              for g, s in zip(G.generator_indices, signs)):
            out.append({k for k in range(G.order) if not sign[k]})
    return out


def extension_signatures(H: FiniteGroup, V0, GB: FiniteGroup) -> set:
    """What an extension of G0 = <V0> must match to be isomorphic to GB.

    An isomorphism GA -> GB of index-2 extensions of G0 by (phi, tau) maps
    G0 onto an index-2 subgroup M of GB.  On G0 it is psi0 alpha, with
    psi0: G0 -> M one fixed isomorphism and alpha in Aut(G0), and it sends
    t_A to an x outside M with x psi0(v) x^-1 = psi0(alpha phi alpha^-1(v))
    on V0 and x^2 = psi0(alpha(tau)) (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*).  Returns, for every such M and x, the
    pair (x-conjugation on V0, x^2) read back in G0 through psi0.
    """
    out = set()
    for M in index_two_subgroups(GB):
        psi0 = next(homomorphisms(H, V0, GB, M), None)
        if psi0 is None:
            continue
        back = {b: a for a, b in psi0.items()}
        images = [psi0[v] for v in V0]
        out.update((tuple(back[GB.conj(x, m)] for m in images), back[GB.mul(x, x)])
                   for x in range(GB.order) if x not in M)
    return out


def isomorphism_types(H: FiniteGroup, members, V0, auts, ext_reps):
    """Split the extensions of G0 = <V0> by the pairs (phi, tau) of
    ``ext_reps`` into isomorphism types, given Aut(G0) as ``auts``.

    Returns each pair's type, numbered in order of first occurrence, and
    the extension group of each type's first pair.
    """
    # Each alpha with alpha^-1 on V0, so that alpha phi alpha^-1 on V0 is
    # two lookups per generator.
    auts_v0 = []
    for alpha in auts:
        back = {b: a for a, b in alpha.items()}
        auts_v0.append((alpha, [back[v] for v in V0]))
    groups, signatures, type_of = [], [], []
    for phi, tau in ext_reps:
        t = next((k for k, sigs in enumerate(signatures)
                  if any((tuple(alpha[phi[w]] for w in pre), alpha[tau]) in sigs
                         for alpha, pre in auts_v0)), None)
        if t is None:
            t = len(groups)
            groups.append(build_extension(H, members, phi, tau, V0))
            signatures.append(extension_signatures(H, V0, groups[-1]))
        type_of.append(t)
    return type_of, groups


# ----------------------------------------------------------------------
# Families 2..5.

def make_families_2_to_5(out: Path):
    t0 = time.time()
    H = build_h()
    log(f"covering group of order {H.order} built ({time.time() - t0:.1f}s)")

    covers = [covering_data(v) for v in search_generating_vectors(H, TRIANGLE_TYPE)]
    classes = [cover.vector.entries for cover in covers]
    if len(classes) != 4:
        raise IntegrityError(f"expected 4 vector classes, found {len(classes)}")
    log(f"[0;2,3,8] vector classes: {classes}")

    # Each class induces a [0;4^3] vector of G0 = [[H,H],[H,H]].
    induced = [derive_induced_vectors(cover).second for cover in covers]
    members = H.derived_series[1]
    V0 = induced[0]

    t0 = time.time()
    auts = list(homomorphisms(H, V0, H, members))
    log(f"|Aut(G0)| = {len(auts)} ({time.time() - t0:.1f}s)")

    # Sigma_V: the G0 members with fixed points on C, read from each class's
    # H-cover; all four classes must agree.
    sigmas = {cover.sigma_v.intersection(members) for cover in covers}
    if len(sigmas) != 1:
        raise IntegrityError("the vector classes induce different stabilizer sets")
    sigma, = sigmas

    t0 = time.time()
    pairs = [(phi, tau) for phi, tau in extension_pairs(H, members, V0, auts)
             if free(H, members, sigma, phi, tau)]
    ext_reps = dedup_extensions(H, members, pairs)
    log(f"free (phi,tau) pairs: {len(pairs)}; extension classes: {len(ext_reps)} "
        f"({time.time() - t0:.1f}s)")

    t0 = time.time()
    type_of, groups = isomorphism_types(H, members, V0, auts, ext_reps)
    if len(groups) != 2:
        raise IntegrityError(f"expected two extension isomorphism types, found {len(groups)}")
    # The type occurring in more extension classes is the one carrying three
    # of the four families; the database ids follow the classification table
    # (multiplicity 3 <-> G(256,3678), multiplicity 1 <-> G(256,3679)).
    a, b = (0, 1) if type_of.count(0) >= type_of.count(1) else (1, 0)
    log(f"extension isomorphism types: {type_of.count(a)} classes of type a, type b "
        f"at classes {[i for i, t in enumerate(type_of) if t == b]} "
        f"({time.time() - t0:.1f}s)")

    G_a, G_b = groups[a], groups[b]
    save_group_file(out / "g256a.json", "g256a", "G(256,3678)", G_a, PROVENANCE)
    save_group_file(out / "g256b.json", "g256b", "G(256,3679)", G_b, PROVENANCE)
    save_group_file(out / "h768.json", "h768", "G(768,1085341)", H, PROVENANCE)
    log("wrote g256a.json, g256b.json, h768.json")

    # Surface files.  Family 2 pairs the rarer group with the first vector
    # class; families 3-5 pair the common group with the other three classes.
    def vector_words_in_ext(ext: FiniteGroup, vec):
        # An induced vector (H-indices inside G0) in the extension, whose
        # generators g1..g3 are the images of V0.
        to_ext = extend_homomorphism(H, V0, ext, ext.generator_indices[:3])
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

def family_1_g0() -> tuple[FiniteGroup, list[int]]:
    """G0 = Z2^2 x D4 on 8 points, and the indices of its four generators."""
    e1 = Permutation.from_cycles(8, [(1, 2)])
    e2 = Permutation.from_cycles(8, [(3, 4)])
    r = Permutation.from_cycles(8, [(5, 6, 7, 8)])
    s = Permutation.from_cycles(8, [(5, 7)])
    G0 = closure([e1, e2, r, s])
    if G0.order != 32:
        raise IntegrityError(f"G0 has order {G0.order}, expected 32")
    return G0, list(G0.generator_indices)


def make_family_1(out: Path):
    G0, gens = family_1_g0()
    n = G0.order

    t0 = time.time()
    auts = list(homomorphisms(G0, gens, G0, range(n)))
    log(f"family 1: |Aut(G0)| = {len(auts)} ({time.time() - t0:.1f}s)")

    pairs = extension_pairs(G0, range(n), gens, auts)
    log(f"family 1: {len(pairs)} (phi,tau) pairs")

    # The fixtures are, for a stabilizer set S, the lexicographically
    # smallest generating [0;2^5] tuple with that S.  Conjugating a tuple by
    # G0 changes neither its stabilizer set nor whether it generates, so that
    # tuple is the smallest of its conjugacy class: the one vector the search
    # keeps for the class.  The search returns its vectors in lexicographic
    # order, so the first vector with a given S is that tuple.
    t0 = time.time()
    vectors = [(v.entries, stabilizer_set(v))
               for v in search_generating_vectors(G0, CoverType(0, (2,) * 5))]
    # The first vector of each stabilizer-set bucket.
    buckets: dict[frozenset, tuple] = {}
    for V, S in vectors:
        buckets.setdefault(S, V)
    log(f"family 1: {len(vectors)} [0;2^5] vector classes in {len(buckets)} "
        f"stabilizer-set buckets ({time.time() - t0:.1f}s)")

    t0 = time.time()
    for S, V in sorted(buckets.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        # The bucket's V does not depend on (phi, tau), so the bucket's first
        # free pair decides it.
        pair = next(((phi, tau) for phi, tau in pairs if free(G0, range(n), S, phi, tau)),
                    None)
        if pair is not None:
            break
    else:
        raise IntegrityError("no free family-1 data found")
    phi, tau = pair
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

    # Negative fixture: the lexicographically smallest [0;2^5] generating
    # vector whose stabilizer set breaks a freeness condition for the same
    # extension; free() reads only S, so by the argument above it is the
    # first such vector of the search.
    bad = next((Vb for Vb, Sb in vectors if not free(G0, range(n), Sb, phi, tau)), None)
    if bad is None:
        raise IntegrityError("no non-free family-1 vector found")
    to_ext = extend_homomorphism(G0, V[:4], G, G.generator_indices[:4])
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
        bundle = run_pipeline(out / f"family{fam}.json")
        items = compare_family(FAMILY_EXPECTATIONS[fam], bundle)
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "src" / "mixedsurf" / "data")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    make_toy(args.out)
    make_family_1(args.out)
    make_families_2_to_5(args.out)
    self_check(args.out)
    log("all data files written and verified")


if __name__ == "__main__":
    main()
