"""Mixed actions on C x C and their surface invariants.

A mixed action is encoded by a group G, an index-2 subgroup G0 (the
elements preserving the two factors), and a chosen tau' in G \\ G0.  These
determine tau = tau'^2 in G0 and the automorphism phi(h) = tau' h tau'^-1
of G0; the action on C x C is then

    g (x, y) = (g x, phi(g) y)          for g in G0,
    tau' g (x, y) = (phi(g) y, tau g x) for g in G0.

The quotient S = (C x C)/G is smooth iff the action is free:
  i)  no isolated fixed points: Sigma_V and phi(Sigma_V) meet only in 1;
  ii) no fixed curves: no g outside G0 has g^2 in Sigma_V;
where Sigma_V is the stabilizer set of the generating vector V of G0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .covering import (CoverType, CoveringData, GeneratingVector, covering_data,
                       validate_generating_vector)
from .errors import IntegrityError, ValidationError
from .perm import (FiniteGroup, Subgroup, derived_subgroup, extend_homomorphism,
                   subgroup_as_group, subgroup_generated)


class MixedAction(NamedTuple):
    """(G, G0, tau') with the derived tau and phi materialized as tables."""

    G: FiniteGroup
    G0: Subgroup
    tau_prime: int
    tau: int
    phi: dict[int, int]


def build_mixed_action(G: FiniteGroup, G0: Subgroup, tau_prime: int) -> MixedAction:
    """Check G0 and tau' and materialize tau and phi.

    Once G0 has index 2 in G and tau' lies outside it, nothing more needs
    checking: an index-2 subgroup is normal and G/G0 is Z2, so
    tau = tau'^2 lies in G0, conjugation by tau' maps G0 onto itself, and
    phi^2 is conjugation by tau'^2 = tau.
    """
    if G0.parent is not G:
        raise ValidationError("G0 must be a subgroup of G")
    if 2 * G0.order != G.order:
        raise ValidationError(
            f"G0 has index {G.order // G0.order if G0.order else 'inf'} in G, expected 2")
    if not 0 <= tau_prime < G.order:
        raise ValidationError("tau' index out of range")
    if tau_prime in G0:
        raise ValidationError("tau' must lie outside G0")
    tau = G.mul(tau_prime, tau_prime)
    phi = {h: G.conj(tau_prime, h) for h in G0.members}
    return MixedAction(G, G0, tau_prime, tau, phi)


class FreenessReport(NamedTuple):
    no_isolated_fixed_points: bool
    no_fixed_curves: bool
    isolated_witness: int | None   # element of G0 fixing points in both coordinates
    curve_witness: int | None      # mixed element whose square has fixed points

    @property
    def ok(self) -> bool:
        return self.no_isolated_fixed_points and self.no_fixed_curves


class SurfaceData(NamedTuple):
    """A mixed action together with its covering data and invariants.

    ``g0_group`` is the standalone realization of G0 acting on C; the
    defining generating vector lives there.  ``h_group`` is the (possibly
    larger) automorphism group used to build orbit divisors; for surfaces
    without extra automorphisms it is ``g0_group`` itself.  ``to_h`` sends
    the G-index of each G0 member to its h_group index.
    """

    action: MixedAction
    covering: CoveringData         # cover C -> C/G0
    h_covering: CoveringData       # cover C -> C/H used for intersection counts
    to_h: dict[int, int]
    chi: int
    k2: int
    euler: int
    q: int
    pg: int

    @property
    def g0_group(self) -> FiniteGroup:
        return self.covering.vector.group

    @property
    def h_group(self) -> FiniteGroup:
        return self.h_covering.vector.group


def invariants_from(genus: int, order_g: int, g_prime: int) -> tuple[int, int, int, int, int]:
    """(chi, K^2, e, q, p_g) of S from g(C), |G| and the quotient genus."""
    chi = Fraction((genus - 1) ** 2, order_g)
    if chi.denominator != 1:
        raise IntegrityError(
            f"(g-1)^2 = {(genus - 1) ** 2} is not divisible by |G| = {order_g}")
    chi = int(chi)
    q = g_prime
    return chi, 8 * chi, 4 * chi, q, chi - 1 + q


def isolated_point_witness(sigma, phi) -> int | None:
    """Condition (i): the smallest s != 1 of sigma with phi(s) in sigma, or None.

    ``sigma`` is a stabilizer set (a set of element indices of G0, identity
    included) and ``phi`` maps each member of G0 to its image.
    """
    return min((s for s in sigma if s != 0 and phi[s] in sigma), default=None)


def fixed_curve_witness(G: FiniteGroup, members, sigma, phi, tau: int) -> int | None:
    """Condition (ii): the first h of ``members`` with phi(h) tau h in sigma, or None.

    For any tau' with tau'^2 = tau and phi = conjugation by tau',
    (tau' h)^2 = phi(h) tau h, so tau' h is then a mixed element whose square
    lies in sigma.  ``members`` lists G0 and ``sigma`` is a union of G0
    conjugacy classes, all as element indices of G.
    """
    mul = G.mul
    return next((h for h in members if mul(mul(phi[h], tau), h) in sigma), None)


def check_free_action(S: SurfaceData) -> FreenessReport:
    """Evaluate the two freeness conditions, with witnesses on failure."""
    act = S.action
    # Sigma_V in G-indices: the G0 members with fixed points on C.
    fix = S.h_covering.fix_table
    sigma_g = frozenset(g for g in act.G0.members if g == 0 or fix[S.to_h[g]] > 0)
    isolated = isolated_point_witness(sigma_g, act.phi)
    h = fixed_curve_witness(act.G, act.G0.members, sigma_g, act.phi, act.tau)
    curve = None if h is None else act.G.mul(act.tau_prime, h)
    return FreenessReport(isolated is None, curve is None, isolated, curve)


class InducedTower(NamedTuple):
    """Generating vectors derived from a [0;2,3,8] vector (a, b, c).

    first  = (a b a^-1, b, c^2), of type [0;3,3,4] for [H,H];
    second = (e f e^-1, e^2 f e^-2, f), of type [0;4^3] for [[H,H],[H,H]].
    """

    first: tuple[int, int, int]
    second: tuple[int, int, int]
    h_prime: Subgroup
    g0_sub: Subgroup


def derive_induced_vectors(H: FiniteGroup, a: int, b: int, c: int) -> InducedTower:
    report = validate_generating_vector(
        GeneratingVector(H, CoverType(0, (2, 3, 8)), (a, b, c)))
    if not report.ok:
        raise ValidationError(
            "(a,b,c) is not a [0;2,3,8] generating vector: " + "; ".join(report.failures))

    h_prime = derived_subgroup(H)
    d, e, f = H.conj(a, b), b, H.mul(c, c)
    _check_induced(H, (d, e, f), (3, 3, 4), h_prime, "[0;3,3,4]")

    g0_sub = derived_subgroup(h_prime)
    e2 = H.mul(e, e)
    u = (H.conj(e, f), H.mul(H.mul(e2, f), H.inv(e2)), f)
    _check_induced(H, u, (4, 4, 4), g0_sub, "[0;4^3]")
    return InducedTower((d, e, f), u, h_prime, g0_sub)


def _check_induced(H: FiniteGroup, entries, orders, target: Subgroup, label: str):
    for i, (x, o) in enumerate(zip(entries, orders)):
        if H.order_of(x) != o:
            raise ValidationError(
                f"induced {label} vector: entry {i + 1} has order {H.order_of(x)}, expected {o}")
    acc = 0
    for x in entries:
        acc = H.mul(acc, x)
    if acc != 0:
        raise ValidationError(f"induced {label} vector: product is not the identity")
    for x in entries:
        if x not in target:
            raise ValidationError(f"induced {label} vector: entry outside the target subgroup")
    if subgroup_generated(H, entries).members != target.members:
        raise ValidationError(f"induced {label} vector does not generate the target subgroup")


def transport_embedding(src: FiniteGroup, src_gens, dst: FiniteGroup, dst_gens) -> dict[int, int]:
    """The isomorphism of src onto <dst_gens> that sends src_gens[i] to dst_gens[i].

    :func:`~mixedsurf.perm.extend_homomorphism` builds it on <src_gens>, or
    raises ValidationError; it is then a homomorphism, injective, and onto
    <dst_gens>.  What is left to check is that src_gens generate src, since
    callers read the map at every element of src.
    """
    img = extend_homomorphism(src, src_gens, dst, dst_gens)
    if len(img) != src.order:
        raise ValidationError("source entries do not generate the source group")
    return img


def assemble_surface(G: FiniteGroup, g0_seeds, tau_prime: int, vector_entries,
                     cover_type: CoverType, h_group: FiniteGroup | None = None,
                     h_vector: tuple[int, int, int] | None = None) -> SurfaceData:
    """Build the full surface bundle from raw group data.

    ``vector_entries`` are G-element indices (inside G0) of the defining
    generating vector.  When ``h_group``/``h_vector`` are given, the larger
    automorphism group is attached: the vector induced by ``h_vector`` must
    match the defining vector entrywise under the transported isomorphism.
    """
    G0 = subgroup_generated(G, g0_seeds)
    action = build_mixed_action(G, G0, tau_prime)
    for v in vector_entries:
        if v not in G0:
            raise ValidationError("generating-vector entry outside G0")

    g0_group = subgroup_as_group(G0)
    # G-index -> g0_group index; composed with the embedding when H is larger.
    to_h = {i: g0_group.index_of(G.element(i)) for i in G0.members}

    defining = GeneratingVector(g0_group, cover_type,
                                tuple(to_h[v] for v in vector_entries))

    covering = h_covering = covering_data(defining)
    if h_group is not None:
        tower = derive_induced_vectors(h_group, *h_vector)
        embedding = transport_embedding(g0_group, defining.entries, h_group, tower.second)
        h_covering = covering_data(
            GeneratingVector(h_group, CoverType(0, (2, 3, 8)), h_vector))
        if h_covering.genus != covering.genus:
            raise IntegrityError(
                f"genus mismatch between covers: {covering.genus} vs {h_covering.genus}")
        _check_sigma_consistency(covering, embedding, h_covering)
        to_h = {g: embedding[k] for g, k in to_h.items()}

    chi, k2, euler, q, pg = invariants_from(covering.genus, G.order, cover_type.g_prime)
    return SurfaceData(action, covering, h_covering, to_h, chi, k2, euler, q, pg)


def _check_sigma_consistency(covering: CoveringData, embedding: dict[int, int],
                             h_covering: CoveringData):
    # Both covers describe the same curve, so a subgroup element has fixed
    # points for one exactly when it does for the other.
    image_sigma = {embedding[s] for s in covering.sigma_v if s != 0}
    h_fix = h_covering.fix_table
    h_side = {f for f in embedding.values() if f != 0 and h_fix[f] > 0}
    if image_sigma != h_side:
        raise IntegrityError(
            "stabilizer set of the subgroup cover disagrees with the fixed-point "
            "table of the ambient cover")
