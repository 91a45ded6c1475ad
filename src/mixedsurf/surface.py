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

:func:`assemble_surface` builds the G side, with G0 realized as a group of
its own and its index map ``to_h`` read off that realization's
``positions``; :func:`attach_covering_group` then attaches a larger H, a
quotient of the (2,3,8) triangle group, whose [0;2,3,8] vector induces
[0;3,3,4] -> [0;4^3] down H's derived series and so embeds G0 in H.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .covering import CoverType, CoveringData, GeneratingVector, covering_data
from .errors import IntegrityError, ValidationError
from .perm import (FiniteGroup, Subgroup, extend_homomorphism, subgroup_as_group,
                   subgroup_generated)

TRIANGLE_TYPE = CoverType(0, (2, 3, 8))  # the type of H's vector


class MixedAction(NamedTuple):
    """(G, G0, tau') with the derived tau and phi materialized as tables."""

    G: FiniteGroup
    G0: Subgroup
    tau_prime: int
    tau: int
    phi: dict[int, int]


def build_mixed_action(G: FiniteGroup, G0: Subgroup, tau_prime: int) -> MixedAction:
    """Check G0 and tau' and materialize tau and phi.

    G0 is a subgroup of G and tau' an element index of G, as
    :func:`assemble_surface` builds both from G.  Once G0 has index 2 in G
    and tau' lies outside it, nothing more needs checking: an index-2
    subgroup is normal and G/G0 is Z2, so tau = tau'^2 lies in G0,
    conjugation by tau' maps G0 onto itself, and phi^2 is conjugation by
    tau'^2 = tau.
    """
    if 2 * G0.order != G.order:
        raise ValidationError(
            f"G0 has index {G.order // G0.order if G0.order else 'inf'} in G, expected 2")
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
    the G-index of each G0 member to its h_group index: on the G side it is
    the inverse of ``g0_group.positions`` (each realized element's index in
    G), and :func:`attach_covering_group` composes it with G0 -> H.
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
    """(chi, K^2, e, q, p_g) of S from g(C), |G| and the quotient genus.

    A free action has the integral chi = (g-1)^2 / |G|, so a fractional one
    is a surface file whose action is not free: a ValidationError.
    """
    chi = Fraction((genus - 1) ** 2, order_g)
    if chi.denominator != 1:
        raise ValidationError(
            f"(g-1)^2 = {(genus - 1) ** 2} is not divisible by |G| = {order_g}, "
            "so the action cannot be free")
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
    conjugacy classes, all as element indices of G.  The product is read as
    phi(h) (tau h), on the rows of tau and of G0's members.
    """
    tau_row = G.row(tau)
    phi_rows = G.rows_at([phi[h] for h in members])
    return next((h for h, row in zip(members, phi_rows) if row[tau_row[h]] in sigma), None)


def check_free_action(S: SurfaceData) -> FreenessReport:
    """Evaluate the two freeness conditions, with witnesses on failure."""
    act = S.action
    # Sigma_V in G-indices: the G0 members with fixed points on C.
    sigma_h = S.h_covering.sigma_v
    sigma_g = frozenset(g for g in act.G0.members if S.to_h[g] in sigma_h)
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


def derive_induced_vectors(cover: CoveringData) -> InducedTower:
    """The tower induced by the [0;2,3,8] vector (a, b, c) of a cover C -> C/H.

    Building the cover validated (a, b, c).  Once it has orders 2, 3, 8 and
    product 1, each induced vector has the right orders and product 1, so
    only generation is checked:
    - Orders: d = a b a^-1 and e = b have order 3 and f = c^2 has order 4;
      u_1 and u_2 are conjugates of f, and u_3 = f.
    - Products: c = b^-1 a^-1, so d e f = a b a^-1 b (b^-1 a^-1)^2
      = a b a^-2 b^-1 a^-1 = 1, since a^2 = 1.  And since e^3 = 1,
      u_1 u_2 u_3 = e f e^-1 e^2 f e^-2 f = (e f)^3 = d^-3 = 1.
    Entries that generate exactly the target subgroup, a term of
    ``H.derived_series``, lie in it.
    """
    H, _, (a, b, c) = cover.vector
    series = H.derived_series
    d, e, f = H.conj(a, b), b, H.mul(c, c)
    _check_induced(H, (d, e, f), series[0], "[0;3,3,4]")

    u = (H.conj(e, f), H.conj(H.mul(e, e), f), f)
    _check_induced(H, u, series[min(1, len(series) - 1)], "[0;4^3]")
    return InducedTower((d, e, f), u)


def _check_induced(H: FiniteGroup, entries, target: tuple[int, ...], label: str):
    if subgroup_generated(H, entries).members != target:
        raise ValidationError(f"induced {label} vector does not generate the target subgroup")


def transport_embedding(src: FiniteGroup, src_gens, dst: FiniteGroup, dst_gens) -> dict[int, int]:
    """The isomorphism of src onto <dst_gens> that sends src_gens[i] to dst_gens[i].

    :func:`~mixedsurf.perm.extend_homomorphism` builds it on <src_gens>, or
    raises ValidationError; it is then a homomorphism, injective, and onto
    <dst_gens>.  The source entries are a validated generating vector of
    src, so the map is defined at every element of src.
    """
    return extend_homomorphism(src, src_gens, dst, dst_gens)


def assemble_surface(G: FiniteGroup, g0_seeds, tau_prime: int, vector_entries,
                     cover_type: CoverType) -> SurfaceData:
    """Build the G side of a surface from raw group data: the mixed action,
    the defining cover of G0 and the invariants, with G0 as covering group.

    ``vector_entries`` are G-element indices (inside G0) of the defining
    generating vector.  G keeps G0's span, its members and generators, under
    the seeds by :meth:`~mixedsurf.perm.FiniteGroup.kept`, and the
    :class:`Subgroup` is built around them each time: a kept one would refer
    back to G.
    """
    seeds = tuple(g0_seeds)
    members, generators = G.kept(("span", seeds), lambda: subgroup_generated(G, seeds)[1:])
    G0 = Subgroup(G, members, generators)
    action = build_mixed_action(G, G0, tau_prime)
    for v in vector_entries:
        if v not in G0:
            raise ValidationError("generating-vector entry outside G0")

    g0_group = subgroup_as_group(G0)
    # G-index -> g0_group index, read off the realization's parent positions;
    # attach_covering_group composes it with G0 -> H.
    to_h = dict(zip(g0_group.positions, range(g0_group.order)))
    defining = GeneratingVector(g0_group, cover_type,
                                tuple(to_h[v] for v in vector_entries))
    covering = covering_data(defining)
    chi, k2, euler, q, pg = invariants_from(covering.genus, G.order, cover_type.g_prime)
    return SurfaceData(action, covering, covering, to_h, chi, k2, euler, q, pg)


def attach_covering_group(S: SurfaceData, H: FiniteGroup, h_vector) -> SurfaceData:
    """The G-side surface S with H as its covering group, given H's [0;2,3,8]
    vector: its induced [0;4^3] vector must match G0's defining vector under
    the transported isomorphism, and both covers describe the same curve.

    H keeps the induced tower under ``h_vector`` by
    :meth:`~mixedsurf.perm.FiniteGroup.kept`, beside the vector's cover, so
    a kept tower passed :func:`derive_induced_vectors`' generation checks;
    a vector whose tower is refused is refused on every request.
    """
    h_covering = covering_data(GeneratingVector(H, TRIANGLE_TYPE, h_vector))
    tower = H.kept(("tower", h_vector), lambda: derive_induced_vectors(h_covering))
    embedding = transport_embedding(S.g0_group, S.covering.vector.entries, H, tower.second)
    if h_covering.genus != S.covering.genus:
        raise IntegrityError(
            f"genus mismatch between covers: {S.covering.genus} vs {h_covering.genus}")
    # Both covers describe the same curve, so a subgroup element has fixed
    # points for one exactly when it does for the other.
    if ({embedding[s] for s in S.covering.sigma_v}
            != h_covering.sigma_v.intersection(embedding.values())):
        raise IntegrityError(
            "stabilizer set of the subgroup cover disagrees with that of the ambient cover")
    to_h = {g: embedding[k] for g, k in S.to_h.items()}
    return SurfaceData(S.action, S.covering, h_covering, to_h, S.chi, S.k2, S.euler, S.q, S.pg)
