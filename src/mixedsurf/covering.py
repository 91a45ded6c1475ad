"""Branched Galois covers of the line: generating vectors and fixed points.

A finite group H acting on a curve C with quotient C/H of genus g' and r
branch points of indices m_1..m_r is encoded by a generating vector: a
tuple of elements (h_1, ..., h_r) of orders m_i with product 1 generating
H (only g' = 0 is supported end to end).  From the vector we derive the
genus of C (Riemann-Hurwitz), the stabilizer set (the elements acting with
fixed points), and exact fixed-point counts

    |Fix(f)| = sum_j (1/m_j) * #{ g in H : f in g <h_j> g^-1 },

summed exactly over the common denominator lcm(m_j), with integrality
asserted.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from fractions import Fraction
from math import lcm, prod
from operator import itemgetter
from typing import NamedTuple

from .errors import BudgetExceeded, IntegrityError, ValidationError
from .perm import FiniteGroup, conjugacy_class, subgroup_generated


class CoverType:
    """Cover signature [g'; m_1, ..., m_r]; immutable."""

    __slots__ = ("g_prime", "m")

    def __init__(self, g_prime: int, m: tuple[int, ...]):
        if g_prime < 0:
            raise ValidationError("quotient genus must be nonnegative")
        if any(mi < 2 for mi in m):
            raise ValidationError("branching indices must be at least 2")
        object.__setattr__(self, "g_prime", g_prime)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not CoverType:
            return NotImplemented
        return (self.g_prime, self.m) == (other.g_prime, other.m)

    def __hash__(self):
        return hash((self.g_prime, self.m))

    def __repr__(self):
        return f"CoverType(g_prime={self.g_prime!r}, m={self.m!r})"

    @property
    def r(self) -> int:
        return len(self.m)

    def __str__(self):
        return f"[{self.g_prime};{','.join(map(str, self.m))}]"


_TYPE_RE = re.compile(r"^\[\s*(\d+)\s*;(.*)\]$")
_ENTRY_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")
# The bundled types have at most 8 branch points.  The bound is checked
# before "^k" is expanded, so a short type cannot ask for a huge list.
MAX_BRANCH_POINTS = 256
# Candidate tuples a vector search without a limit may scan.  The largest
# bundled or benchmark scan, [0;2^5] on family 1's G0, has 182,505.
MAX_SEARCH_LEAVES = 10**7


def parse_cover_type(text: str) -> CoverType:
    """Parse "[0;2,3,8]" or the power shorthand "[0;2^5]"."""
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise ValidationError(f"malformed cover type {text!r}")
    entries: list[tuple[int, int]] = []
    try:
        g_prime = int(m.group(1))
        for part in m.group(2).split(","):
            em = _ENTRY_RE.match(part.strip())
            if not em:
                raise ValidationError(f"malformed branching index {part.strip()!r}")
            entries.append((int(em.group(1)), int(em.group(2) or 1)))
    except ValueError:  # a digit string longer than int() converts
        raise ValidationError(f"cover type {text[:40]!r}... has a number too long to read") from None
    if sum(k for _, k in entries) > MAX_BRANCH_POINTS:
        raise ValidationError(
            f"cover type {text[:40]!r} has more than {MAX_BRANCH_POINTS} branch points")
    return CoverType(g_prime, tuple(mi for mi, k in entries for _ in range(k)))


class GeneratingVector(NamedTuple):
    """An ordered tuple of element indices of the covering group."""

    group: FiniteGroup
    cover_type: CoverType
    entries: tuple[int, ...]


def hurwitz_genus(order: int, cover_type: CoverType) -> int:
    """Genus of C from 2g - 2 = |H| (2g' - 2 + sum (m_i - 1)/m_i)."""
    if order < 1:
        raise ValidationError("group order must be positive")
    rhs = Fraction(2 * cover_type.g_prime - 2)
    for mi in cover_type.m:
        rhs += Fraction(mi - 1, mi)
    g = 1 + Fraction(order) * rhs / 2
    if g.denominator != 1:
        raise ValidationError(
            f"type {cover_type} with group order {order} gives non-integral genus {g}")
    return int(g)


class VectorReport(NamedTuple):
    orders_ok: bool
    product_ok: bool
    generates_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.orders_ok and self.product_ok and self.generates_ok


def _require_genus_zero_quotient(cover_type: CoverType):
    if cover_type.g_prime != 0:
        raise ValidationError(
            f"cover type {cover_type}: only genus-0 quotients are supported (g' > 0 unsupported)")


def validate_generating_vector(v: GeneratingVector) -> VectorReport:
    """Check the three defining conditions, reporting each separately."""
    _require_genus_zero_quotient(v.cover_type)
    G = v.group
    failures = []
    if len(v.entries) != v.cover_type.r:
        raise ValidationError(
            f"vector has {len(v.entries)} entries but type {v.cover_type} needs {v.cover_type.r}")
    orders_ok = True
    for i, (h, mi) in enumerate(zip(v.entries, v.cover_type.m)):
        o = G.order_of(h)
        if o != mi:
            orders_ok = False
            failures.append(f"orders: entry {i + 1} has order {o}, expected {mi}")
    acc = 0
    for h in v.entries:
        acc = G.mul(acc, h)
    product_ok = acc == 0
    if not product_ok:
        failures.append("product: entries do not multiply to the identity")
    generates_ok = subgroup_generated(G, v.entries).order == G.order
    if not generates_ok:
        failures.append("generates: entries generate a proper subgroup")
    return VectorReport(orders_ok, product_ok, generates_ok, tuple(failures))


def stabilizer_set(v: GeneratingVector) -> frozenset[int]:
    """All conjugates of all powers of the branch generators (identity included)."""
    G = v.group
    out = {0}
    for h in v.entries:
        k = h
        while k != 0:
            out |= conjugacy_class(G, k)
            k = G.mul(k, h)
    return frozenset(out)


def branch_stabilizers(v: GeneratingVector) -> tuple[tuple[int, ...], ...]:
    """The cyclic subgroups <h_j>, each listed as (h_j, h_j^2, ..., 1)."""
    G = v.group
    subs = []
    for h in v.entries:
        powers = []
        k = h
        while k != 0:
            powers.append(k)
            k = G.mul(k, h)
        powers.append(0)
        subs.append(tuple(powers))
    return tuple(subs)


def _membership_counter(G: FiniteGroup, powers: tuple[int, ...]) -> Counter:
    """counter[x] = #{ g in H : x in g K g^-1 } for K the cyclic subgroup.

    Every coset has |K| distinct conjugates g k g^-1 over k in K, so counting
    conjugates of each nontrivial power with multiplicity equals membership
    counting (the identity is skipped; it lies in every conjugate).
    """
    rows = G.rows
    nontrivial = [p for p in powers if p != 0]
    # g p g^-1 = rows[rows[g][p]][inv[g]]
    return Counter(rows[row_g[p]][inv_g]
                   for row_g, inv_g in zip(rows, G.inverses) for p in nontrivial)


def fixed_point_table(v: GeneratingVector) -> dict[int, int]:
    """Fixed-point counts for every non-identity element, in one pass.

    The sum over j of counter_j[f] / m_j is taken as one integer over
    L = lcm(m_j), and L must divide it.
    """
    _require_genus_zero_quotient(v.cover_type)
    G = v.group
    counters = [_membership_counter(G, powers) for powers in branch_stabilizers(v)]
    L = lcm(*v.cover_type.m)
    weighted = [(counter, L // mj) for counter, mj in zip(counters, v.cover_type.m)]
    table: dict[int, int] = {}
    for f in range(1, G.order):
        total = sum(counter[f] * w for counter, w in weighted)
        if total % L != 0:
            raise IntegrityError(
                f"fixed-point count for element {f} is non-integral: {Fraction(total, L)}")
        table[f] = total // L
    return table


class CoveringData(NamedTuple):
    """Everything the rest of the pipeline needs about one branched cover."""

    vector: GeneratingVector
    genus: int
    branch_stabilizers: tuple[tuple[int, ...], ...]
    sigma_v: frozenset[int]
    fix_table: dict[int, int]


def covering_data(v: GeneratingVector) -> CoveringData:
    report = validate_generating_vector(v)
    if not report.ok:
        raise ValidationError("invalid generating vector: " + "; ".join(report.failures))
    genus = hurwitz_genus(v.group.order, v.cover_type)
    sigma = stabilizer_set(v)
    table = fixed_point_table(v)
    ram = sum(table.values())
    expected = sum((v.group.order // mj) * (mj - 1) for mj in v.cover_type.m)
    if ram != expected:
        raise IntegrityError(
            f"ramification sum {ram} != {expected} for type {v.cover_type}")
    for f, count in table.items():
        if (count > 0) != (f in sigma):
            raise IntegrityError(
                f"element {f}: fixed-point count {count} inconsistent with stabilizer set")
    return CoveringData(v, genus, branch_stabilizers(v), sigma, table)


def search_generating_vectors(group: FiniteGroup, cover_type: CoverType,
                              limit: int | None = None) -> list[GeneratingVector]:
    """Deterministic scan for generating vectors of the given genus-0 type.

    The first entry runs over conjugacy-class representatives of its order,
    later entries over all elements of the right order; the final entry is
    forced as the inverse of the leading product.  Results are reported in
    scan order, deduplicated up to simultaneous conjugation, and truncated
    at ``limit`` (``None`` = no bound; a limit below 1 is refused).

    The span of the entries chosen so far is kept as a bit mask of element
    indices.  The span of ``prefix + (h,)`` depends only on the span of
    ``prefix`` and on ``h``, so each such join is computed once per search.
    The forced last entry lies in <prefix, h>, so the last free position is
    a flat loop that tests the last entry's order before the span.

    A vector is kept when no simultaneous conjugate is lexicographically
    smaller; no key is stored.  That keeps exactly the first vector of each
    class the scan meets: the pools are sorted, so the scan runs in
    lexicographic order; each first entry f is the smallest index in its
    conjugacy class, so the class members with first entry f are exactly
    its conjugates by the centralizer C(f); and those are all valid and all
    scanned.  So only the maps of C(f) are tried, built for each f on first
    use, and the test stops at the first smaller conjugate.

    A full scan visits |first-entry reps| times the middle pool sizes
    candidates.  Without ``limit`` it raises :class:`BudgetExceeded` before
    scanning if that is over ``MAX_SEARCH_LEAVES``.
    """
    _require_genus_zero_quotient(cover_type)
    if cover_type.r < 2:
        raise ValidationError("a genus-0 vector needs at least two branch points")
    if limit is not None and limit < 1:
        raise ValidationError(f"the search limit must be positive, got {limit}")
    G = group
    n = G.order
    rows, inv, orders = G.rows, G.inverses, G.orders
    by_order = {mi: [i for i in range(n) if orders[i] == mi] for mi in set(cover_type.m)}

    first_reps, seen = [], set()
    for i in by_order[cover_type.m[0]]:
        if i not in seen:
            seen |= conjugacy_class(G, i)
            first_reps.append(i)
    leaves = len(first_reps) * prod(len(by_order[mi]) for mi in cover_type.m[1:-1])
    if limit is None and leaves > MAX_SEARCH_LEAVES:
        raise BudgetExceeded(f"a search for type {cover_type} would scan {leaves} "
                             f"candidates, more than {MAX_SEARCH_LEAVES}")

    full = (1 << n) - 1
    joins: dict[tuple[int, int], int] = {}

    def join(span: int, prefix: tuple[int, ...], h: int) -> int:
        """Bit mask of <prefix, h>, given the bit mask ``span`` of <prefix>."""
        if span >> h & 1:
            return span
        new_span = joins.get((span, h))
        if new_span is None:
            members = subgroup_generated(G, prefix + (h,)).members
            new_span = joins[span, h] = sum(1 << m for m in members)
        return new_span

    # centralizer_maps[f]: for each g != 1 centralizing f, x -> g x g^-1 as a row.
    centralizer_maps: dict[int, list[array]] = {}

    def is_minimal(entries: tuple[int, ...]) -> bool:
        f = entries[0]
        maps = centralizer_maps.get(f)
        if maps is None:
            row_f = rows[f]
            maps = centralizer_maps[f] = [array("i", [rows[y][inv[g]] for y in rows[g]])
                                          for g in range(1, n) if rows[g][f] == row_f[g]]
        conjugate = itemgetter(*entries)
        for conj in maps:
            if conjugate(conj) < entries:
                return False
        return True

    found: list[GeneratingVector] = []
    pools = [first_reps] + [by_order[mi] for mi in cover_type.m[1:-1]]
    last_free = len(pools) - 1
    m_last = cover_type.m[-1]
    # completions[span][h]: whether <span, h> is the whole group.
    completions: dict[int, dict[int, bool]] = {}

    def descend(position: int, prefix: tuple[int, ...], product: int, span: int) -> bool:
        """Scan the pools from ``position`` on; True once ``limit`` is reached."""
        row = rows[product]
        if position == last_free:
            completes = completions.setdefault(span, {})
            for h in pools[position]:
                last = inv[row[h]]
                if orders[last] != m_last:
                    continue
                ok = completes.get(h)
                if ok is None:
                    ok = completes[h] = join(span, prefix, h) == full
                if ok and is_minimal(prefix + (h, last)):
                    found.append(GeneratingVector(G, cover_type, prefix + (h, last)))
                    if len(found) == limit:
                        return True
            return False
        for h in pools[position]:
            if descend(position + 1, prefix + (h,), row[h], join(span, prefix, h)):
                return True
        return False

    descend(0, (), 0, 1)
    # descend's closure cell refers to descend itself; emptying it breaks the
    # cycle, so G is freed now instead of whenever the cyclic collector runs.
    del descend
    return found
