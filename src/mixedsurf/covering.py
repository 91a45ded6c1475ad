"""Branched Galois covers of the line: generating vectors and fixed points.

A finite group H acting on a curve C with quotient C/H of genus g' and r
branch points of indices m_1..m_r is encoded by a generating vector: a
tuple of elements (h_1, ..., h_r) of orders m_i with product 1 generating
H (only g' = 0 is supported end to end).  From the vector we derive the
genus of C (Riemann-Hurwitz), exact fixed-point counts, and the stabilizer
set Sigma_V: the elements acting with fixed points, the identity included.
An element f != 1 fixes a point exactly when it is conjugate to a power of
some h_j, and then

    |Fix(f)| = |C_H(f)| * sum_j |cl(f) intersect <h_j>| / m_j

(Breuer, *Characters and Automorphism Groups of Compact Riemann Surfaces*),
so the counts are constant on conjugacy classes and come from the classes
of the nontrivial powers of the h_j alone.  The sum is taken exactly over
the common denominator lcm(m_j), with integrality asserted.

Vectors of a given type are found by one deterministic scan,
:func:`generating_vectors`, a generator that yields one vector per class
under simultaneous conjugation, in scan order, so a caller that needs only
the first vector that fits stops the scan there;
:func:`search_generating_vectors` is the same scan as a list.  The scan is
orderly: the elements of the first entry's centralizer that fix the entries
chosen so far are one bit mask, and an entry h is skipped with its subtree
when one of them sends h to a smaller index.  At the last free position h
alone is tested, since an element that fixes the prefix and h fixes the
forced last entry, the inverse of their product.

:func:`covering_data`'s values are kept by the vector's group, keyed by the
type and the entries (:meth:`~mixedsurf.perm.FiniteGroup.kept`).
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple

from .errors import BudgetExceeded, IntegrityError, ValidationError
from .perm import FiniteGroup, subgroup_generated


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
# Candidate tuples a vector search without a limit may scan, counted for the
# unpruned scan before scanning, so an upper bound on the work done.  The
# largest bundled or benchmark scan, [0;2^5] on family 1's G0, has 182,505.
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
            k = int(em.group(2) or 1)
            if k < 1:
                raise ValidationError(f"branching index {part.strip()!r}: exponents start at 1")
            entries.append((int(em.group(1)), k))
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
    rhs = Fraction(2 * cover_type.g_prime - 2)
    for mi in cover_type.m:
        rhs += Fraction(mi - 1, mi)
    g = 1 + Fraction(order) * rhs / 2
    if g.denominator != 1:
        raise ValidationError(
            f"type {cover_type} with group order {order} gives non-integral genus {g}")
    return int(g)


def _require_genus_zero_quotient(cover_type: CoverType):
    if cover_type.g_prime != 0:
        raise ValidationError(
            f"cover type {cover_type}: only genus-0 quotients are supported (g' > 0 unsupported)")


def validate_generating_vector(v: GeneratingVector) -> None:
    """Check the three defining conditions: orders, product and generation.

    Raises ValidationError("invalid generating vector: ...") naming every
    condition that fails, joined by "; " in that order.
    """
    _require_genus_zero_quotient(v.cover_type)
    G = v.group
    if len(v.entries) != v.cover_type.r:
        raise ValidationError(
            f"vector has {len(v.entries)} entries but type {v.cover_type} needs {v.cover_type.r}")
    failures = []
    for i, (h, mi) in enumerate(zip(v.entries, v.cover_type.m)):
        o = G.order_of(h)
        if o != mi:
            failures.append(f"orders: entry {i + 1} has order {o}, expected {mi}")
    acc = 0
    for h in v.entries:
        acc = G.mul(acc, h)
    if acc != 0:
        failures.append("product: entries do not multiply to the identity")
    if subgroup_generated(G, v.entries).order != G.order:
        failures.append("generates: entries generate a proper subgroup")
    if failures:
        raise ValidationError("invalid generating vector: " + "; ".join(failures))


def stabilizer_set(v: GeneratingVector) -> frozenset[int]:
    """All conjugates of all powers of the branch generators (identity included)."""
    classes = v.group.class_map.classes
    return frozenset({0}.union(*(classes[c] for powers in _power_classes(v) for c in powers)))


def _power_classes(v: GeneratingVector) -> list[list[int]]:
    """For each entry h_j, the class index of each of h_j, h_j^2, ... != 1."""
    G = v.group
    class_of = G.class_map.class_of
    out = []
    for h in v.entries:
        powers = []
        k = h
        while k != 0:
            powers.append(class_of[k])
            k = G.mul(k, h)
        out.append(powers)
    return out


def fixed_point_table(v: GeneratingVector) -> dict[int, int]:
    """Fixed-point counts for every non-identity element, by conjugacy class.

    A class c gets the weight w_c, the sum over j of L/m_j for each power of
    h_j in c, with L = lcm(m_j); every f in c has |H| w_c / (L |c|) fixed
    points, and L |c| must divide |H| w_c.  The classes are checked in
    order of class index, which is the order of their least members.
    ``v`` is a validated vector, of a genus-0 type.
    """
    G = v.group
    classes = G.class_map.classes
    L = lcm(*v.cover_type.m)
    weight: dict[int, int] = {}
    for powers, mj in zip(_power_classes(v), v.cover_type.m):
        for c in powers:
            weight[c] = weight.get(c, 0) + L // mj
    table = dict.fromkeys(range(1, G.order), 0)
    for c, w in sorted(weight.items()):
        cls = classes[c]
        count, rest = divmod(G.order * w, L * len(cls))
        if rest:
            raise IntegrityError(f"fixed-point count for element {min(cls)} is non-integral: "
                                 f"{Fraction(G.order * w, L * len(cls))}")
        table.update(dict.fromkeys(cls, count))
    return table


class CoveringData(NamedTuple):
    """Everything the rest of the pipeline needs about one branched cover."""

    vector: GeneratingVector
    genus: int
    sigma_v: frozenset[int]
    fix_table: dict[int, int]


def covering_data(v: GeneratingVector) -> CoveringData:
    """Genus, stabilizer set and fixed-point table of a valid vector.

    The group keeps these three under the key (type, entries) by
    :meth:`~mixedsurf.perm.FiniteGroup.kept`, and the bundle is built around
    the caller's vector each time: a kept vector would refer back to its
    group.  A refused vector is never kept.  No caller writes to the table.

    The stabilizer set is :func:`stabilizer_set`, which is also the identity
    plus the support of the table; and the table's counts sum to the
    ramification sum (|H|/m_j)(m_j - 1) over j.  Both hold by construction:
    every class weight is positive, and once
    :func:`validate_generating_vector` has fixed the order of h_j at m_j,
    each of its m_j - 1 nontrivial powers lies in exactly one class c and
    adds |H|/(m_j |c|) to each of the |c| counts of that class.
    """
    genus, sigma_v, fix_table = v.group.kept(("cover", v.cover_type, v.entries),
                                             lambda: _cover_of(v))
    return CoveringData(v, genus, sigma_v, fix_table)


def _cover_of(v: GeneratingVector) -> tuple[int, frozenset[int], dict[int, int]]:
    """:func:`covering_data`'s values for ``v``, computed."""
    validate_generating_vector(v)
    genus = hurwitz_genus(v.group.order, v.cover_type)
    return genus, stabilizer_set(v), fixed_point_table(v)


def generating_vectors(group: FiniteGroup, cover_type: CoverType,
                       limit: int | None = None) -> Iterator[GeneratingVector]:
    """Lazy deterministic scan for generating vectors of a genus-0 type.

    The first entry runs over the least members of the conjugacy classes of
    its order, read from ``group.class_map`` in class order, later entries
    over all elements of the right order; the final entry is
    forced as the inverse of the leading product.  Vectors are yielded in
    scan order, deduplicated up to simultaneous conjugation, one at a time:
    a caller that stops drawing stops the scan there.  The scan ends after
    ``limit`` vectors (``None`` = no bound; a limit below 1 is refused).

    The span of the entries chosen so far is kept as a bit mask of element
    indices.  The span of ``prefix + (h,)`` depends only on the span of
    ``prefix`` and on ``h``, so each such join is computed once per search,
    by :func:`~mixedsurf.perm.subgroup_generated`.  Most joins are the whole
    group, which that walk returns once it holds more than half of G
    (Lagrange), and whose mask is the precomputed all-ones ``full``.
    The forced last entry lies in <prefix, h>, so the last free position is
    a flat loop over the h whose forced last entry has the right order,
    listed once per product of the prefix; it tests the span before
    the centralizer and yields each vector it keeps.  A join <prefix, h>
    that is not the whole group marks each of its members h' as not
    completing either, since <prefix, h'> lies inside it.  The positions
    before the last free one are open frames on an explicit stack, so the
    scan runs in this one generator frame.

    A vector is kept when no simultaneous conjugate is lexicographically
    smaller; no key is stored.  That keeps exactly the first vector of each
    class the scan meets: the pools are sorted, so the scan runs in
    lexicographic order; each first entry f is the smallest index in its
    conjugacy class, so the class members with first entry f are exactly
    its conjugates by the centralizer C(f); and those are all valid and all
    scanned.  So only conjugation by C(f) is tried.  Its non-identity
    elements are listed once per f, and a set of them is an int, bit i
    standing for the i-th.

    The scan is orderly.  For each entry h it asks about, it computes two
    masks once per f: ``lower``, the g with g h g^-1 < h, and ``fixes``, the
    g with g h g^-1 = h.  Each open position carries one int, ``keep``: the
    g that fix every entry chosen so far.  If ``keep & lower`` is nonzero,
    some g fixes the prefix and sends h lower, so it sends every completion
    of ``prefix + (h,)`` to a lexicographically smaller conjugate, and h is
    skipped with its whole subtree.  A g that sends h higher makes every
    completion larger, so the next position gets ``keep & fixes``.  The last
    free position tests h alone: a g that fixes the prefix and h also fixes
    the forced last entry (product h)^-1, so ``keep & lower`` decides there
    too.  The vectors kept, their order and the ``limit`` cuts are those of
    the unpruned scan.

    The unpruned scan visits |first-entry reps| times the middle pool sizes
    candidates.  That count is an upper bound on the pruned scan, taken
    before scanning: without ``limit`` the scan raises
    :class:`BudgetExceeded` if it is over ``MAX_SEARCH_LEAVES``.  That
    error and those for unsupported arguments come before the first vector.
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

    first_reps = [f for f in map(min, G.class_map.classes) if orders[f] == cover_type.m[0]]
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
            new_span = joins[span, h] = (full if len(members) == n
                                         else sum(1 << m for m in members))
        return new_span

    # The non-identity elements g of C(f), f = prefix[0], as (row of g, g^-1);
    # bit i of a mask stands for centralizer[i].
    centralizer: list[tuple] = []
    # masks[h]: the bits of the g with g h g^-1 < h, and of those with g h g^-1 = h.
    masks: dict[int, tuple[int, int]] = {}

    def masks_of(h: int) -> tuple[int, int]:
        lower = fixes = 0
        bit = 1
        for row_g, g_inv in centralizer:
            image = rows[row_g[h]][g_inv]
            if image < h:
                lower |= bit
            elif image == h:
                fixes |= bit
            bit <<= 1
        masks[h] = lower, fixes
        return lower, fixes

    pools = [first_reps] + [by_order[mi] for mi in cover_type.m[1:-1]]
    last_free = len(pools) - 1
    last_pool, m_last = pools[last_free], cover_type.m[-1]
    # candidates[product]: the h at the last free position whose forced last
    # entry has order m_last.
    candidates: dict[int, list[int]] = {}
    # completions[span][h]: whether <span, h> is the whole group.
    completions: dict[int, dict[int, bool]] = {}
    kept = 0
    # One frame (prefix, Cayley row of its product, span, keep, pool iterator)
    # per open position before the last free one.  ``keep`` has the bits of
    # the centralizer elements that fix every entry of ``prefix``; it is 0 at
    # position 0, where there is nothing to prune.
    frames: list[tuple] = []
    prefix, product, span, keep = (), 0, 1, 0
    while True:
        if len(prefix) < last_free:
            frames.append((prefix, rows[product], span, keep, iter(pools[len(prefix)])))
        else:
            row = rows[product]
            todo = candidates.get(product)
            if todo is None:
                todo = candidates[product] = [h for h in last_pool
                                              if orders[inv[row[h]]] == m_last]
            completes = completions.setdefault(span, {})
            for h in todo:
                ok = completes.get(h)
                if ok is None:
                    joined = join(span, prefix, h)
                    ok = completes[h] = joined == full
                    # Each h' in a proper join spans a part of it with the prefix.
                    if not ok:
                        while joined:
                            low = joined & -joined
                            completes[low.bit_length() - 1] = False
                            joined ^= low
                if ok and not (keep and keep & (masks.get(h) or masks_of(h))[0]):
                    yield GeneratingVector(G, cover_type, prefix + (h, inv[row[h]]))
                    kept += 1
                    if kept == limit:
                        return
        # Step to the next unpruned entry of the deepest open position,
        # closing the positions whose pools are spent.
        while frames:
            prefix, row, span, keep, pool = frames[-1]
            for h in pool:
                if not keep:
                    break
                lower, fixes = masks.get(h) or masks_of(h)
                if not keep & lower:
                    keep &= fixes
                    break
            else:
                frames.pop()
                continue
            if not prefix:
                row_f = rows[h]
                centralizer = [(rows[g], inv[g]) for g in range(1, n) if rows[g][h] == row_f[g]]
                masks = {}
                keep = (1 << len(centralizer)) - 1
            prefix, product, span = prefix + (h,), row[h], join(span, prefix, h)
            break
        else:
            return


def search_generating_vectors(group: FiniteGroup, cover_type: CoverType,
                              limit: int | None = None) -> list[GeneratingVector]:
    """The vectors of :func:`generating_vectors`, as a list in scan order."""
    return list(generating_vectors(group, cover_type, limit))
