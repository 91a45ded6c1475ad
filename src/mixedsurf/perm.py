"""Exact permutation groups, held as index tables.

Conventions used throughout the package:

* points are labeled ``1..n``; ``images[i]`` is the image of point ``i+1``;
* products compose left to right, ``(p * q)(i) == q(p(i))``, i.e.
  permutations act on the right (the usual computational convention);
* every :class:`FiniteGroup` numbers its elements in a deterministic
  order: breadth-first over words in the generators, ties within a BFS
  layer broken by lexicographic image sequence.  The identity always has
  index 0.

A group is its index tables: it addresses its elements by index, and only
its generators are :class:`Permutation`s, each checked to be a bijection
when it is built from outside data (a group file, a coset table, a test).
:func:`closure` composes raw image tuples while it walks, and keeps none of
them once the walk ends.  It walks the BFS by left products g * e, each one
C-level gather, and records every element's left step under each
generator.  One integer pass along that search tree, :func:`_right_steps`,
follows the right steps e * g to the BFS parents.

``closure`` is the only walk that composes image tuples.  A subgroup of a
realized group is walked on the parent's Cayley table instead:
:func:`subgroup_as_group` runs closure's walk with each left product read
from a parent row, sorts each layer by the parent elements' prefix keys
(below) and shares closure's layer renumbering and integer pass, so it
gives closure's group to the last index.  The walk finds each member as a
parent index, and the realization keeps these as ``FiniteGroup.positions``:
element i of the subgroup is element ``positions[i]`` of the parent, with
no lookup.  :func:`subgroup_generated`, the span of a few element indices,
stops as soon as it holds more than half of the group: by Lagrange's
theorem it is then the whole group.

While it walks, :func:`closure` tells products apart by a prefix key, the
images of the first ``width`` points, in the sense of a base (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*): a group that acts
semiregularly, as every group of the pipeline does, is told apart by the
image of point 1, so its key is a one-item tuple, not ``degree`` ints to
hash.  Another permutation can share a key, so every hit is compared with
the stored images in full.  When two distinct elements share one, the key
is widened to at least twice its width and past their first differing
point (to the whole tuple once that is more than half of it), and the
walk's index is rebuilt; the width only grows, up to the degree, so that
happens at most ceil(log2(degree)) times.  When the walk ends the keys are
distinct, so they order the elements as their full image tuples do: the
group keeps them, and nothing else of the images, for its realizations'
layer sort.  Nothing looks a permutation up.

The index-level Cayley table ``FiniteGroup.rows`` is built on its first
read, from the left steps and the parents: the row of e_i == e_p * g is the
row of e_p read through g's left steps, one gather over e_p's row held as a
tuple of shared ints, so no entry is boxed; each row is packed into a
two-byte array by one ``struct`` call.  ``FiniteGroup.inverses`` follow the
same parents, e_i^-1 == g^-1 * e_p^-1, and ``FiniteGroup.class_map`` and
``FiniteGroup.derived_series`` are the one walk of the conjugacy classes
and of the derived series.  Downstream code reads these index arrays and
never composes image arrays in inner loops.

One rule keeps a value from its second request on, :func:`keep`, so a
one-shot process keeps nothing; ``files.load_group`` keeps groups by it.  A
group keeps values derived from it with :meth:`FiniteGroup.kept`, each
under a short key tagged by a string of its own:

* ``"subgroup"``: :func:`subgroup_as_group`'s realizations, keyed by the
  subgroup's generators;
* ``"cover"``: ``covering.covering_data``'s genus, stabilizer set and
  fixed-point table, keyed by a vector's type and entries;
* ``"span"``: the members and generators of the span of G0's seeds in
  ``surface.assemble_surface``;
* ``"tower"``: the vectors that H's [0;2,3,8] vector induces, in
  ``surface.attach_covering_group``;
* ``"word"``: a word's element index, in ``files.resolve_word``.

A value that fails to be made raises on every request and is never kept.
No kept value refers back to its group.  :func:`closure` keeps nothing.

One budget, ``MAX_CLOSURE_CELLS``, bounds what a group holds: its images
while it is walked, its Cayley table after.  :func:`closure_limit` turns
it into an element count, at most 2,048.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cached_property
from math import isqrt, lcm
from operator import itemgetter
from struct import Struct
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, InputParseError, ValidationError

# The most cells a group may hold: order times the larger of order and
# degree.  closure holds each element as a tuple of `degree` images, 8 bytes
# each, and the group then holds its Cayley table, order^2 two-byte indices.
# The largest bundled group, h768, needs 768 * 768 = 589,824 cells; 2^22
# leaves room for seven times that, allows at most 2,048 elements, so every
# table index fits in two bytes, and caps a table at 8 MB.
MAX_CLOSURE_CELLS = 1 << 22


class Permutation:
    """A bijection of {1..n} stored as its image sequence of ints; immutable."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        # n distinct ints from 1 to n are exactly 1..n: no sort is needed.
        n = len(images)
        if n and (min(images) != 1 or max(images) != n or len(set(images)) != n):
            raise ValidationError(f"image sequence {images!r} is not a bijection of 1..{n}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not Permutation:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(1, degree + 1)))

    @staticmethod
    def from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(1, degree + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
                images[a - 1] = b
        return Permutation(tuple(images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise ValidationError("degree mismatch in permutation product")
        o = other.images
        return Permutation(tuple(o[i - 1] for i in self.images))

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(tuple(inv))

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its minimal point."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return f"Permutation.identity({self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Perm[{self.degree}]{body}"


def keep(kept: dict, noted: set[int], key, make):
    """``make()``, kept in ``kept`` under ``key`` from its second request on.

    A first request only notes ``hash(key)`` in ``noted``, so a one-shot
    caller keeps nothing.  A ``make`` that raises leaves no note: a failure
    is raised on every request.
    """
    if key in kept:
        return kept[key]
    value, note = make(), hash(key)
    if note in noted:
        noted.remove(note)
        kept[key] = value
    else:
        noted.add(note)
    return value


class ClassMap(NamedTuple):
    """The conjugacy classes of a group and the class of each element."""

    classes: tuple[frozenset[int], ...]   # ordered by least member index
    class_of: array                       # class_of[i] = index of e_i's class


class FiniteGroup:
    """A finite permutation group, canonically ordered, held as index tables.

    Use :func:`closure` to construct one.  Elements are addressed by index
    e_0, e_1, ...; none is stored as a permutation.  It stores the BFS
    parents, the left steps and each element's prefix key; the Cayley
    table ``rows``, the ``inverses``, the element ``orders``, the conjugacy
    ``class_map`` and the ``derived_series`` are built from them on their
    first read; inner loops read them directly, and
    ``mul``/``inv``/``conj``/``order_of`` are one-line reads.  A group built
    by :func:`closure` keeps its ``generators``.  A group realized by
    :func:`subgroup_as_group` keeps none, ``()``, and has ``positions``
    instead, the parent's index of each element.
    """

    def __init__(self, degree: int, generators: tuple[Permutation, ...],
                 parents: tuple[tuple[int, int], ...], left_step: list[array],
                 keys: Sequence, positions: tuple[int, ...] | None = None):
        self.degree = degree
        self.generators = generators
        # parents[i] = (j, c) with e_i == e_j * g_c, g_c the c-th generator;
        # parents[0] is (-1, -1) for the identity.
        self._parents = parents
        self._left_step = left_step  # left_step[c][k] = index(g_c * e_k)
        self.generator_indices = tuple(step[0] for step in left_step)  # g_c * e_0 == g_c
        # keys[i] sorts as e_i's image tuple does, among this group's
        # elements: a distinct prefix of it (see closure).
        self._keys = keys
        # For a realized subgroup, positions[i] is the parent's index of
        # e_i: plain ints, no reference to the parent.  None for a group
        # built by closure.
        self.positions = positions
        # Values derived from this group by key, and the hashes of the keys
        # requested once (see `keep`).
        self._kept: dict = {}
        self._noted: set[int] = set()

    @property
    def order(self) -> int:
        return len(self._parents)

    @cached_property
    def rows(self) -> list[array]:
        """The Cayley table: ``rows[i][j]`` is the index of e_i * e_j.

        Each row is an ``array("H")``, two bytes per entry, filled by one
        ``struct`` pack of the gathered row: the array constructor would
        convert the row one item at a time.
        """
        n = self.order
        parents = self._parents
        # Row i maps j to index(e_i * e_j); with e_i == e_p * generators[c] it
        # is row p read through the left steps of generators[c], one C-level
        # gather per row.  The gather reads p's row as a tuple, whose items
        # are shared int objects, so nothing is boxed; a tuple row is kept
        # only until its last BFS child is built.
        read_left = [itemgetter(*step) for step in self._left_step]
        pack = Struct(f"{n}H").pack
        last_child = [0] * n
        for i in range(1, n):
            last_child[parents[i][0]] = i
        live: list[tuple[int, ...] | None] = [None] * n
        live[0] = tuple(range(n))
        rows = [array("H", pack(*live[0]))]
        for i in range(1, n):
            p, c = parents[i]
            row = read_left[c](live[p])
            if last_child[p] == i:
                live[p] = None
            if last_child[i]:
                live[i] = row
            rows.append(array("H", pack(*row)))
        return rows

    @cached_property
    def inverses(self) -> array:
        """``inverses[i]`` is the index of e_i^-1.

        With e_i == e_p * generators[c], e_i^-1 == generators[c]^-1 * e_p^-1,
        so the inverses follow the BFS parents through the left steps read
        backwards: back_left[c][k] = index(generators[c]^-1 * e_k).
        """
        n = self.order
        back_left = [array("i", sorted(range(n), key=step.__getitem__))
                     for step in self._left_step]
        inv = array("i", [0]) * n
        for i, (p, c) in enumerate(self._parents[1:], 1):
            inv[i] = back_left[c][inv[p]]
        return inv

    @cached_property
    def orders(self) -> list[int]:
        """``orders[i]`` is the order of e_i."""
        return _element_orders(self.rows)

    @cached_property
    def class_map(self) -> ClassMap:
        """The conjugacy classes, ordered by least member, and each element's
        class index: one breadth-first walk per class, by conjugation with
        the generators, started from the least element not in a class yet.
        """
        rows, inv = self.rows, self.inverses
        by_gen = [(rows[g], inv[g]) for g in self.generator_indices]
        class_of = array("i", [-1]) * self.order
        classes = []
        for f in range(self.order):
            if class_of[f] >= 0:
                continue
            k = len(classes)
            class_of[f] = k
            members = [f]
            for x in members:  # the list grows while it is read: a BFS queue
                for row_g, inv_g in by_gen:
                    y = rows[row_g[x]][inv_g]
                    if class_of[y] < 0:
                        class_of[y] = k
                        members.append(y)
            classes.append(frozenset(members))
        return ClassMap(tuple(classes), class_of)

    @cached_property
    def derived_series(self) -> tuple[tuple[int, ...], ...]:
        """The members of G', G'', ..., down to the first term that is trivial
        or unchanged, which equals every later one.  Member tuples: a kept
        :class:`Subgroup` would refer back to this group, a reference cycle."""
        series = []
        previous, current = self.order, derived_subgroup(self)
        while True:
            series.append(current.members)
            if current.order in (1, previous):
                return tuple(series)
            previous, current = current.order, derived_subgroup(current)

    def kept(self, key, make):
        """``make()``, derived from this group alone, kept under ``key`` by :func:`keep`.

        ``key`` is a tuple whose first item is its memo's tag (see the module
        docstring), so no two memos share a key.  The value must not refer
        back to this group: the cycle would keep its tables alive.
        """
        return keep(self._kept, self._noted, key, make)

    def mul(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def conj(self, g: int, x: int) -> int:
        """Index of g * x * g^-1."""
        rows = self.rows
        return rows[rows[g][x]][self.inverses[g]]

    def order_of(self, i: int) -> int:
        return self.orders[i]

    def word_for(self, i: int) -> list[int]:
        """Generator indices whose left-to-right product is element i."""
        word: list[int] = []
        while i != 0:
            j, c = self._parents[i]
            word.append(c)
            i = j
        word.reverse()
        return word

    def __repr__(self):
        return (f"FiniteGroup(order={self.order}, degree={self.degree}, "
                f"ngens={len(self.generator_indices)})")


def closure_limit(degree: int) -> int:
    """The most elements :func:`closure` builds from generators of ``degree``:
    order times the larger of order and degree stays within ``MAX_CLOSURE_CELLS``."""
    return min(isqrt(MAX_CLOSURE_CELLS), MAX_CLOSURE_CELLS // max(degree, 1))


def closure(generators: Sequence[Permutation], budget: int | None = None) -> FiniteGroup:
    """Generate the group closure of ``generators``.

    Element ordering is breadth-first over words in the generators with ties
    inside each layer broken by lexicographic image sequence; the identity is
    element 0.  Raises :class:`BudgetExceeded` if the closure grows past
    ``budget`` elements or past :func:`closure_limit`.

    The search multiplies by generators on the left: layer k holds the
    products of k generators and no fewer, the same set on either side, so
    the order is the same as a search by right products.  Each left product
    is one gather.  The right steps and the BFS parents come from the left
    steps, by :func:`_right_steps`.

    Products are looked up by the key ``images[:width]``, starting from
    width 1.  A hit is compared in full with the stored tuple, since a
    prefix does not determine a permutation; at full width the key is the
    whole tuple and the compare is skipped.  Two distinct tuples with one
    key widen it with :func:`_wider` to at least double, past their first
    differing point (to the whole tuple once that is more than half of it),
    and the index is rebuilt.  The stored keys stay distinct, since a longer
    prefix refines them, and the width is at most the degree, so the index
    is rebuilt at most ceil(log2(degree)) times.  The index is a local of
    the walk: the group keeps none.
    The layer order and the sort within a layer use the full tuples; the
    group keeps only the final keys, which sort the same way, and drops
    the images.
    """
    gens = tuple(generators)
    if not gens:
        raise ValidationError("at least one generator is required")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValidationError("generators have mismatched degrees")
    limit = closure_limit(degree)
    budget = limit if budget is None else min(budget, limit)

    # (g * e).images is e read at g's images, one C-level gather.  In degree
    # 0 and 1 every permutation is the identity, and itemgetter would take
    # no index or return a bare item instead of a tuple.
    gathers = [itemgetter(*[x - 1 for x in g.images]) if degree > 1 else tuple
               for g in gens]
    ident = tuple(range(1, degree + 1))
    images: list[tuple[int, ...]] = [ident]
    # Prefix images[:width] -> element index; a member of the layer being
    # discovered maps to ~(its discovery number) until the layer is sorted.
    width = min(1, degree)
    index: dict[tuple[int, ...], int] = {ident[:width]: 0}
    # left_parents[k] = (p, a) with e_k == g_a * e_p
    left_parents: list[tuple[int, int]] = [(-1, -1)]
    left_step = [array("i") for _ in gens]
    layer_ends: list[int] = []

    start = 0
    while start < len(images):
        end = len(images)
        layer: list[tuple[int, ...]] = []
        for a, gather in enumerate(gathers):
            found = []
            for p, prod in enumerate(map(gather, images[start:end]), start):
                key = prod[:width]
                j = index.get(key)
                # A hit is the same element only if all its images agree; at
                # full width the key is the whole tuple.  On a collision the
                # wider key is new: the stored keys are distinct, so only
                # `other` shared prod's narrower one.
                if j is not None and width < degree:
                    other = images[j] if j >= 0 else layer[~j]
                    if other != prod:
                        width = _wider(width, prod, other)
                        index = _prefix_index(images, layer, width)
                        key, j = prod[:width], None
                if j is None:
                    if end + len(layer) >= budget:
                        raise BudgetExceeded(
                            f"group closure exceeded the element budget of {budget} "
                            f"(order times the larger of order and degree is at most "
                            f"{MAX_CLOSURE_CELLS})")
                    j = ~len(layer)
                    index[key] = j
                    layer.append(prod)
                    left_parents.append((p, a))
                found.append(j)
            left_step[a].extend(found)
        # Index the new layer in lexicographic order, then resolve the steps
        # of this layer that pointed into it.
        order = sorted(range(len(layer)), key=layer.__getitem__)
        for rank, t in enumerate(order, end):
            index[layer[t][:width]] = rank
        images.extend(layer[t] for t in order)
        _settle_layer(order, start, end, left_parents, left_step)
        layer_ends.append(end)
        start = end

    parents = _right_steps(left_parents, left_step, layer_ends)
    return FiniteGroup(degree, gens, parents, left_step, [im[:width] for im in images])


def _settle_layer(order: list[int], start: int, end: int,
                  left_parents: list[tuple[int, int]], left_step: list[array]) -> None:
    """Number a new layer from ``end`` on in ``order`` (its discovery numbers
    sorted by image tuple), in the left parents and in the left steps out of
    the layer before, ``start:end``, which hold ~t for discovery number t."""
    final = [0] * len(order)
    for rank, t in enumerate(order, end):
        final[t] = rank
    left_parents[end:] = [left_parents[end + t] for t in order]
    for step in left_step:
        step[start:end] = array("i", [final[~j] if j < 0 else j for j in step[start:end]])


def _right_steps(left_parents: list[tuple[int, int]], left_step: list[array],
                 layer_ends: list[int]) -> tuple[tuple[int, int], ...]:
    """The BFS parents of a left-product walk, found from its right steps.

    If e_k == g_a * e_p then e_k * g_c == g_a * (e_p * g_c), so the right
    steps follow the left parents, in index order, so that e_p's are known
    before e_k's.  A right step out of k's layer lands in the next one, and
    the first such (k, c) in scan order is the BFS parent of where it lands.
    """
    n = len(left_parents)
    right_step = [array("i", [step[0]]) * n for step in left_step]
    parents: list[tuple[int, int] | None] = [None] * n
    parents[0] = (-1, -1)
    ends = iter(layer_ends)
    end = next(ends)
    for k in range(n):
        if k == end:
            end = next(ends)
        if k:
            p, a = left_parents[k]
            step = left_step[a]
            for right in right_step:
                right[k] = step[right[p]]
        for c, right in enumerate(right_step):
            t = right[k]
            if t >= end and parents[t] is None:
                parents[t] = (k, c)
    return tuple(parents)


def _wider(width: int, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """The key width after distinct image tuples a and b shared a width-prefix:
    at least double, and past their first differing point.  A key longer than
    half the tuple is made the whole tuple, which costs no slice copy and no
    compare on a hit."""
    first = next(x for x in range(width, len(a)) if a[x] != b[x])
    wider = max(2 * width, first + 1)
    return wider if 2 * wider <= len(a) else len(a)


def _prefix_index(images: list[tuple[int, ...]], layer: list[tuple[int, ...]],
                  width: int) -> dict[tuple[int, ...], int]:
    """closure's index rebuilt at a wider key: images[i][:width] -> i and
    layer[t][:width] -> ~t.  A wider prefix refines the old, distinct keys,
    so the new keys are distinct too."""
    index = {im[:width]: i for i, im in enumerate(images)}
    index.update((im[:width], ~t) for t, im in enumerate(layer))
    return index


class Subgroup(NamedTuple):
    """A subgroup given by sorted member indices of its parent; a plain record.

    :func:`subgroup_generated` is the constructor: its members are the
    closure of its seeds, a subgroup, so nothing is checked or derived here.
    """

    parent: FiniteGroup
    members: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        members = self.members
        k = bisect_left(members, i)
        return k < len(members) and members[k] == i


def subgroup_generated(G: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the seed element indices.

    A breadth-first walk by right products with the seeds, read from G's
    Cayley table.  By Lagrange's theorem a subgroup with more than half of
    G's elements is G, so the walk stops after the first layer that takes
    it past |G| // 2 and returns the whole group: the same value as the
    full walk, for fewer lookups.  A subgroup of index 2 holds exactly half
    and is walked to the end.  The seeds are element indices of G, as
    every caller gets them from a word, a search or a Cayley table.
    """
    gens = tuple(dict.fromkeys(s for s in seeds if s != 0))
    sub_gens = gens if gens else (0,)
    half = G.order // 2
    members = {0}
    frontier = [0]
    rows = G.rows
    while frontier:
        nxt = []
        for i in frontier:
            row = rows[i]
            for s in gens:
                j = row[s]
                if j not in members:
                    members.add(j)
                    nxt.append(j)
        if len(members) > half:
            return Subgroup(G, tuple(range(G.order)), sub_gens)
        frontier = nxt
    return Subgroup(G, tuple(sorted(members)), sub_gens)


def subgroup_as_group(sub: Subgroup) -> FiniteGroup:
    """Realize a subgroup as a standalone FiniteGroup (same degree, own indexing).

    The realization depends only on the parent and ``sub.generators``, and
    the parent keeps it under that key by :meth:`FiniteGroup.kept`: from
    the second request on, the same group object is returned.  It shares
    the parent's prefix keys but does not hold the parent, so keeping it
    makes no cycle.
    """
    parent = sub.parent
    return parent.kept(("subgroup", sub.generators),
                       lambda: _realize_subgroup(parent, sub.generators))


def _realize_subgroup(parent: FiniteGroup, generators: tuple[int, ...]) -> FiniteGroup:
    """The subgroup of ``parent`` spanned by ``generators``, realized.

    The result is ``closure`` of the parent elements at ``generators``,
    to the last index, parent and step, but its walk runs on the parent's
    Cayley table: the left product g * e is ``parent.rows[g][e]``, and each
    new layer is sorted by its parent elements' prefix keys, which sort as
    their image tuples do.  The parent indices the walk found, in the
    subgroup's order, are kept as ``positions``, and their keys are the
    realization's keys.  It keeps no generators.  The right steps and
    parents come from the same integer pass as closure's.  The walk from a
    :class:`Subgroup`'s generators gives exactly its members: their span,
    or G when the span was cut short at more than half of G (Lagrange).
    """
    rows, parent_keys = parent.rows, parent._keys
    gen_rows = [rows[g] for g in generators]
    # Parent index -> own index; a member of the layer being discovered maps
    # to ~(its discovery number) until the layer is sorted.
    local = {0: 0}
    members = [0]
    left_parents: list[tuple[int, int]] = [(-1, -1)]
    left_step = [array("i") for _ in gen_rows]
    layer_ends: list[int] = []
    start = 0
    while start < len(members):
        end = len(members)
        layer: list[int] = []
        for a, row in enumerate(gen_rows):
            found = []
            for p, x in enumerate(map(row.__getitem__, members[start:end]), start):
                j = local.get(x)
                if j is None:
                    j = local[x] = ~len(layer)
                    layer.append(x)
                    left_parents.append((p, a))
                found.append(j)
            left_step[a].extend(found)
        order = sorted(range(len(layer)), key=lambda t: parent_keys[layer[t]])
        for rank, t in enumerate(order, end):
            local[layer[t]] = rank
        members.extend(layer[t] for t in order)
        _settle_layer(order, start, end, left_parents, left_step)
        layer_ends.append(end)
        start = end

    parents = _right_steps(left_parents, left_step, layer_ends)
    return FiniteGroup(parent.degree, (), parents, left_step,
                       [parent_keys[x] for x in members], tuple(members))


_NOT_AN_EMBEDDING = "generator matching does not extend to an injective homomorphism"


def extend_homomorphism(src: FiniteGroup, src_gens, dst: FiniteGroup,
                        dst_gens) -> dict[int, int]:
    """The injective homomorphism src_gens[i] -> dst_gens[i] on <src_gens>.

    Walks <src_gens> breadth first, setting img(x s) = img(x) t for every
    generator pair (s, t).  When no element gets two different images this
    is a homomorphism: every y in the span is a positive word w in the
    generators, so img(x y) = img(x) img(w) by induction on w.  Its image is
    then <dst_gens>, and an injective one keeps every element's order.
    Returns the map as a dict on the span.  Raises ValidationError when the
    two lists have different lengths, or the matching is not well defined or
    not injective.
    """
    if len(src_gens) != len(dst_gens):
        raise ValidationError("generator lists have different lengths")
    src_rows, dst_rows = src.rows, dst.rows
    pairs = tuple(zip(src_gens, dst_gens))
    img = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row_x, row_img = src_rows[x], dst_rows[img[x]]
            for s, t in pairs:
                y, iy = row_x[s], row_img[t]
                known = img.get(y)
                if known is None:
                    img[y] = iy
                    nxt.append(y)
                elif known != iy:
                    raise ValidationError(_NOT_AN_EMBEDDING)
        frontier = nxt
    if len(set(img.values())) != len(img):
        raise ValidationError(_NOT_AN_EMBEDDING)
    return img


def homomorphisms(src: FiniteGroup, src_gens, dst: FiniteGroup,
                  pool: Iterable[int]) -> Iterator[dict[int, int]]:
    """Every injective homomorphism of <src_gens> into dst with generator images in pool.

    Yields the maps of :func:`extend_homomorphism` in lexicographic order of
    the image tuple, skipping each leaf whose matching it rejects.  An image
    t_k is dropped when t_k, t_1..t_k or some t_i t_k has another order than
    the same product of source generators; so when s_1..s_k is the identity,
    t_k is forced to be (t_1..t_{k-1})^-1.
    """
    gens = tuple(src_gens)
    orders, rows, inv = dst.orders, dst.rows, dst.inverses
    pool = sorted(set(pool))
    candidates, prefix_orders, pair_orders, acc = [], [], [], 0
    for k, s in enumerate(gens):
        candidates.append([t for t in pool if orders[t] == src.order_of(s)])
        acc = src.mul(acc, s)
        prefix_orders.append(src.order_of(acc))
        pair_orders.append([src.order_of(src.mul(r, s)) for r in gens[:k]])
    allowed = [set(c) for c in candidates]
    # Depth-first over image prefixes, each node checked before it is pushed;
    # children are pushed in reverse so they come off in increasing order.
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        chosen, product = stack.pop()
        k = len(chosen)
        if k == len(gens):
            try:
                img = extend_homomorphism(src, gens, dst, chosen)
            except ValidationError:
                continue
            yield img
            continue
        options = candidates[k] if prefix_orders[k] > 1 else sorted(allowed[k] & {inv[product]})
        row = rows[product]
        stack.extend((chosen + (t,), row[t]) for t in reversed(options)
                     if orders[row[t]] == prefix_orders[k] and all(
                         orders[rows[c][t]] == o for c, o in zip(chosen, pair_orders[k])))


def derived_subgroup(G: FiniteGroup | Subgroup) -> Subgroup:
    """Commutator subgroup [G,G], as a Subgroup of G (or of a subgroup's parent).

    [G,G] is the normal closure in G of the commutators of G's generators
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*): start
    from those commutators and add the conjugates of the subgroup's
    generators by G's generators until conjugation adds nothing.

    The result is normal, with no further check: the loop exits only when
    every generator of G conjugates every generator of the subgroup into the
    subgroup, so each generator of G maps the subgroup into itself, and onto
    it, since conjugation is a bijection of a finite set; the subgroup is
    then normalized by each generator of G and so by G.
    """
    if isinstance(G, Subgroup):
        parent, gens = G.parent, G.generators
    else:
        parent, gens = G, G.generator_indices
    rows, inv = parent.rows, parent.inverses
    # [a,b] = a b a^-1 b^-1
    sub = subgroup_generated(parent, [rows[rows[rows[a][b]][inv[a]]][inv[b]]
                                      for a in gens for b in gens])
    while True:
        outside = sorted({rows[rows[g][m]][inv[g]] for g in gens for m in sub.generators}
                         - set(sub.members))
        if not outside:
            break
        sub = subgroup_generated(parent, sub.generators + tuple(outside))
    return sub


def conjugacy_class(G: FiniteGroup, f: int) -> frozenset[int]:
    """The conjugacy class {g f g^-1 : g in G} as a set of element indices."""
    classes, class_of = G.class_map
    return classes[class_of[f]]


def conjugacy_classes(G: FiniteGroup) -> list[frozenset[int]]:
    """All conjugacy classes, ordered by minimal member index."""
    return list(G.class_map.classes)


def center_order(G: FiniteGroup) -> int:
    """|Z(G)|: the center is the union of the one-element classes."""
    return sum(len(cls) == 1 for cls in G.class_map.classes)


class GroupFingerprint(NamedTuple):
    """Cheap isomorphism invariants used to gate bundled data files."""

    order: int
    element_orders: tuple[tuple[int, int], ...]   # (order, multiplicity), sorted
    abelianization: tuple[int, ...]               # elementary divisors, ascending
    derived_series: tuple[int, ...]               # orders, starting at |G|
    center_order: int
    class_count: int

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "element_orders": [list(p) for p in self.element_orders],
            "abelianization": list(self.abelianization),
            "derived_series": list(self.derived_series),
            "center_order": self.center_order,
            "class_count": self.class_count,
        }

    @staticmethod
    def from_dict(d: dict) -> "GroupFingerprint":
        """Read the group-file form; every value must be a JSON integer."""
        return GroupFingerprint(
            order=_json_int(d["order"]),
            element_orders=tuple((_json_int(a), _json_int(b)) for a, b in d["element_orders"]),
            abelianization=tuple(map(_json_int, d["abelianization"])),
            derived_series=tuple(map(_json_int, d["derived_series"])),
            center_order=_json_int(d["center_order"]),
            class_count=_json_int(d["class_count"]),
        )


def _json_int(x) -> int:
    # int() would also take 2.0, "2" and true.
    if type(x) is not int:
        raise InputParseError(f"fingerprint values must be integers, got {x!r}")
    return x


def _quotient_table(rows: Sequence[Sequence[int]], normal: Iterable[int]) -> list[list[int]]:
    """Multiplication table of G/N, given G's table and the members of a normal
    subgroup N, with cosets numbered by minimal representative."""
    coset_of = [-1] * len(rows)
    reps = []
    for i, row in enumerate(rows):
        if coset_of[i] < 0:
            for d in normal:
                coset_of[row[d]] = len(reps)
            reps.append(i)
    return [[coset_of[rows[a][b]] for b in reps] for a in reps]


def _element_orders(mul_table: Sequence[Sequence[int]]) -> list[int]:
    """The order of each element of a group given by its multiplication
    table, identity first: the count of powers up to the identity."""
    orders = []
    for i in range(len(mul_table)):
        k, acc = 1, i
        while acc != 0:
            acc = mul_table[acc][i]
            k += 1
        orders.append(k)
    return orders


def _abelian_invariant_factors(mul_table: list[list[int]]) -> list[int]:
    """Invariant factors of a finite abelian group given by a multiplication table."""
    factors = []
    while len(mul_table) > 1:
        orders = _element_orders(mul_table)
        m = max(orders)
        factors.append(m)
        gen = orders.index(m)
        cyclic, acc = [0], gen
        while acc != 0:
            cyclic.append(acc)
            acc = mul_table[acc][gen]
        mul_table = _quotient_table(mul_table, cyclic)
    return factors


def _elementary_divisors(invariant_factors: Sequence[int]) -> tuple[int, ...]:
    out = []
    for f in invariant_factors:
        m = f
        d = 2
        while d * d <= m:
            if m % d == 0:
                q = 1
                while m % d == 0:
                    q *= d
                    m //= d
                out.append(q)
            d += 1
        if m > 1:
            out.append(m)
    return tuple(sorted(out))


def fingerprint(G: FiniteGroup) -> GroupFingerprint:
    """Deterministic invariant bundle (order histogram, abelianization, ...)."""
    hist: dict[int, int] = {}
    for o in G.orders:
        hist[o] = hist.get(o, 0) + 1

    series = [G.order, *map(len, G.derived_series)]
    if series[-1] == series[-2]:  # an unchanged last term
        series.pop()
    invf = _abelian_invariant_factors(_quotient_table(G.rows, G.derived_series[0]))

    return GroupFingerprint(
        order=G.order,
        element_orders=tuple(sorted(hist.items())),
        abelianization=_elementary_divisors(invf),
        derived_series=tuple(series),
        center_order=center_order(G),
        class_count=len(conjugacy_classes(G)),
    )
