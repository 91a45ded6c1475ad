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
:func:`closure` only finds the elements and their left steps, on one of two
paths that the input alone selects.  A regular group, as every bundled
group file and Todd-Coxeter's output are, is closed by a centralizer
certificate, :func:`_regular_steps`: a walk of the points from point 1 by
the generators, and each generator's left step built along it, point by
point.  When every left step commutes with every generator the group is
regular (the proof is in ``_regular_steps``), element x is the point 1^x,
and no image tuple is composed.  It is tried only when there are no more
generators k than points n, so its n * k^2 point reads never exceed the
search's n^2 * k.  Any other group is closed by :func:`_search`, which
composes raw image tuples and keeps none of them once it returns: it reads
its list of images as a queue, makes each left product g * e by one
C-level gather and records every element's left step under each
generator, in the order it finds them.  One walk numbers every group,
:func:`_number`: breadth first along the left steps, each layer sorted by
image tuple, or by a key that sorts the same (below), before it is
numbered.  One integer pass along that search tree, :func:`_right_steps`,
follows the right steps e * g to the BFS parents; the group keeps them.

``_search`` is the only code that composes image tuples.  A subgroup of a
realized group is found on the parent's rows instead:
:func:`subgroup_as_group` hands ``_number`` the parent's rows at the
subgroup's generators and the parent's prefix keys, so it gives closure's
group to the last index.  ``_number`` finds each member as a parent index,
and the realization keeps these as ``FiniteGroup.positions``: element i of
the subgroup is element ``positions[i]`` of the parent, with no lookup.
:func:`subgroup_generated`, the span of a few element indices, stops as
soon as it holds more than half of the group: by Lagrange's theorem it is
then the whole group.

While it searches, :func:`_search` tells products apart by a prefix key,
the images of the first ``width`` points, in the sense of a base (Holt,
Eick and O'Brien, *Handbook of Computational Group Theory*): a group that
acts semiregularly, as every group of the pipeline does, is told apart by
the image of point 1, so its key is a one-item tuple, not ``degree`` ints
to hash; a certified regular group's keys are that one point.  Another
permutation can share a key, so every hit is compared with the stored
images in full.  When two distinct elements share one, the key is widened
to at least twice its width and past their first differing point (to the
whole tuple once that is more than half of it), and the search's index is
rebuilt; the width only grows, up to the degree, so that happens at most
ceil(log2(degree)) times.  When the search ends the keys are distinct, so
they order the elements as their full image tuples do: the group keeps
them, and nothing else of the images, for its realizations' layer sort.
Nothing looks a permutation up.

A group holds at most its index-level Cayley table, in one row store of
``order`` slots, each a packed row or empty.  A row is built on its first
read by the one kernel :func:`_build_rows`: the row of x * s is x's row
read through s's row, one gather over x's row held as a tuple of shared
ints, so no entry is boxed, then one ``struct`` pack into a two-byte array.
It runs along the BFS parents, e_i == e_p * g_c, for one row
(:meth:`FiniteGroup.row`, with its missing ancestors) or for the whole
table (``FiniteGroup.rows``), and along another group's tree mapped into
this one (:meth:`FiniteGroup.rows_at`).  Only a scan of every product
needs the whole table, as the vector search and ``make_data.py`` do.
Every other reader multiplies on the left by a few known elements, its
product rewritten by an identity stated in its docstring: a word is
evaluated right to left, a span and a homomorphism walk by left products,
a conjugate is g (g x^-1)^-1, a commutator a (b (a^-1 b^-1)), and a
quotient reads its coset representatives' rows.  ``FiniteGroup.inverses``
follow the BFS parents, e_i^-1 == g^-1 * e_p^-1; ``FiniteGroup.class_map``
conjugates by a left step and an inverse right step and reads no row; the
``FiniteGroup.orders`` walk the powers of each class's least member on
its row; and ``FiniteGroup.derived_series`` is the one walk of the
derived series.  Downstream code reads these index arrays and never
composes image arrays in inner loops.

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
while it is searched, at most its whole Cayley table after.
:func:`closure_limit` turns it into an element count, at most 2,048.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cached_property
from math import isqrt, lcm
from operator import itemgetter
from struct import Struct
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, InputParseError, ValidationError

# The most cells a group may hold: order times the larger of order and
# degree.  closure's search holds each element as a tuple of `degree` images,
# 8 bytes each, and the group then holds at most its Cayley table, order^2
# two-byte indices, once every row is read.
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
    parents, the left and right steps of its generators and each element's
    prefix key.  It holds at most its Cayley table: one row store of
    ``order`` slots, each a packed row or empty, filled on first read: by
    :meth:`row` one row at a time, by :meth:`rows_at` several at once, along
    this group's tree or another's, or whole by ``rows``.  The
    ``inverses``, the element ``orders``, the conjugacy ``class_map`` and
    the ``derived_series`` are built on their first read and read only the
    rows of a few known elements; ``mul``/``inv``/``conj``/``order_of`` are
    one-line reads.  A group built
    by :func:`closure` keeps its ``generators``.  A group realized by
    :func:`subgroup_as_group` keeps none, ``()``, and has ``positions``
    instead, the parent's index of each element.
    """

    def __init__(self, degree: int, generators: tuple[Permutation, ...],
                 parents: tuple[tuple[int, int], ...], left_step: list[array],
                 right_step: list[array], keys: Sequence,
                 positions: tuple[int, ...] | None = None):
        self.degree = degree
        self.generators = generators
        # parents[i] = (j, c) with e_i == e_j * g_c, g_c the c-th generator;
        # parents[0] is (-1, -1) for the identity.
        self._parents = parents
        self._left_step = left_step  # left_step[c][k] = index(g_c * e_k)
        self._right_step = right_step  # right_step[c][k] = index(e_k * g_c)
        self.generator_indices = tuple(step[0] for step in left_step)  # g_c * e_0 == g_c
        # keys[i] sorts as e_i's image tuple does, among this group's
        # elements: a distinct prefix of it (see closure).
        self._keys = keys
        # For a realized subgroup, positions[i] is the parent's index of
        # e_i: plain ints, no reference to the parent.  None for a group
        # built by closure.
        self.positions = positions
        # The row store: _rows[i] is e_i's Cayley row once it is built.
        self._rows: list[array | None] = [None] * len(parents)
        self._rows[0] = array("H", range(len(parents)))
        # Values derived from this group by key, and the hashes of the keys
        # requested once (see `keep`).
        self._kept: dict = {}
        self._noted: set[int] = set()

    @property
    def order(self) -> int:
        return len(self._parents)

    def row(self, i: int) -> array:
        """The Cayley row of e_i: ``row(i)[j]`` is the index of e_i * e_j,
        built by :meth:`rows_at` on its first read."""
        row = self._rows[i]
        return row if row is not None else self.rows_at((i,))[0]

    @cached_property
    def rows(self) -> list[array]:
        """The whole Cayley table: ``rows[i]`` is :meth:`row` ``(i)``.

        Every slot of the row store is filled.  Only a scan of every
        element's products needs it, as the vector search and
        ``make_data.py`` do; everything else reads the rows of a few known
        elements.
        """
        rows, parents = self._rows, self._parents
        _build_rows(rows, self._gathers, self.generator_indices,
                    [(k, *parents[k]) for k in range(1, self.order) if rows[k] is None])
        return rows

    @cached_property
    def _gathers(self) -> list[itemgetter]:
        """Reads a row through each generator's left steps (see :func:`_build_rows`)."""
        return [itemgetter(*step) for step in self._left_step]

    def rows_at(self, elements: Sequence[int], tree: "FiniteGroup | None" = None,
                images: Sequence[int] = ()) -> list[array]:
        """The rows of ``elements``; the missing ones are built first, in one walk.

        With no ``tree``, the walk builds the missing rows of ``elements``
        and of their BFS ancestors, each from its parent's: e_i == e_p * g_c,
        so row i is row p read through the left steps of g_c.

        With a ``tree``, ``images[c]`` is the element of this group that
        ``tree``'s generator c maps to, and the walk follows ``tree``'s BFS
        tree: tree element e_k == e_p * g_c maps to x_k == x_p * images[c],
        whose row is x_p's row read through the row of images[c].  That is
        one gather per row not built yet, |tree| at most.  Each x_k is read
        off x_p's row, so every row built is right whatever ``images`` are.
        When they extend to a homomorphism whose image holds ``elements``,
        the walk builds only the image's rows, besides those of ``images``
        and their BFS ancestors; a row the walk misses is built as above.
        """
        rows = self._rows
        found = [rows[x] for x in elements]
        if all(found):  # a built row is never empty
            return found
        if tree is None:
            parents, missing = self._parents, set()
            for i in elements:
                while rows[i] is None and i not in missing:
                    missing.add(i)
                    i = parents[i][0]
            _build_rows(rows, self._gathers, self.generator_indices,
                        [(k, *parents[k]) for k in sorted(missing)])
        else:
            _build_rows(rows, [itemgetter(*self.row(x)) for x in images], images,
                        [(k, *p) for k, p in enumerate(tree._parents[1:], 1)])
        return [self.row(x) for x in elements]

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
        """``orders[i]`` is the order of e_i.

        Conjugates have one order, so the powers of each class's least
        member are walked on that member's row, r^(k+1) == r * r^k, and the
        count is spread over the class by ``class_of``.
        """
        classes, class_of = self.class_map
        reps = [min(cls) for cls in classes]
        by_class = []
        for r, row in zip(reps, self.rows_at(reps)):
            k, acc = 1, r
            while acc:
                acc = row[acc]
                k += 1
            by_class.append(k)
        return list(map(by_class.__getitem__, class_of))

    @cached_property
    def class_map(self) -> ClassMap:
        """The conjugacy classes, ordered by least member, and each element's
        class index: one breadth-first walk per class, by conjugation with
        the generators, started from the least element not in a class yet.

        g x g^-1 is x's left step by g, then the inverse of the right step
        by g: back_right[c][k] = index(e_k * generators[c]^-1).  No row is read.
        """
        n = self.order
        conjugations = []
        for left, right in zip(self._left_step, self._right_step):
            back_right = sorted(range(n), key=right.__getitem__)
            conjugations.append(array("i", map(back_right.__getitem__, left)))
        class_of = array("i", [-1]) * n
        classes = []
        for f in range(n):
            if class_of[f] >= 0:
                continue
            k = len(classes)
            class_of[f] = k
            members = [f]
            for x in members:  # the list grows while it is read: a BFS queue
                for conj in conjugations:
                    y = conj[x]
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
        """Index of e_i * e_j: a read of e_i's row."""
        return self.row(i)[j]

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def conj(self, g: int, x: int) -> int:
        """Index of g * x * g^-1, read as g * (g * x^-1)^-1: g's row only."""
        row, inv = self.row(g), self.inverses
        return row[inv[row[inv[x]]]]

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


def _build_rows(rows: list, gathers: Sequence[itemgetter], picks: Sequence[int],
                edges: Sequence[tuple[int, int, int]]) -> None:
    """Fill empty slots of the row store ``rows`` along a tree: the one
    function that builds Cayley rows.

    ``gathers[c]`` reads a sequence at the row of the element s_c ==
    ``picks[c]`` (a generator's left steps are its row).  Each edge
    (k, p, c) makes tree node k the element x_k == x_p * s_c; it comes
    after the edge that reaches p, if one does.  A node that no edge
    reaches is the element of its own number, with its row built: the
    identity at the root, or a built ancestor.  Then row(x_k)[j] ==
    x_p * (s_c * e_j), x_p's row read through s_c's row: one C-level gather
    over x_p's row held as a tuple, so no entry is boxed, and one
    ``struct`` pack into a two-byte array (the array constructor would
    convert the row one item at a time).  x_k itself is read off x_p's row.
    A slot already filled is not built again, and a node's tuple is dropped
    once its last child is read.
    """
    pack = Struct(f"{len(rows)}H").pack
    last_child = {p: k for k, p, _ in edges}
    at: dict[int, int] = {}  # node -> its element, for the nodes an edge reaches
    live: dict[int, tuple[int, ...]] = {}  # node -> its row as a tuple
    for k, p, c in edges:
        above = live.get(p)
        if above is None:
            above = live[p] = tuple(rows[at.get(p, p)])
        if last_child[p] == k:
            del live[p]
        x = at[k] = above[picks[c]]
        if rows[x] is None:
            row = gathers[c](above)
            rows[x] = array("H", pack(*row))
            if k in last_child:
                live[k] = row


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

    A regular group is closed by :func:`_regular_steps`, a certificate read
    off the generators' images, and composes no image tuple; every bundled
    group file and Todd-Coxeter's output are regular.  It is tried only when
    there are no more generators than points: a regular group of degree n
    has n elements, and with k <= n generators the certificate's n * k^2
    point reads never exceed the n^2 * k image reads of the search.  Any
    other group, or one whose certificate fails, is closed by
    :func:`_search`.  Either way one call to :func:`_number` numbers the
    group from its left steps and keys, and the two paths give the same
    group to the last index: the elements of a regular group differ at
    point 1, so their one-point keys sort as their image tuples do.
    """
    gens = tuple(generators)
    if not gens:
        raise ValidationError("at least one generator is required")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValidationError("generators have mismatched degrees")
    limit = closure_limit(degree)
    budget = limit if budget is None else min(budget, limit)

    steps = _regular_steps(gens) if len(gens) <= degree else None
    if steps is None:
        steps, keys, width = _search(gens, budget)
    elif degree > budget:
        raise _over_budget(budget)
    else:
        # Element p maps point 1 to p + 1, its one-point key.
        keys, width = [(p,) for p in range(1, degree + 1)], 1
    parents, left_step, right_step, found = _number(steps, keys)
    return FiniteGroup(degree, gens, parents, left_step, right_step,
                       [keys[x][:width] for x in found])


def _over_budget(budget: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"group closure exceeded the element budget of {budget} "
        f"(order times the larger of order and degree is at most {MAX_CLOSURE_CELLS})")


def _regular_steps(gens: tuple[Permutation, ...]) -> list[list[int]] | None:
    """The left steps of a regular group, element x numbered 0^x, or None.

    With points 0..n-1 and the right action q^t, a breadth-first walk from
    point 0 by the generators gives a Schreier tree; a point it misses makes
    the group intransitive, and None.  For each generator s, lambda_s is
    built along the tree: lambda_s(0) = 0^s and lambda_s(q^t) =
    lambda_s(q)^t on each tree edge.  The certificate is that
    lambda_s(q^t) == lambda_s(q)^t for every point q and generator t, one
    list compare per (s, t); the first failure gives None.

    Why it is sound: the check says that lambda_s commutes with every
    generator, and so with every g in G.  Take g in G_0, the stabilizer of
    0.  Then lambda_s(0)^g == lambda_s(0^g) == lambda_s(0), so G_0 <=
    G_{0^s} == s^-1 G_0 s.  The two have the same order, so each generator
    normalizes G_0, and G_0 is normal in G.  G is transitive, so every
    point stabilizer is a conjugate of G_0, that is G_0 itself, and G_0
    fixes every point: G_0 == 1 (the centralizer of a transitive group is
    semiregular; Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*).  So |G| == n and element x is the point 0^x.  Along the tree
    lambda_s(0^x) is 0^(s x), by induction from 0^s, so lambda_s is the
    left step of s.
    """
    n = gens[0].degree
    right = [[x - 1 for x in g.images] for g in gens]  # right[t][q] == q^t
    seen = bytearray(n)
    seen[0] = 1
    points, edges = [0], []  # edges: (q, q^t, t), each point's tree edge
    for q in points:  # the list grows while it is read: a BFS queue
        for t, image in enumerate(right):
            r = image[q]
            if not seen[r]:
                seen[r] = 1
                points.append(r)
                edges.append((q, r, t))
    if len(points) < n:
        return None
    steps = []
    for s in right:
        lam = [0] * n
        lam[0] = s[0]
        for q, r, t in edges:
            lam[r] = right[t][lam[q]]
        for t in right:
            if list(map(lam.__getitem__, t)) != list(map(t.__getitem__, lam)):
                return None
        steps.append(lam)
    return steps


def _search(gens: tuple[Permutation, ...], budget: int
            ) -> tuple[list[array], list[tuple[int, ...]], int]:
    """Find the elements of any group by left products of image tuples.

    Returns the left steps in the order the elements are found, their image
    tuples and the final key width.  The search reads its list of images as
    a queue, multiplies each one by every generator on the left, one gather
    per product, and records the left steps in the order it finds them.
    The products of k generators and no fewer are the same set on either
    side, so :func:`_number` numbers the group from those steps alone.

    Products are looked up by the key ``images[:width]``, starting from
    width 1.  A hit is compared in full with the stored tuple, since a
    prefix does not determine a permutation; at full width the key is the
    whole tuple and the compare is skipped.  Two distinct tuples with one
    key widen it with :func:`_wider` to at least double, past their first
    differing point (to the whole tuple once that is more than half of it),
    and the index is rebuilt.  The stored keys stay distinct, since a longer
    prefix refines them, and the width is at most the degree, so the index
    is rebuilt at most ceil(log2(degree)) times.  The index is a local of
    the search: the group keeps none.  ``_number`` sorts each layer by the
    image tuples; the group keeps only the final keys, which sort the same
    way, and drops the images.
    """
    degree = gens[0].degree
    # (g * e).images is e read at g's images, one C-level gather.  In degree
    # 0 and 1 every permutation is the identity, and itemgetter would take
    # no index or return a bare item instead of a tuple.
    gathers = [itemgetter(*[x - 1 for x in g.images]) if degree > 1 else tuple
               for g in gens]
    ident = tuple(range(1, degree + 1))
    images: list[tuple[int, ...]] = [ident]
    width = min(1, degree)
    index: dict[tuple[int, ...], int] = {ident[:width]: 0}  # images[i][:width] -> i
    steps = [array("i") for _ in gens]  # steps[a][k] = index(g_a * e_k), in discovery order
    for e in images:  # the list grows while it is read: a BFS queue
        for gather, step in zip(gathers, steps):
            prod = gather(e)
            key = prod[:width]
            j = index.get(key)
            # A hit is the same element only if all its images agree; at full
            # width the key is the whole tuple.  On a collision the wider key
            # is new: the stored keys are distinct, so only images[j] shared
            # prod's narrower one.
            if j is not None and width < degree and images[j] != prod:
                width = _wider(width, prod, images[j])
                index = {im[:width]: i for i, im in enumerate(images)}
                key, j = prod[:width], None
            if j is None:
                if len(images) >= budget:
                    raise _over_budget(budget)
                j = index[key] = len(images)
                images.append(prod)
            step.append(j)
    return steps, images, width


def _number(gen_steps: Sequence[Sequence[int]], keys: Sequence
            ) -> tuple[tuple[tuple[int, int], ...], list[array], list[array], list[int]]:
    """Number the group that left multiplication by ``gen_steps`` generates.

    The elements are given by any numbering with the identity at 0:
    ``gen_steps[a][x]`` is the element g_a * x, and ``keys[x]`` sorts as x's
    image tuple does.  :func:`closure` passes its discovery steps and image
    tuples; a realization passes its generators' parent rows and the
    parent's prefix keys.  Layer k is the set of products of k generators
    and no fewer: the products of layer k - 1 that are not numbered yet,
    each with the first product that found it as its left parent.  It is
    sorted by key and then numbered, and the left steps out of layer k - 1
    are read once it is.  Returns the BFS parents and the right steps, from
    :func:`_right_steps`, the left steps and the given number of each
    element, in the new order.
    """
    number = {0: 0}  # given number -> new number
    members = [0]
    left_parents: list[tuple[int, int]] = [(-1, -1)]  # (p, a) with e_k == g_a * e_p
    left_step = [array("i") for _ in gen_steps]
    layer_ends: list[int] = []
    start = 0
    while start < len(members):
        end = len(members)
        products = [list(map(step.__getitem__, members[start:end])) for step in gen_steps]
        first: dict[int, tuple[int, int]] = {}
        for a, xs in enumerate(products):
            for p, x in enumerate(xs, start):
                if x not in number and x not in first:
                    first[x] = (p, a)
        layer = sorted(first, key=keys.__getitem__)
        number.update(zip(layer, range(end, end + len(layer))))
        members.extend(layer)
        left_parents.extend(map(first.__getitem__, layer))
        for step, xs in zip(left_step, products):
            step.extend(map(number.__getitem__, xs))
        layer_ends.append(end)
        start = end
    parents, right_step = _right_steps(left_parents, left_step, layer_ends)
    return parents, left_step, right_step, members


def _right_steps(left_parents: list[tuple[int, int]], left_step: list[array],
                 layer_ends: list[int]) -> tuple[tuple[tuple[int, int], ...], list[array]]:
    """The BFS parents of a left-product walk, found from its right steps,
    and those right steps: ``right_step[c][k]`` is the index of e_k * g_c.

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
    return tuple(parents), right_step


def _wider(width: int, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """The key width after distinct image tuples a and b shared a width-prefix:
    at least double, and past their first differing point.  A key longer than
    half the tuple is made the whole tuple, which costs no slice copy and no
    compare on a hit."""
    first = next(x for x in range(width, len(a)) if a[x] != b[x])
    wider = max(2 * width, first + 1)
    return wider if 2 * wider <= len(a) else len(a)


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

    A breadth-first walk by left products with the seeds, read from the
    seeds' rows.  Layer k of the walk is the set of products of k seeds and
    no fewer, whichever side they are taken on.  By Lagrange's theorem a
    subgroup with more than half of G's elements is G, so the walk stops
    after the first layer that takes it past |G| // 2 and returns the whole
    group: the same value as the full walk, for fewer lookups.  A subgroup
    of index 2 holds exactly half and is walked to the end.  The seeds are
    element indices of G, as every caller gets them from a word, a search
    or a Cayley table.
    """
    gens = tuple(dict.fromkeys(s for s in seeds if s != 0))
    sub_gens = gens if gens else (0,)
    half = G.order // 2
    members = {0}
    frontier = [0]
    rows = G.rows_at(gens)
    while frontier:
        nxt = []
        for i in frontier:
            for row in rows:
                j = row[i]
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

    :func:`_number` walks the parent's rows at ``generators``, the left
    product g * e being ``parent.row(g)[e]``, and sorts each layer by the parent's prefix
    keys, so the result is ``closure`` of the parent elements at
    ``generators`` to the last index, parent and step.  The parent indices
    it numbers, in the subgroup's order, are kept as ``positions``, and
    their keys are the realization's keys.  It keeps no generators.  The
    walk from a :class:`Subgroup`'s generators gives exactly its members:
    their span, or G when the span was cut short at more than half of G
    (Lagrange).
    """
    keys = parent._keys
    parents, left_step, right_step, members = _number([parent.row(g) for g in generators],
                                                      keys)
    return FiniteGroup(parent.degree, (), parents, left_step, right_step,
                       [keys[x] for x in members], tuple(members))


_NOT_AN_EMBEDDING = "generator matching does not extend to an injective homomorphism"


def extend_homomorphism(src: FiniteGroup, src_gens, dst: FiniteGroup,
                        dst_gens) -> dict[int, int]:
    """The injective homomorphism src_gens[i] -> dst_gens[i] on <src_gens>.

    Walks <src_gens> breadth first by left products, setting img(s x) =
    t img(x) for every generator pair (s, t), so it reads only the rows of
    the generators.  When no element gets two different images this is a
    homomorphism: every y in the span is a positive word w in the
    generators, so img(y x) = img(w) img(x) by induction on w.  Its image is
    then <dst_gens>, and an injective one keeps every element's order.
    Returns the map as a dict on the span.  Raises ValidationError when the
    two lists have different lengths, or the matching is not well defined or
    not injective.
    """
    if len(src_gens) != len(dst_gens):
        raise ValidationError("generator lists have different lengths")
    pairs = tuple(zip(src.rows_at(src_gens), dst.rows_at(dst_gens)))
    img = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            ix = img[x]
            for row_s, row_t in pairs:
                y, iy = row_s[x], row_t[ix]
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
    then normalized by each generator of G and so by G.  Every product is
    a left product by a generator of G or a seed, so only their rows are
    read.
    """
    if isinstance(G, Subgroup):
        parent, gens = G.parent, G.generators
    else:
        parent, gens = G, G.generator_indices
    inv, mul, conj = parent.inverses, parent.mul, parent.conj
    # [a,b] = a b a^-1 b^-1, read as a (b (a^-1 b^-1)): the rows of a, b and
    # a^-1 only.
    sub = subgroup_generated(parent, [mul(a, mul(b, mul(inv[a], inv[b])))
                                      for a in gens for b in gens])
    while True:
        outside = sorted({conj(g, m) for g in gens for m in sub.generators}
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


def _quotient_table(row: Callable[[int], Sequence[int]], order: int,
                    normal: Iterable[int]) -> list[list[int]]:
    """Multiplication table of G/N, given the rows ``row(i)`` of G's order
    elements and the members of a normal subgroup N, with cosets numbered by
    minimal representative.  The coset of a is a N and (a N)(b N) == a b N,
    so only the representatives' rows are read."""
    coset_of = [-1] * order
    reps = []
    for i in range(order):
        if coset_of[i] < 0:
            row_i = row(i)
            for d in normal:
                coset_of[row_i[d]] = len(reps)
            reps.append(i)
    return [[coset_of[row(a)[b]] for b in reps] for a in reps]


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
        mul_table = _quotient_table(mul_table.__getitem__, len(mul_table), cyclic)
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
    invf = _abelian_invariant_factors(_quotient_table(G.row, G.order, G.derived_series[0]))

    return GroupFingerprint(
        order=G.order,
        element_orders=tuple(sorted(hist.items())),
        abelianization=_elementary_divisors(invf),
        derived_series=tuple(series),
        center_order=center_order(G),
        class_count=len(conjugacy_classes(G)),
    )
