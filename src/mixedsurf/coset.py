"""Coset enumeration over the trivial subgroup (HLT strategy).

The enumerator scans every relator at every live coset, defining cosets as
needed and processing coincidences immediately.  Coset numbering follows
first definition, so the resulting permutation representation (the right
regular representation on the cosets of the trivial subgroup) is fully
deterministic.  Enumeration stops with :class:`BudgetExceeded` once the
number of cosets ever defined passes ``max_cosets``; this is reported
distinctly from syntax errors, since it usually means the presented group
is infinite or the budget is too small.
"""

from __future__ import annotations

from collections import deque

from .errors import BudgetExceeded, IntegrityError, ValidationError
from .perm import FiniteGroup, Permutation, closure
from .words import Presentation, Word

DEFAULT_COSET_BUDGET = 10**5


def _relator_columns(word: Word, column_of: dict[str, int]) -> list[int]:
    cols = []
    for sym, exp in word:
        col = column_of[sym]
        cols.extend([col if exp > 0 else col ^ 1] * abs(exp))
    return cols


class _Table:
    def __init__(self, ncols: int, budget: int):
        self.table: list[list[int | None]] = [[None] * ncols]
        self.p = [0]
        self.ncols = ncols
        self.budget = budget

    def define(self, alpha: int, x: int) -> int:
        if len(self.table) >= self.budget:
            raise BudgetExceeded(
                f"coset enumeration exceeded the budget of {self.budget} cosets")
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.table[alpha][x] = beta
        self.table[beta][x ^ 1] = alpha
        return beta

    def rep(self, k: int) -> int:
        # Union-find with path compression; representatives are minimal.
        lam = k
        while self.p[lam] != lam:
            lam = self.p[lam]
        while self.p[k] != lam:
            self.p[k], k = lam, self.p[k]
        return lam

    def merge(self, k: int, lam: int, queue: deque):
        k, lam = self.rep(k), self.rep(lam)
        if k != lam:
            mu, nu = min(k, lam), max(k, lam)
            self.p[nu] = mu
            queue.append(nu)

    def coincidence(self, alpha: int, beta: int):
        queue: deque = deque()
        self.merge(alpha, beta, queue)
        while queue:
            gamma = queue.popleft()
            for x in range(self.ncols):
                delta = self.table[gamma][x]
                if delta is None:
                    continue
                self.table[delta][x ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][x] is not None:
                    self.merge(nu, self.table[mu][x], queue)
                elif self.table[nu][x ^ 1] is not None:
                    self.merge(mu, self.table[nu][x ^ 1], queue)
                else:
                    self.table[mu][x] = nu
                    self.table[nu][x ^ 1] = mu

    def scan_and_fill(self, alpha: int, cols: list[int]):
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][cols[j] ^ 1] is not None:
                b = self.table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # Deduction: one gap closes the scan.
                self.table[f][cols[i]] = b
                self.table[b][cols[i] ^ 1] = f
                return
            self.define(f, cols[i])

    def is_live(self, alpha: int) -> bool:
        return self.p[alpha] == alpha


def todd_coxeter(pres: Presentation, max_cosets: int = DEFAULT_COSET_BUDGET) -> FiniteGroup:
    """Enumerate the presented group on the cosets of the trivial subgroup.

    Returns the right regular permutation representation as a
    :class:`FiniteGroup` whose generators correspond to the presentation's
    generators in order.  The group order equals the number of surviving
    cosets.
    """
    if max_cosets < 1:
        raise ValidationError("max_cosets must be at least 1")
    column_of = {sym: 2 * i for i, sym in enumerate(pres.generators)}
    relators = [_relator_columns(w, column_of) for w in pres.relators if w]
    tbl = _Table(2 * len(pres.generators), max_cosets)

    alpha = 0
    while alpha < len(tbl.table):
        if tbl.is_live(alpha):
            for cols in relators:
                tbl.scan_and_fill(alpha, cols)
                if not tbl.is_live(alpha):
                    break
            if tbl.is_live(alpha):
                for x in range(tbl.ncols):
                    if tbl.table[alpha][x] is None:
                        tbl.define(alpha, x)
        alpha += 1

    live = [a for a in range(len(tbl.table)) if tbl.is_live(a)]
    renum = {a: i for i, a in enumerate(live)}

    # Paranoia pass: the completed table must close every relator scan and
    # every column must be a bijection of the live cosets.
    for a in live:
        for cols in relators:
            c = a
            for x in cols:
                c = tbl.table[c][x]
                if c is None:
                    raise IntegrityError("incomplete coset table after enumeration")
            if c != a:
                raise IntegrityError("relator scan does not close on the final table")

    perms = []
    for i in range(len(pres.generators)):
        images = tuple(renum[tbl.table[a][2 * i]] + 1 for a in live)
        perms.append(Permutation(images))

    # The group is transitive on the live cosets, so its order is a multiple
    # of their number; a larger one exceeds the budget and raises.
    return closure(perms, budget=len(live) + 1)
