"""Worst-case interception: the fraction of node pairs whose every delivery
path crosses a colluder.

A directed pair (s, t) counts intercepted when s cannot reach t in the
per-target routing graph with the colluder set deleted — i.e. no colluder-free
corresponding path exists, so even worst-case tie-breaking routes through the
colluders.  Pairs with an endpoint in the colluder set always count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .graph import Graph, component_labels
from .strategy import Strategy, check_admissible, honest_strategy


@dataclass(frozen=True)
class InterceptionResult:
    """Pair counts under worst-case tie-breaking.

    Ordered counts treat (s, t) and (t, s) separately; an unordered pair is
    intercepted only when both directions are.  Pairs in different components
    are excluded from every denominator.
    """

    total_ordered: int
    intercepted_ordered: int
    total_unordered: int
    intercepted_unordered: int
    per_target_counts: dict[int, tuple[int, int]] | None = None

    @property
    def fraction_ordered(self) -> Fraction:
        return Fraction(self.intercepted_ordered, self.total_ordered) \
            if self.total_ordered else Fraction(0)

    @property
    def fraction_unordered(self) -> Fraction:
        return Fraction(self.intercepted_unordered, self.total_unordered) \
            if self.total_unordered else Fraction(0)

    @property
    def fraction(self) -> Fraction:
        return self.fraction_ordered


def intercepted_pairs(g: Graph, strat: Strategy, *, check: bool = True,
                      per_target: bool = False) -> InterceptionResult:
    """Count intercepted pairs under the given admissible strategy."""
    if check:
        verdict = check_admissible(g, strat)
        if not verdict:
            raise ValueError(
                f"strategy is inadmissible: pair {verdict.violating_pair} "
                f"has no corresponding path (trapped nodes {sorted(verdict.trap_set)})"
            )
    comp = component_labels(g)
    sset = set(strat.colluders)
    smask = np.zeros(g.n, np.bool_)
    smask[list(strat.colluders)] = True
    cmask = smask.copy()
    pinned = np.zeros(g.n, np.int64)
    hops = np.full(g.n, -1, np.int64)
    # intercept[s, t]: direction s -> t intercepted
    intercept = np.zeros((g.n, g.n), np.bool_)
    counts: dict[int, tuple[int, int]] = {}
    for t in range(g.n):
        members = comp == comp[t]
        members[t] = False
        if t in sset:
            icol = members.copy()
        else:
            for v in strat.colluders:
                pinned[v] = strat.broadcast[v][t]
                hops[v] = strat.forward[v][t]
            col, _ = kernels.sync_column(g.indptr, g.indices, pinned, cmask, t)
            reached = kernels.reach(g.indptr, g.indices, col, t, cmask, hops,
                                    banned=smask)
            icol = members & (smask | ~reached)
        intercept[:, t] = icol
        if per_target:
            counts[t] = (int(icol.sum()), int(members.sum()))
    same = comp[:, None] == comp[None, :]
    np.fill_diagonal(same, False)
    total_ordered = int(same.sum())
    intercepted_ordered = int(intercept[same].sum())
    both = intercept & intercept.T
    iu = np.triu_indices(g.n, k=1)
    total_unordered = int(same[iu].sum())
    intercepted_unordered = int((both & same)[iu].sum())
    return InterceptionResult(
        total_ordered=total_ordered,
        intercepted_ordered=intercepted_ordered,
        total_unordered=total_unordered,
        intercepted_unordered=intercepted_unordered,
        per_target_counts=counts if per_target else None,
    )


def coverage_function(g: Graph, S) -> Fraction:
    """Honest-strategy interception fraction for colluder set S.

    Equals intercepted_pairs(g, honest_strategy(g, S)).fraction, computed
    without materializing the strategy: with everyone honest the routing
    graph toward t is the shortest-path predecessor DAG, so a source is
    intercepted exactly when every shortest path to t crosses S.
    """
    S = sorted(set(int(v) for v in S))
    comp = component_labels(g)
    smask = np.zeros(g.n, np.bool_)
    smask[S] = True
    cmask = np.zeros(g.n, np.bool_)
    hops = np.full(g.n, -1, np.int64)
    sset = set(S)
    total = 0
    intercepted = 0
    for t in range(g.n):
        members = comp == comp[t]
        members[t] = False
        msize = int(members.sum())
        total += msize
        if t in sset:
            intercepted += msize
            continue
        col = kernels.bfs(g.indptr, g.indices, t)
        reached = kernels.reach(g.indptr, g.indices, col, t, cmask, hops,
                                banned=smask)
        intercepted += int((members & (smask | ~reached)).sum())
    return Fraction(intercepted, total) if total else Fraction(0)
