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
# intercepted_pairs checks admissibility in its own pass; check_admissible
# stays importable here because perfbench/tracing.py patches this name
from .strategy import Strategy, _target_pass, check_admissible  # noqa: F401


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


def intercepted_pairs(g: Graph, strat: Strategy, *,
                      per_target: bool = False) -> InterceptionResult:
    """Count intercepted pairs under the given strategy, checking its
    admissibility in the same per-target pass (ValueError at the first target
    whose routing graph traps a node).  Memory: one n x n bool (n^2 bytes),
    doubled for a moment by the unordered count."""
    comp = component_labels(g)
    sizes = np.bincount(comp)
    smask = np.zeros(g.n, np.bool_)
    smask[list(strat.colluders)] = True
    # intercept[s, t]: direction s -> t intercepted; only ever set on
    # same-component, off-diagonal entries
    intercept = np.zeros((g.n, g.n), np.bool_)
    counts: dict[int, tuple[int, int]] = {}
    for t, col, hops, trapped in _target_pass(g, strat):
        if trapped.size:
            raise ValueError(
                f"strategy is inadmissible: pair {(int(trapped[0]), t)} "
                f"has no corresponding path (trapped nodes {trapped.tolist()})"
            )
        members = comp == comp[t]
        members[t] = False
        if smask[t]:
            icol = members
        else:
            reached = kernels.reach(g.indptr, g.indices, col, t, smask, hops,
                                    banned=smask)
            icol = members & (smask | ~reached)
        intercept[:, t] = icol
        if per_target:
            counts[t] = (int(icol.sum()), int(sizes[comp[t]]) - 1)
    total_ordered = int((sizes * (sizes - 1)).sum())
    return InterceptionResult(
        total_ordered=total_ordered,
        intercepted_ordered=int(intercept.sum()),
        total_unordered=total_ordered // 2,
        intercepted_unordered=int((intercept & intercept.T).sum()) // 2,
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
