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

from .graph import _BLOCK, Graph, component_labels
# intercepted_pairs checks admissibility in its own pass; check_admissible
# stays importable here because perfbench/tracing.py patches this name
from .strategy import (Strategy, _closed_form_pass,  # noqa: F401
                       check_admissible, honest_strategy)


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
    admissibility in the same closed-form pass (ValueError at the first
    target whose routing graph traps a node).  Memory: one n x n bool
    (n^2 bytes) plus the pass's O(n * block) arrays."""
    comp = component_labels(g)
    sizes = np.bincount(comp)
    # intercept[t, s]: direction s -> t intercepted; only ever set on
    # same-component, off-diagonal entries
    intercept = np.zeros((g.n, g.n), np.bool_)
    for T, icept, violation in _closed_form_pass(g, strat, comp):
        if violation:
            pair, trapped = violation
            raise ValueError(
                f"strategy is inadmissible: pair {pair} "
                f"has no corresponding path (trapped nodes {trapped})"
            )
        intercept[T] = icept
    # both directions intercepted, counted once per ordered pair, by blocks
    # of rows so that no second n x n array is made
    both = sum(int((intercept[lo:lo + _BLOCK] & intercept[:, lo:lo + _BLOCK].T).sum())
               for lo in range(0, g.n, _BLOCK))
    counts = None
    if per_target:
        row = intercept.sum(axis=1)
        counts = {t: (int(row[t]), int(sizes[comp[t]]) - 1) for t in range(g.n)}
    total_ordered = int((sizes * (sizes - 1)).sum())
    return InterceptionResult(
        total_ordered=total_ordered,
        intercepted_ordered=int(intercept.sum()),
        total_unordered=total_ordered // 2,
        intercepted_unordered=both // 2,
        per_target_counts=counts,
    )


def coverage_function(g: Graph, S) -> Fraction:
    """Honest-strategy interception fraction for colluder set S, the ordered
    fraction of intercepted_pairs(g, honest_strategy(g, S)).  With everyone
    honest the routing graph toward t is the shortest-path predecessor DAG,
    so s -> t is intercepted exactly when every shortest path crosses S:
    d_G(s, t) < d_{G-S}(s, t), with every edge touching S deleted."""
    return intercepted_pairs(g, honest_strategy(g, S)).fraction_ordered
