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
    admissibility in the same closed-form pass (`InadmissibleError` at the
    first target whose routing graph traps a node).  Memory: the intercept
    matrix packed eight entries to a byte (n^2/8 bytes), the pass's
    O(n * block) arrays, one byte per entry while every offer is below 127,
    for up to threads + 1 blocks at once (`graph._map_blocks`), and the
    distances in G - S that the graph holds for the colluder set (n^2 bytes
    while they fit in one byte; see `graph.distance_blocks`)."""
    comp = component_labels(g)
    sizes = np.bincount(comp)
    # bit s of packed row t: direction s -> t intercepted; only ever set on
    # same-component, off-diagonal entries
    packed = np.zeros((g.n, (g.n + 7) // 8), np.uint8)
    row = np.zeros(g.n, np.int64)
    both = 0
    for T, icept in _closed_form_pass(g, strat, comp):
        b = int(T[0])
        packed[T] = np.packbits(icept, axis=1)
        # a sum in the narrowest dtype that holds n, several times faster
        # than a per-row count_nonzero
        row[T] = icept.sum(axis=1, dtype=np.min_scalar_type(g.n))
        # both directions intercepted, by square tiles of this block's rows
        # and the columns of every block a up to it, each against block a's
        # rows unpacked at this block's columns (_BLOCK is a multiple of 8,
        # so those are whole bytes); counted while the next blocks' passes
        # run
        for a in range(0, b + 1, _BLOCK):
            tile = np.count_nonzero(icept[:, a:a + _BLOCK]
                                    & _unpack(packed[a:a + _BLOCK], b, g.n).T)
            both += tile if a == b else 2 * tile
    counts = None
    if per_target:
        counts = {t: (int(row[t]), int(sizes[comp[t]]) - 1) for t in range(g.n)}
    total_ordered = int((sizes * (sizes - 1)).sum())
    return InterceptionResult(
        total_ordered=total_ordered,
        intercepted_ordered=int(row.sum()),
        total_unordered=total_ordered // 2,
        intercepted_unordered=int(both) // 2,
        per_target_counts=counts,
    )


def _unpack(packed, lo: int, n: int):
    """The bool columns lo to lo + _BLOCK (at most n) of the packed rows."""
    return np.unpackbits(packed[:, lo // 8:(lo + _BLOCK) // 8], axis=1,
                         count=min(_BLOCK, n - lo)).view(np.bool_)


def coverage_function(g: Graph, S) -> Fraction:
    """Honest-strategy interception fraction for colluder set S, the ordered
    fraction of intercepted_pairs(g, honest_strategy(g, S)).  With everyone
    honest the routing graph toward t is the shortest-path predecessor DAG,
    so s -> t is intercepted exactly when every shortest path crosses S:
    d_G(s, t) < d_{G-S}(s, t), with every edge touching S deleted."""
    return intercepted_pairs(g, honest_strategy(g, S)).fraction_ordered
