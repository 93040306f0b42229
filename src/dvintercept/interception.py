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
from typing import NamedTuple

import numpy as np

from .graph import _BLOCK, Graph, _memoized, _slot, component_labels
# intercepted_pairs checks admissibility in its own pass; check_admissible
# stays importable here because perfbench/tracing.py patches this name
from .strategy import Strategy, _closed_form_pass, check_admissible  # noqa: F401


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
    first target whose routing graph traps a node).

    The completed count is held in the slot of the colluder set
    (`graph._memoized`, key "count"), so a later count on the same graph
    and set whose `Strategy.validate` arrays equal the held ones, entry for
    entry, runs no pass: a `separated` and an `adjacent` strategy of one
    set, built from the same held arrays, are counted once.  The slot holds
    the last count only, and nothing for a strategy that fails validation
    or the check, which therefore raises again on every call.  A count that
    finds another strategy held pays one compare of the k x n arrays.

    Memory: the intercept matrix packed eight entries to a byte (n^2/8
    bytes), the pass's O(n * block) arrays, one byte per entry while every
    offer is below 127, for one block at a time, or up to threads + 1 where
    a block is large enough for the pool (`graph._map_blocks`), and the
    distances in G - S that the graph holds for the colluder set (n^2 bytes
    while they fit in one byte; see `graph.distance_blocks`).  The held
    count is about 10 bytes per colluder and target (the int64 broadcasts
    and the hops, narrowed) and 1 or 2 per target (the per-target counts)."""
    comp = component_labels(g)
    sizes = np.bincount(comp)
    arrays = C, b, hop = strat.validate(g)
    slot = _slot(g, C)
    if "count" in slot and not (np.array_equal(slot["count"].b, b)
                                and np.array_equal(slot["count"].hop, hop)):
        del slot["count"]
    held = _memoized(g, C, "count", lambda: _count(g, arrays, comp))
    counts = None
    if per_target:
        counts = {t: (int(held.row[t]), int(sizes[comp[t]]) - 1)
                  for t in range(g.n)}
    total_ordered = int((sizes * (sizes - 1)).sum())
    return InterceptionResult(
        total_ordered=total_ordered,
        intercepted_ordered=int(held.row.sum(dtype=np.int64)),
        total_unordered=total_ordered // 2,
        intercepted_unordered=int(held.both),
        per_target_counts=counts,
    )


class _HeldCount(NamedTuple):
    """A completed count as the slot holds it (`intercepted_pairs`)."""

    b: np.ndarray  # the validated broadcasts, int64
    hop: np.ndarray  # the validated hops, narrowed
    row: np.ndarray  # per target, the sources intercepted toward it
    both: np.ndarray  # unordered pairs intercepted both ways, 0-d


def _count(g: Graph, arrays, comp) -> _HeldCount:
    """The count of the validated `arrays` = (C, b, hop) in one closed-form
    pass, as the slot holds it.  The broadcasts are held as they are: a
    valid one may be any integer of at least 1, so narrowing them would
    take a scan and a remap of INF, 2-4 % of a warm count at k = 18 and
    n = 250, while `Strategy.validate` hands out a new array that no one
    else holds.  Hops lie in [-1, n), and per-target counts in [0, n), so
    both are narrowed by n alone."""
    _, b, hop = arrays
    hop = hop.astype(np.min_scalar_type(-g.n))
    # bit s of packed row t: direction s -> t intercepted; only ever set on
    # same-component, off-diagonal entries
    packed = np.zeros((g.n, (g.n + 7) // 8), np.uint8)
    row = np.zeros(g.n, np.min_scalar_type(g.n))
    both = 0
    for T, icept in _closed_form_pass(g, arrays, comp):
        lo = int(T[0])
        packed[T] = np.packbits(icept, axis=1)
        # a sum in the narrowest dtype that holds n, several times faster
        # than a per-row count_nonzero
        row[T] = icept.sum(axis=1, dtype=row.dtype)
        # both directions intercepted, by square tiles of this block's rows
        # and the columns of every block a up to it, each against block a's
        # rows unpacked at this block's columns (_BLOCK is a multiple of 8,
        # so those are whole bytes); counted while the next blocks' passes
        # run
        for a in range(0, lo + 1, _BLOCK):
            tile = np.count_nonzero(icept[:, a:a + _BLOCK]
                                    & _unpack(packed[a:a + _BLOCK], lo, g.n).T)
            both += tile if a == lo else 2 * tile
    return _HeldCount(b, hop, row, np.array(both // 2))


def _unpack(packed, lo: int, n: int):
    """The bool columns lo to lo + _BLOCK (at most n) of the packed rows."""
    return np.unpackbits(packed[:, lo // 8:(lo + _BLOCK) // 8], axis=1,
                         count=min(_BLOCK, n - lo)).view(np.bool_)

