"""Colluder-set selection: random, top-degree, greedy coverage maximization,
greedy minimum-size coverage, and exhaustive optimum at desk scale.

The greedy objectives score a set by the fraction of shortest paths it
covers (per ordered pair, the covered share of that pair's shortest paths).
This objective is monotone and submodular, so lazy greedy carries the
classic (1 - 1/e) guarantee; the pair-based interception fraction under
per-set optimal lying strategies is *not* submodular and is deliberately not
used as a greedy objective.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .graph import Graph, component_labels, hop_distances, induced_subgraph
from .strategy import BudgetError

_METHODS = ("random", "top_degree", "greedy_max", "greedy_min", "exhaustive")


@dataclass(frozen=True)
class SelectionSpec:
    method: str
    k: int | None = None
    p: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown selection method {self.method!r}")
        if self.method == "greedy_min":
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ValueError("greedy_min requires p in [0, 1]")
        elif self.k is None or self.k < 0:
            raise ValueError(f"method {self.method!r} requires k >= 0")


class _Coverage:
    """`shortest_path_coverage` of a growing prefix S, by successive group
    betweenness (Puzis, Elovici & Dolev, Phys. Rev. E 76, 056709, 2007).

    Per connected component it holds the hop distances D, in the narrowest
    unsigned type that holds twice the diameter, and as float64 the exact
    shortest-path counts sigma and sigma_S, those of the paths with no node
    in S.  Adding v removes the paths through v in O(c^2) on its component:

        sigma_{S+v}(s, t) = sigma_S(s, t)
                            - [d(s, v) + d(v, t) = d(s, t)] sigma_S(s, v) sigma_S(v, t)

    The covered share of a pair is 1 - sigma_S / sigma.  Values are summed as
    the objective's per-target definition sums them, because the greedy's
    exact ties are decided by the last bits: one numpy sum per target over
    the other nodes of its component, in ascending order, then the targets'
    sums one by one in ascending order.
    """

    def __init__(self, g: Graph):
        self._comp = component_labels(g)
        sizes = np.bincount(self._comp)
        self._pairs = int((sizes * (sizes - 1)).sum())
        self._nodes = [np.flatnonzero(self._comp == c) for c in range(sizes.size)]
        self._pos = np.zeros(g.n, np.int64)  # index of a node in its component
        self._dist, self._sigma = [], []
        for nodes in self._nodes:
            self._pos[nodes] = np.arange(nodes.size)
            sub = induced_subgraph(g, nodes)
            a = csr_matrix((np.ones(sub.indices.size), sub.indices, sub.indptr),
                           shape=(nodes.size, nodes.size))
            D = hop_distances(sub, np.arange(nodes.size))
            diameter = int(D.max())
            D = D.astype(np.min_scalar_type(2 * diameter))
            # sigma at distance d is A times sigma at distance d - 1
            sigma = np.eye(nodes.size)
            for d in range(1, diameter + 1):
                layer = D == d
                sigma[layer] = (a @ np.where(D == d - 1, sigma, 0.0))[layer]
            self._dist.append(D)
            self._sigma.append(sigma)
        self._reset()

    def _reset(self):
        self.chosen: set[int] = set()
        # sigma_S blocks are replaced, never written in place, so they can
        # start as sigma's arrays
        self._sigma_s = list(self._sigma)
        # per-target sum of covered shares; all are 0 when S is empty
        self._rows = np.zeros(self._comp.size)

    def _with(self, v: int):
        """(per-target sums, sigma_S block of v's component) for S + v."""
        if not 0 <= v < self._comp.size:
            raise ValueError(f"node {v} out of range for n={self._comp.size}")
        if v in self.chosen:
            raise ValueError(f"node {v} is already chosen")
        c, i = self._comp[v], self._pos[v]
        D, sigma_s = self._dist[c], self._sigma_s[c]
        # both matrices are symmetric: v's row is also its column.  As v is
        # not in S, sigma_S(v, v) = 1, so this also zeroes v's row and column
        out = np.outer(sigma_s[i], sigma_s[i])
        out *= np.add.outer(D[i], D[i]) == D
        np.subtract(sigma_s, out, out=out)
        share = out / self._sigma[c]
        np.subtract(1.0, share, out=share)
        m = share.shape[0]
        # off-diagonal entries row by row: past the first diagonal entry,
        # each run of m + 1 flat entries ends on the next one
        off = share.ravel()[1:].reshape(m - 1, m + 1)[:, :-1].reshape(m, m - 1)
        rows = self._rows.copy()
        rows[self._nodes[c]] = off.sum(axis=1)
        return rows, out

    def _value(self, rows) -> float:
        # cumsum adds left to right, as a running Python float does
        return float(np.cumsum(rows)[-1]) / self._pairs if self._pairs else 0.0

    def value(self) -> float:
        """F(S) of the current prefix."""
        return self._value(self._rows)

    def value_with(self, v: int) -> float:
        """F(S + v); the prefix is unchanged."""
        return self._value(self._with(int(v))[0])

    def add(self, v: int) -> None:
        """Append v to the prefix."""
        v = int(v)
        self._rows, self._sigma_s[self._comp[v]] = self._with(v)
        self.chosen.add(v)

    def value_of(self, S) -> float:
        """F(S) for any S (duplicates ignored); S becomes the prefix."""
        self._reset()
        for v in set(int(v) for v in S):
            self.add(v)
        return self.value()


def shortest_path_coverage(g: Graph, S) -> float:
    """Fraction of shortest paths covered by S, averaged over ordered pairs.

    For each same-component ordered pair (s, t), the covered share is the
    fraction of shortest s-t paths passing through S (1 when an endpoint is
    in S).  Monotone and submodular in S.
    """
    return _Coverage(g).value_of(S)


def _lazy_greedy(g: Graph, stop):
    """Lazy greedy over shortest_path_coverage.

    `stop(chosen, value)` decides when to halt.  Returns (chosen list,
    final value, chosen gain sequence).
    """
    cover = _Coverage(g)
    chosen: list[int] = []
    current = 0.0
    # heap entries: (-cached gain, node id, round the gain was computed in)
    heap = [(-cover.value_with(v), v, 0) for v in range(g.n)]
    heapq.heapify(heap)
    gains: list[float] = []
    while heap and not stop(chosen, current):
        neg, v, rnd = heapq.heappop(heap)
        if rnd == len(chosen):
            gain = -neg
        else:
            gain = cover.value_with(v) - current
            if heap and gain < -heap[0][0] - 1e-12:
                heapq.heappush(heap, (-gain, v, len(chosen)))
                continue
        # submodularity of the objective: selected gains never increase
        if gains and gain > gains[-1] + 1e-9:
            raise RuntimeError("marginal gain increased along the greedy "
                               f"sequence ({gains[-1]} -> {gain})")
        cover.add(v)
        chosen.append(v)
        gains.append(gain)
        current += gain
    return chosen, current, gains


def greedy_max_spds(g: Graph, k: int) -> list[int]:
    """Greedy size-k set maximizing shortest-path coverage.

    The lowest id wins a tie only between bit-equal gains computed in the
    same round.  Gains equal as exact fractions can differ in their last
    bits, because the coverage is a rounded float sum, and the lazy greedy
    accepts a re-evaluated gain within 1e-12 of the best cached one, so the
    node re-evaluated first beats a tied node whose cached gain is older,
    whatever their ids."""
    if not (1 <= k <= g.n):
        raise ValueError(f"k={k} out of range for n={g.n}")
    chosen, _, _ = _lazy_greedy(g, lambda c, v: len(c) >= k)
    return chosen


def greedy_min_spds(g: Graph, p: float):
    """Smallest greedy set reaching coverage >= p.

    Returns (nodes, achieved coverage, bound) where bound = 1 + ln(n) is the
    reported approximation-ratio certificate (an upper bound on |greedy| /
    |optimal|, not a tight value).
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if p > 0 and g.n == 0:
        raise ValueError("unachievable coverage target on an empty graph")
    chosen, value, _ = _lazy_greedy(g, lambda c, v: v >= p - 1e-12)
    if value < p - 1e-12:
        raise ValueError(f"coverage target {p} unachievable (max {value})")
    bound = 1.0 + math.log(g.n) if g.n > 1 else 1.0
    return chosen, value, bound


def exhaustive_opt(g: Graph, k: int, budget: int = 10**6):
    """Optimal size-k set for shortest-path coverage by full enumeration."""
    if not (0 <= k <= g.n):
        raise ValueError(f"k={k} out of range for n={g.n}")
    if math.comb(g.n, k) > budget:
        raise BudgetError(
            f"C({g.n},{k}) = {math.comb(g.n, k)} exceeds budget {budget}"
        )
    cover = _Coverage(g)
    best_set: tuple[int, ...] = ()
    best = -1.0
    for combo in itertools.combinations(range(g.n), k):
        val = cover.value_of(combo)
        if val > best + 1e-12:
            best = val
            best_set = combo
    return list(best_set), best


def select(g: Graph, spec: SelectionSpec) -> list[int]:
    """Dispatch a selection method; deterministic for a fixed spec."""
    if spec.method == "greedy_min":
        return greedy_min_spds(g, spec.p)[0]
    k = spec.k
    if k > g.n:
        raise ValueError(f"k={k} exceeds n={g.n}")
    if k == 0:
        return []
    if spec.method == "random":
        rng = np.random.default_rng(spec.seed)
        # a permutation prefix, so sets are nested across sweep sizes
        return [int(v) for v in rng.permutation(g.n)[:k]]
    if spec.method == "top_degree":
        deg = g.degrees()
        order = np.lexsort((np.arange(g.n), -deg))
        return [int(v) for v in order[:k]]
    if spec.method == "greedy_max":
        return greedy_max_spds(g, k)
    return exhaustive_opt(g, k)[0]


def selection_to_text(g: Graph, nodes) -> str:
    """Newline-delimited node tokens (external labels when available)."""
    if g.labels is not None:
        return "\n".join(g.labels[int(v)] for v in nodes) + "\n"
    return "\n".join(str(int(v)) for v in nodes) + "\n"
