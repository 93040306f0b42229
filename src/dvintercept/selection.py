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

from . import kernels
from .graph import Graph
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


def shortest_path_coverage(g: Graph, S) -> float:
    """Fraction of shortest paths covered by S, averaged over ordered pairs.

    For each same-component ordered pair (s, t), the covered share is the
    fraction of shortest s-t paths passing through S (1 when an endpoint is
    in S).  Monotone and submodular in S.
    """
    smask = np.zeros(g.n, np.bool_)
    for v in S:
        smask[int(v)] = True
    cov = 0.0
    cnt = 0
    for t in range(g.n):
        c, k = kernels.path_cover(g.indptr, g.indices, t, smask)
        cov += c
        cnt += k
    return cov / cnt if cnt else 0.0


def _lazy_greedy(g: Graph, stop):
    """Lazy greedy over shortest_path_coverage.

    `stop(chosen, value)` decides when to halt.  Returns (chosen list,
    final value, chosen gain sequence).
    """
    chosen: list[int] = []
    current = 0.0
    # heap entries: (-cached gain, node id, round the gain was computed in)
    heap = [(-shortest_path_coverage(g, [v]), v, 0) for v in range(g.n)]
    heapq.heapify(heap)
    gains: list[float] = []
    while heap and not stop(chosen, current):
        neg, v, rnd = heapq.heappop(heap)
        if rnd == len(chosen):
            gain = -neg
        else:
            gain = shortest_path_coverage(g, chosen + [v]) - current
            if heap and gain < -heap[0][0] - 1e-12:
                heapq.heappush(heap, (-gain, v, len(chosen)))
                continue
        # submodularity of the objective: selected gains never increase
        if gains and gain > gains[-1] + 1e-9:
            raise RuntimeError("marginal gain increased along the greedy "
                               f"sequence ({gains[-1]} -> {gain})")
        chosen.append(v)
        gains.append(gain)
        current += gain
    return chosen, current, gains


def greedy_max_spds(g: Graph, k: int) -> list[int]:
    """Greedy size-k set maximizing shortest-path coverage (ties: lowest id)."""
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
    best_set: tuple[int, ...] = ()
    best = -1.0
    for combo in itertools.combinations(range(g.n), k):
        val = shortest_path_coverage(g, combo)
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
