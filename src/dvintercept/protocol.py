"""Honest-agent dynamics: belief synchronization.

Honest nodes repeatedly set their believed distance to each target to
min(current, 1 + min over neighbours of the neighbour's announced value) and
forward traffic to any neighbour announcing the minimum.  Colluding nodes
announce fixed vectors that never change across rounds.  The fixpoint has a
closed form over hop distances, which `synchronize` and `strategy` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (INF, Graph, _colluder_tuple, as_hops, distance_blocks,
                    hop_distances)


class BroadcastError(ValueError):
    """A colluder broadcast violates the model: non-zero self distance or a
    claimed distance below 1 to another node ("black hole")."""

    def __init__(self, message: str, node: int, target: int):
        super().__init__(f"{message} (node {node}, target {target})")
        self.node = node
        self.target = target


def validate_broadcasts(n: int, colluders, broadcasts) -> dict[int, np.ndarray]:
    """Normalize and validate per-colluder broadcast vectors.

    `broadcasts` maps each colluder to a length-n integer vector.  Requires
    exactly the colluder set as keys, ids in [0, n), a 0 self entry, and
    every other entry at least 1 (INF allowed).
    """
    colluders = frozenset(_colluder_tuple(n, colluders))
    if set(broadcasts) != colluders:
        missing = colluders - set(broadcasts)
        extra = set(broadcasts) - colluders
        raise ValueError(
            f"broadcast keys must equal the colluder set "
            f"(missing {sorted(missing)}, extra {sorted(extra)})"
        )
    out = {}
    for v, vec in broadcasts.items():
        vec = np.asarray(vec, np.int64)
        if vec.shape != (n,):
            raise ValueError(f"broadcast vector for node {v} has shape {vec.shape}")
        if vec[v] != 0:
            raise BroadcastError("self distance must be 0", v, v)
        bad = np.flatnonzero(vec < 1)
        bad = bad[bad != v]
        if bad.size:
            t = int(bad[0])
            raise BroadcastError("broadcast distance must be >= 1", v, t)
        out[int(v)] = vec
    return out


@dataclass(frozen=True)
class BeliefState:
    """Perceived-distance fixpoint: rho[i, j] is i's belief about d(i, j).

    Colluder rows equal their declared broadcasts verbatim; honest rows are
    the stabilized synchronization values.
    """

    rho: np.ndarray
    rounds_to_converge: int
    colluders: frozenset[int] = field(default_factory=frozenset)


def _min_plus(bt, dc, inf):
    """min over colluders i of bt[i, j] + dc[i, s], at most inf; every entry
    is at most inf and the dtype holds 2 * inf, so no sum wraps."""
    out = np.full((bt.shape[1], dc.shape[1]), inf, dc.dtype)
    tmp = np.empty_like(out)
    for bi, di in zip(bt, dc):
        np.add(bi[:, None], di, out=tmp)
        np.minimum(out, tmp, out=out)
    return out


def synchronize(g: Graph, colluders, broadcasts) -> BeliefState:
    """Run synchronization to the fixpoint with colluder rows pinned.

    Raises BroadcastError for malformed broadcasts.  Once they are valid,
    each column is the closed form of `strategy._closed_form_pass` in int64,
    and an honest node settles in the round of the hop count from its
    nearest source attaining its belief: at most n - 1 rounds.
    """
    broadcasts = validate_broadcasts(g.n, colluders, broadcasts)
    ids = sorted(broadcasts)
    inf = INF + 1  # sums up to INF stay finite, as in the iteration
    b = np.array([broadcasts[v] for v in ids], np.int64).reshape(len(ids), g.n)
    dc = as_hops(hop_distances(g, ids, sealed=ids), inf=inf)
    rho = np.empty((g.n, g.n), np.int64)
    worst = 0
    for T, D in distance_blocks(g, ids):
        d = as_hops(D, inf=inf)
        bt = np.where(b[:, T] < INF, b[:, T], inf)
        col = np.minimum(d, _min_plus(bt, dc, inf))
        rho[:, T] = np.minimum(col, INF).T
        # hop count from the nearest source attaining col (a colluder: 0)
        hops = np.where(d == col, d, inf)
        for bi, di in zip(bt, dc):
            hops = np.where(bi[:, None] + di == col, np.minimum(hops, di), hops)
        worst = max(worst, int(hops[col < INF].max(initial=0)))
    rho[ids] = b
    return BeliefState(rho=rho, rounds_to_converge=worst,
                       colluders=frozenset(ids))
