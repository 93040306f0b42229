"""Honest-agent dynamics: belief synchronization.

Honest nodes repeatedly set their believed distance to each target to
min(current, 1 + min over neighbours of the neighbour's announced value) and
forward traffic to any neighbour announcing the minimum; `kernels.reach`
walks the routing graph this induces.  Colluding nodes announce fixed vectors
that never change across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .graph import Graph, _colluder_tuple


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


def synchronize(g: Graph, colluders, broadcasts) -> BeliefState:
    """Run synchronization to the fixpoint with colluder rows pinned.

    Raises BroadcastError for malformed broadcasts.  Once they are valid,
    each column is a unit-weight Bellman-Ford from its pinned sources (the
    target at 0 and the colluders at their broadcasts) through honest nodes,
    so it settles within the longest colluder-free path: at most n-1 rounds.
    """
    broadcasts = validate_broadcasts(g.n, colluders, broadcasts)
    colluders = frozenset(broadcasts)
    pinned = np.zeros(g.n, np.int64)
    pmask = np.zeros(g.n, np.bool_)
    pmask[list(colluders)] = True
    rho = np.empty((g.n, g.n), np.int64)
    worst = 0
    for t in range(g.n):
        for v in colluders:
            pinned[v] = broadcasts[v][t]
        rho[:, t], rounds = kernels.sync_column(g.indptr, g.indices, pinned,
                                                pmask, t)
        worst = max(worst, rounds)
    return BeliefState(rho=rho, rounds_to_converge=worst, colluders=colluders)
