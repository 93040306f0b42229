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

from .graph import (INF, Graph, _colluder_tuple, _integers, _over_blocks,
                    as_hops)


class BroadcastError(ValueError):
    """A colluder broadcast violates the model: non-zero self distance or a
    claimed distance below 1 to another node ("black hole")."""

    def __init__(self, message: str, node: int, target: int):
        super().__init__(f"{message} (node {node}, target {target})")
        self.node = node
        self.target = target


def _int_rows(vectors, ids, n: int, what: str):
    """(a, fault): the `what` vectors of the colluders ids, in order, as the
    rows of a new int64 array, up to the first row that has a fault of its
    own, and that fault as a ValueError (None when there is none): a missing
    vector, a shape other than (n,), or a first non-integer entry t,
    "<what>(v,t) = x is not an integer" (`graph._integers`).  The caller
    tests the values of a, whose faults come before `fault`.  The stack of
    the vectors goes through `_integers` whole when it kept every vector's
    dtype; else, or at a fault, the rows are read one by one in id order."""
    try:
        given = [vectors[v] for v in ids]
        a = np.array(given)
    except (KeyError, ValueError):  # a missing vector, or unequal shapes
        a = None
    # a list, or a bool array among integer ones, changes type in the stack
    if (a is not None and a.shape == (len(ids), n)
            and all(getattr(x, "dtype", None) is a.dtype for x in given)):
        ints, fault = _integers(a, what)
        if fault is None:
            return ints.reshape(a.shape), None
    rows, fault = [], None
    for v in ids:
        if v not in vectors:
            fault = ValueError(f"{what} vector for node {v} is missing")
            break
        if np.shape(vec := vectors[v]) != (n,):
            fault = ValueError(f"{what} vector for node {v} has shape {np.shape(vec)}")
            break
        row, fault = _integers(vec, f"{what}({v},{{}}) =")
        if fault:
            break
        rows.append(row)
    return np.array(rows, np.int64).reshape(len(rows), n), fault


def validate_broadcasts(n: int, colluders, broadcasts):
    """(ids, b): the colluder set in id order and its broadcasts as a k x n
    int64 array, row i the vector of ids[i].

    `broadcasts` maps each colluder to a length-n integer vector.  Requires
    exactly the colluder set as keys, ids in [0, n), a 0 self entry, and
    every other entry an integer of at least 1 (INF allowed).  Faults are
    raised in id order; within a row the shape comes first, then a
    non-integer entry, the self entry and the lowest target below 1.
    """
    ids = _colluder_tuple(n, colluders)
    if (keys := set(broadcasts)) != set(ids):
        raise ValueError("broadcast keys must equal the colluder set (missing "
                         f"{sorted(set(ids) - keys)}, extra {sorted(keys - set(ids))})")
    b, fault = _int_rows(broadcasts, ids, n, "broadcast")
    diag = (np.arange(len(b)), np.asarray(ids[:len(b)], np.int64))
    # one mask of the faulty entries: the self entries other than 0, and the
    # other entries below 1
    low = b < 1
    low[diag] = b[diag] != 0
    if low.any():
        i = int(low.any(axis=1).argmax())
        v = ids[i]
        if low[i, v]:
            raise BroadcastError("self distance must be 0", v, v)
        raise BroadcastError("broadcast distance must be >= 1", v, int(low[i].argmax()))
    if fault:
        raise fault
    return ids, b


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
    # imported here: strategy imports this module
    from .strategy import _set_distances

    ids, b = validate_broadcasts(g.n, colluders, broadcasts)
    inf = INF + 1  # sums up to INF stay finite, as in the iteration
    dc = as_hops(_set_distances(g, ids)[2], inf=inf)
    rho = np.empty((g.n, g.n), np.int64)

    def block(T, D):
        """Write the columns T of rho; the rounds their nodes take."""
        d = as_hops(D, inf=inf)
        bt = np.where(b[:, T] < INF, b[:, T], inf)
        col = np.minimum(d, _min_plus(bt, dc, inf))
        rho[:, T] = np.minimum(col, INF).T
        # hop count from the nearest source attaining col (a colluder: 0)
        hops = np.where(d == col, d, inf)
        for bi, di in zip(bt, dc):
            hops = np.where(bi[:, None] + di == col, np.minimum(hops, di), hops)
        return int(hops[col < INF].max(initial=0))

    # the blocks' columns of rho are disjoint, so each writes its own
    worst = max(_over_blocks(g, ids, block), default=0)
    rho[list(ids)] = b
    return BeliefState(rho=rho, rounds_to_converge=worst,
                       colluders=frozenset(ids))
