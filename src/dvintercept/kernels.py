"""Per-target reference loops: synchronization, routing reachability and
shortest-path coverage, over CSR arrays with ``INF`` as the sentinel.

No library module calls them; they are what the tests check the closed forms
against and what the benchmark's traced run patches.  ``INF`` is `graph`'s,
re-exported.
"""

from __future__ import annotations

import numpy as np

from .graph import INF


def backend() -> str:
    """Name of the kernel implementation, recorded by the benchmark."""
    return "numpy"


def _edge_arrays(indptr, indices):
    n = indptr.shape[0] - 1
    deg = np.diff(indptr)
    return np.repeat(np.arange(n, dtype=np.int64), deg), indices


def bfs(indptr, indices, src, banned=None):
    """int64 hop distances from src over CSR arrays, INF where unreachable;
    banned nodes are neither entered nor left."""
    n = indptr.shape[0] - 1
    banned = np.zeros(n, np.bool_) if banned is None else banned
    esrc, edst = _edge_arrays(indptr, indices)
    ok = ~banned[esrc] & ~banned[edst]
    esrc, edst = esrc[ok], edst[ok]
    dist = np.full(n, INF, np.int64)
    frontier = np.zeros(n, np.bool_)
    frontier[src] = not banned[src]
    d = 0
    while frontier.any():
        dist[frontier] = d
        d += 1
        reached = np.zeros(n, np.bool_)
        reached[edst[frontier[esrc]]] = True
        frontier = reached & (dist == INF)
    return dist


# path_cover's BFS; a separate name keeps it out of the calls counted on `bfs`
_bfs = bfs


def sync_column(indptr, indices, pinned, pmask, t):
    """Synchronous fixpoint of the per-target belief update: (col, rounds).

    Honest i takes min(current, 1 + min over neighbours of the previous
    round's value); pinned rows (colluder broadcasts) never change.  Values
    only fall, so the loop ends; `rounds` counts the rounds that changed one.
    """
    n = indptr.shape[0] - 1
    esrc, edst = _edge_arrays(indptr, indices)
    col = np.where(pmask, pinned, INF).astype(np.int64)
    if not pmask[t]:
        col[t] = 0
    honest = ~pmask
    rounds = 0
    while True:
        nbr_min = np.full(n, INF, np.int64)
        np.minimum.at(nbr_min, esrc, col[edst])
        cand = np.where(nbr_min < INF, nbr_min + 1, INF)
        new = np.where(honest, np.minimum(col, cand), col)
        if np.array_equal(new, col):
            return col, rounds
        col = new
        rounds += 1


def reach(indptr, indices, col, t, cmask, hops, liberal=False, banned=None):
    """Reverse reachability to t over the routing graph of column `col`.

    Honest nodes fan out to their argmin neighbours, colluders to their
    single hop (or every neighbour in liberal mode).  Edges into banned nodes
    are unusable and banned nodes emit nothing.
    """
    n = indptr.shape[0] - 1
    if banned is None:
        banned = np.zeros(n, np.bool_)
    esrc, edst = _edge_arrays(indptr, indices)
    nbr_min = np.full(n, INF, np.int64)
    hsrc = ~cmask[esrc]
    np.minimum.at(nbr_min, esrc[hsrc], col[edst[hsrc]])
    use_h = hsrc & (col[edst] == nbr_min[esrc]) & (nbr_min[esrc] < INF)
    if liberal:
        use_c = cmask[esrc]
    else:
        use_c = cmask[esrc] & (edst == hops[esrc])
    use = (use_h | use_c) & ~banned[esrc] & ~banned[edst] & (esrc != t)
    reached = np.zeros(n, bool)
    reached[t] = True
    while True:
        newly = use & reached[edst] & ~reached[esrc]
        if not newly.any():
            return reached
        reached[np.unique(esrc[newly])] = True


def path_cover(indptr, indices, t, smask):
    """Per-target shortest-path coverage of the marked set `smask`.

    Returns (sum over sources s reaching t of the fraction of s->t shortest
    paths touching the set, number of such sources).  The reference for
    `selection._Coverage`, which updates all pairs at once.
    """
    n = indptr.shape[0] - 1
    dist = _bfs(indptr, indices, t)
    esrc, edst = _edge_arrays(indptr, indices)
    down = (dist[esrc] < INF) & (dist[edst] == dist[esrc] - 1)
    # sigma counts all shortest paths to t, sigma_a those avoiding the set
    sigma = np.zeros(n, np.float64)
    sigma_a = np.zeros(n, np.float64)
    sigma[t] = 1.0
    if not smask[t]:
        sigma_a[t] = 1.0
    reachable = dist < INF
    maxd = int(dist[reachable].max()) if reachable.any() else 0
    for d in range(1, maxd + 1):
        layer = down & (dist[esrc] == d)
        np.add.at(sigma, esrc[layer], sigma[edst[layer]])
        np.add.at(sigma_a, esrc[layer], sigma_a[edst[layer]])
        sigma_a[smask] = 0.0
    nodes = np.flatnonzero(reachable)
    nodes = nodes[nodes != t]
    if nodes.size == 0:
        return 0.0, 0
    if smask[t]:
        cov = np.ones(nodes.size)
    else:
        cov = np.where(smask[nodes], 1.0, 1.0 - sigma_a[nodes] / sigma[nodes])
    return float(cov.sum()), int(nodes.size)
