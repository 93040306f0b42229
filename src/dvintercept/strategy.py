"""Colluder strategies: honest, independent lies, optimal separated broadcasts,
the adjacent-component generalization, and admissibility checking.

A strategy fixes, for every colluder, a full broadcast vector (the distances
it announces) and a per-target forwarding hop.  The central construction is
the minimal admissible broadcast for pairwise-separated colluders: each
colluder announces the smaller of its own single-agent lie max(1, d(x,t)-2)
and the best composite value obtained by relaying through other colluders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import protocol
# perfbench/tracing.py patches distance_avoiding here, where nothing calls it
from .graph import (INF, Graph, distance_avoiding,  # noqa: F401
                    _BLOCK, _colluder_tuple, _csr, _hop_families, _over_blocks,
                    _memoized, _narrowest, _node_ids, as_hops, component_labels,
                    hop_distances)
from .protocol import _min_plus


class BudgetError(RuntimeError):
    """Exhaustive search would exceed its configured budget."""


def _near(g: Graph, S):
    """(ids, at): the nodes of S and their neighbours in id order, and at[v]
    the index of node v among them, -1 for the others."""
    cover = np.zeros(g.n, np.bool_)
    cover[list(S)] = True
    cover[g.indices[np.repeat(cover, g.degrees())]] = True
    ids = np.flatnonzero(cover)
    at = np.full(g.n, -1, np.int64)
    at[ids] = np.arange(ids.size)
    return ids, at


def _set_distances(g: Graph, S):
    """(at, D, dc, hops): the distances in g that every reader on the
    colluder set S (the sorted tuple `_colluder_tuple` gives) takes, from
    one `graph._hop_families` call on first use (`_near_rows`), and the
    colluders' closest hops, held read-only in the slot of S's set
    (`graph._memoized`) in narrow dtypes.  D holds the rows of S and its
    neighbours: node v's row is D[at[v]], and at[v] = -1 for the others.
    dc is D_C, the rows of the colluders in id order through honest nodes
    only.  hops is the colluders' `_closest_hops` in id order.
    The relay rows of multi-node components are `_adjacent`'s alone.

    On a graph of one block (n <= `graph._BLOCK`) the same call also gives
    the set's D_{G-S} block, held as the slot's blocks (`distance_blocks`),
    so no pass over the set runs a BFS: its family is every node, sealed at
    S.  A colluder's row there is D_C's, so D_C needs no family of its own;
    in the block each colluder's row is then made isolated, 0 at its own
    entry and unreached elsewhere, and D_C and the block each take the
    dtype a call of their own would give (`graph._narrowest`)."""

    def compute():
        ids = np.asarray(S, np.int64)
        one_block = g.n <= _BLOCK
        T = np.arange(g.n) if one_block else ids
        at, rows, hops, dc = _near_rows(g, S, [(T, ids)])
        if one_block:  # dc is the block, with D_C at the colluders' rows
            D, dc = dc, _narrowest(dc[ids])
            D[ids] = np.iinfo(D.dtype).max
            D[ids, ids] = 0
            _memoized(g, S, "blocks", lambda: ((T, _narrowest(D)),) if g.n else ())
        return at, rows, dc, hops

    return _memoized(g, S, "rows", compute)


def _near_rows(g: Graph, S, families=()):
    """(at, D, hops, *more): the rows D of the colluder set S and its
    neighbours (`_near`: node v's row is D[at[v]]), the colluders'
    `_closest_hops` in id order, and the rows of each further family
    (sources, sealed), from one `graph._hop_families` call."""
    near, at = _near(g, S)
    D, *more = _hop_families(g, [(near, ())] + list(families))
    return (at, D, _closest_hops(g, (at, D), np.asarray(S, np.int64)), *more)


def _runs(g: Graph, V):
    """(nbrs, deg): the neighbour lists of the nodes V, one CSR run each,
    concatenated in the order of V, and their lengths."""
    V = np.asarray(V, np.int64).reshape(-1)
    lo, deg = g.indptr[V], g.indptr[V + 1] - g.indptr[V]
    return g.indices[np.repeat(lo - (np.cumsum(deg) - deg), deg)
                     + np.arange(deg.sum())], deg


def _closest_hops(g: Graph, rows, V) -> np.ndarray:
    """|V| x n, in the narrowest signed dtype that holds -1 - n: row i
    holds, per target, the lowest-id neighbour of V[i] minimizing true
    distance to it; -1 at V[i] itself, at unreachable targets and everywhere
    when V[i] has no neighbours.  `rows` = (at, D), D narrow as
    `_set_distances` holds it, must cover V and its neighbours.

    A neighbour u of v is closest to t exactly when d(u, t) = d(v, t) - 1,
    and neighbour lists are sorted, so the hop is the first such u.  In D's
    unsigned dtype want = d(v, .) - 1 wraps to the maximum only at t = v,
    where neighbours read 1, and is the maximum less 1 at an unreached t,
    where they read the maximum: no mask is needed.  With the nodes ranked
    by decreasing degree, the p-th neighbours of the nodes with more than p
    are the first c; positions are taken from last to first, each one
    masked copy.  The transient is the hops twice (before and after the rank
    is undone) and the wants and c gathered rows in D's dtype.  The dtype is
    sized by -1 - n, not -n, so that it is signed also at n = 0.
    """
    at, D = rows
    V = np.asarray(V, np.int64).reshape(-1)
    deg = g.indptr[V + 1] - g.indptr[V]
    rank = np.argsort(-deg, kind="stable")
    lo, deg = g.indptr[V[rank]], deg[rank]
    want = D[at[V[rank]]] - 1
    hop = np.full((V.size, g.n), -1, np.min_scalar_type(-1 - g.n))
    for p in range(deg.max(initial=0) - 1, -1, -1):
        c = np.count_nonzero(deg > p)
        u = g.indices[lo[:c] + p]
        np.copyto(hop[:c], u[:, None], where=D[at[u]] == want[:c])
    return hop[np.argsort(rank)]


def _narrow(a):
    """a in the narrowest integer dtype that holds its values."""
    lo, hi = int(a.min(initial=0)), int(a.max(initial=0))
    return a.astype(np.min_scalar_type(min(lo, -1 - hi)) if lo < 0
                    else np.min_scalar_type(hi))


def _honest(g: Graph, S):
    """(S, b, hop): S as `_colluder_tuple` and k x n int64 arrays in id
    order: the colluders' true distances, INF where unreachable, and their
    closest hops, both fresh copies of what `_set_distances` holds, which
    every builder starts from and edits where it lies.  `_strategy` hands
    their rows out as the strategy's vectors."""
    S = _colluder_tuple(g.n, S)
    at, D, _, hops = _set_distances(g, S)
    return S, as_hops(D[at[list(S)]]), hops.astype(np.int64)


def _hop_table(g: Graph, ids) -> np.ndarray:
    """ok[i, h + 1]: hop h is -1 or a neighbour of colluder ids[i]; column
    n + 1 stands for every hop outside [-1, n)."""
    k, w = len(ids), g.n + 2
    nbrs, deg = _runs(g, ids)
    ok = np.zeros((k, w), np.bool_)
    ok[:, 0] = True
    ok[np.repeat(np.arange(k), deg), nbrs + 1] = True
    return ok


@dataclass(frozen=True)
class Strategy:
    """Colluder set with broadcast vectors and per-target forwarding hops.

    broadcast[v] is v's announced length-n distance vector; forward[v][t] is
    v's declared next hop for traffic to t (-1 where undefined, e.g. t = v or
    t unreachable).
    """

    colluders: tuple[int, ...]
    broadcast: dict[int, np.ndarray]
    forward: dict[int, np.ndarray]
    label: str = "custom"

    def validate(self, g: Graph):
        """(ids, b, hop): the colluders in id order and their broadcasts and
        hops as k x n int64 arrays.  ValueError at the first fault: a
        repeated colluder, a malformed broadcast (see
        `protocol.validate_broadcasts`), a forward key outside the set, then
        per colluder in id order a missing, misshapen or non-integer forward
        vector, or at its lowest target a hop that is neither -1 nor a
        neighbour, looked up in a `_hop_table` built per call: validation
        reads and writes no slot."""
        for v, count in Counter(self.colluders).items():
            if count > 1:
                raise ValueError(f"colluder {v} is repeated")
        ids, b = protocol.validate_broadcasts(g.n, self.colluders, self.broadcast)
        if extra := set(self.forward) - set(ids):
            raise ValueError(f"forward keys outside the colluder set: {sorted(extra)}")
        hop, fault = protocol._int_rows(self.forward, ids, g.n, "forward")
        # one flat lookup of every hop read in `_hop_table`, the uint64 view
        # sending the hops below -1 above n
        k, w = len(hop), g.n + 2
        at = (hop + 1).view(np.uint64)
        np.minimum(at, w - 1, out=at)
        at += np.arange(0, k * w, w, dtype=np.uint64)[:, None]
        good = _hop_table(g, ids[:k]).take(at.view(np.int64))
        if not good.all():
            i, t = np.argwhere(~good)[0]
            raise ValueError(f"forward({ids[i]},{t}) = {hop[i, t]} "
                             "is not a neighbour")
        if fault:
            raise fault
        return ids, b, hop


def _strategy(S, b, hop, label: str) -> Strategy:
    """The strategy of S whose vectors are the rows of the k x n arrays b
    and hop (views: an edit to either shows in both)."""
    return Strategy(colluders=S, broadcast=dict(zip(S, b)),
                    forward=dict(zip(S, hop)), label=label)


# ---------------------------------------------------------------------------
# basic strategies
# ---------------------------------------------------------------------------


def honest_strategy(g: Graph, S) -> Strategy:
    """Everyone announces true distances and forwards to a closest neighbour."""
    S, b, hop = _honest(g, S)
    return _strategy(S, b, hop, "honest")


def independent_strategy(g: Graph, S) -> Strategy:
    """Each colluder lies on its own: announce max(1, d(v,t)-2) per target and
    forward to a true-closest neighbour."""
    S, b, hop = _honest(g, S)
    np.copyto(b, np.maximum(1, b - 2), where=b < INF)
    b[np.arange(len(S)), np.asarray(S, np.int64)] = 0
    return _strategy(S, b, hop, "independent")


# ---------------------------------------------------------------------------
# the separated optimum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoStarEntry:
    """Optimal broadcast for one (colluder, target) pair.

    witness lists the colluders on the minimal relay chain starting at the
    colluder itself; its length equals forwarding_number.  exit_hop is the
    first node on the true shortest path toward the next chain element (the
    target itself when forwarding_number is 1).
    """

    value: int
    forwarding_number: int
    witness: tuple[int, ...]
    exit_hop: int


@dataclass(frozen=True)
class RhoStarPlan:
    target: int
    entries: dict[int, RhoStarEntry]

    def value(self, x: int) -> int:
        return self.entries[x].value


def _colluder_arcs(g: Graph, C):
    """(src, dst): the arcs joining two members of the sorted colluder
    tuple C, in CSR order, read from the colluders' own runs."""
    ids = np.asarray(C, np.int64)
    nbrs, deg = _runs(g, ids)
    cmask = np.zeros(g.n, np.bool_)
    cmask[ids] = True
    close = cmask[nbrs]
    return np.repeat(ids, deg)[close], nbrs[close]


def _check_separated(g: Graph, C) -> None:
    """ValueError naming the least adjacent pair (x, y), x < y, of the
    sorted colluder tuple C: the first arc between two colluders in CSR
    order (`_colluder_arcs`), from the least colluder with such a neighbour."""
    src, dst = _colluder_arcs(g, C)
    if src.size:
        raise ValueError(f"colluders {src[0]} and {dst[0]} are not separated "
                         "(distance < 2); use adjacent_strategy")


def _rho_star_plans(g: Graph, C, rows, hops, targets):
    """The rho* label setting toward all the targets at once.

    C is the sorted tuple of a colluder set with no two members adjacent,
    `rows` = (at, D) as `_set_distances` holds them (covering C and its
    neighbours), `hops` C's `_closest_hops` and `targets` non-colluders.
    Returns (T, val, fn, pred, hop), T the targets and each of the last four a
    k x |T| int64 array indexed [colluder index, target index]: the plan
    value, forwarding number, index of the predecessor on the witness chain
    (-1 for none) and exit hop (-1 where the value is INF).

    Step i settles, per target, the unsettled colluder with the least
    (tentative value, id), then relaxes every unsettled colluder z to
    max(1, d(x, z) - 2 + val); only a strict improvement makes x the
    predecessor of z.  The exit hop is the closest hop toward the
    predecessor, or toward the target when there is none.

    The state is colluder-major, one column per target, and each entry is
    one integer key, value << 3b | id << 2b | step << b | fn with 2^b > k:
    the id of its colluder z, then 0 for its own lie or i + 1 when colluder
    seq[i + 1] set it at step i (seq[0] is k, "none"), then its forwarding
    number.  Settling takes the minimum over axis 0, the least (value, id).
    Relaxing takes the entrywise minimum with the keys through x, each
    carrying x's forwarding number plus one: the steps of competing keys
    differ, so a tie in value keeps the earlier key, only a strict
    improvement wins, and its step names the predecessor.  Between
    distinct separated colluders d(x, z) - 2 + val is at least 1, so no
    clamp is needed.  The key through x of x itself is below -2^(bits - 2),
    so relaxing settles x: the minimum keeps it, and the minimum over the
    unsigned view never picks it.

    Hop distances are below n, so every finite value, and every finite
    candidate, is below 2n; INF is the least power of two above that, and
    an INF distance between colluders is INF + 2: colluders are at least 2
    apart, so every candidate through an INF is at least INF and never
    strictly improves.  A candidate is at most 2 INF, so the keys are int32
    while that and the three b-bit fields fit 31 bits (the minima then run
    on 32-bit lanes), else int64.
    """
    at, D = rows
    ids = np.asarray(C, np.int64)
    k = ids.size
    T = np.asarray(targets, np.int64).reshape(-1)
    inf, b = 1 << (2 * g.n).bit_length(), k.bit_length()
    bits = inf.bit_length() + 1 + 3 * b
    if bits > 63:
        raise ValueError(f"{k} colluders on {g.n} nodes exceed the "
                         "label setting's 63-bit keys")
    dtype, unsigned = (np.int32, np.uint32) if bits <= 31 else (np.int64, np.uint64)
    mask = (1 << b) - 1
    keep = ~(mask << 2 * b | mask << b)  # a key less its id and step
    DC = as_hops(D[at[ids]])
    # field: z's id, less 2 in the value, so that (d << 3b) + field is the
    # key of value d - 2
    field = np.arange(k)[:, None] << 2 * b
    field -= 2 << 3 * b
    # rel[z, x]: the key of z through x, less x's value and forwarding
    # number (least & keep) and the step
    rel = (np.minimum(DC[:, ids], inf + 2) << 3 * b) + field
    rel.flat[::k + 1] = -1 << bits - 1
    rel = rel.astype(dtype)
    lie = np.minimum(np.maximum(DC[:, T], 3), inf + 2) << 3 * b
    key = (lie + field + 1).astype(dtype, order="C")
    done = np.empty((k, T.size), np.int64)  # the settled keys
    seq = np.full((k + 1, T.size), k, np.int64)
    offset, cols = np.arange(k) * T.size, np.arange(T.size)
    for step in range(k):
        least = key.view(unsigned).min(axis=0).view(dtype)
        seq[step + 1] = x = least >> 2 * b & mask
        done.put(offset.take(x) + cols, least)
        cand = rel.take(x, axis=1)
        cand += (least & keep) + ((step + 1 << b) + 1)
        np.minimum(key, cand, out=key)
    val, fn = done >> 3 * b, done & mask
    val[val >= inf] = INF
    pred = seq.take((done >> b & mask) * T.size + cols)
    pred[pred == k] = -1
    toward = np.where(pred >= 0, ids[pred], T)
    # taken narrow, so that only the k x |T| exit hops are widened
    hop = np.asarray(hops).reshape(k, g.n).take(
        np.arange(k)[:, None] * g.n + toward).astype(np.int64)
    hop[val >= INF] = -1
    return T, val, fn, pred, hop


def rho_star_plan(g: Graph, C, t: int) -> RhoStarPlan:
    """Optimal broadcasts toward t for pairwise-separated colluders.

    Label-setting over colluders, the least (value, id) first: each settles
    at the minimum of its own lie max(1, d(x,t)-2) and max(1, d(x,y)-2 +
    value(y)) over settled colluders y.  A colluder is proper
    (forwarding_number > 1) only when a relay value strictly beats its own lie.
    """
    C = _colluder_tuple(g.n, C)
    [t] = _node_ids(g.n, [t], "target").tolist()
    if t in C:
        raise ValueError("target must not be a colluder")
    _check_separated(g, C)
    at, D, _, hops = _set_distances(g, C)
    _, val, fn, pred, hop = _rho_star_plans(g, C, (at, D), hops, targets=[t])
    entries = {}
    for i, x in enumerate(C):
        witness = [x]
        p = int(pred[i, 0])
        while p >= 0:
            witness.append(C[p])
            p = int(pred[p, 0])
        entries[x] = RhoStarEntry(value=int(val[i, 0]),
                                  forwarding_number=int(fn[i, 0]),
                                  witness=tuple(witness),
                                  exit_hop=int(hop[i, 0]))
    return RhoStarPlan(target=t, entries=entries)


def separated_strategy(g: Graph, C) -> Strategy:
    """Optimal uniform broadcasts for a pairwise-separated colluder set:
    `adjacent_strategy`, whose components are then all single colluders,
    after a check that no two colluders are adjacent.  Colluder targets are
    intercepted by definition: toward them every colluder stays honest."""
    C = _colluder_tuple(g.n, C)
    _check_separated(g, C)
    return replace(adjacent_strategy(g, C), label="rho_star")


# ---------------------------------------------------------------------------
# adjacent colluders: quotient construction
# ---------------------------------------------------------------------------


def _colluder_graph(g: Graph, C):
    """(comps, index, hops) of the subgraph induced on the sorted colluder
    tuple C, from one BFS of it.  index: per colluder in id order the index
    of its component, counting up from the component of its lowest member
    (each colluder's lowest reachable member names its component); 0 to
    k - 1, with no BFS, when no arc joins two colluders.  comps: the
    components' members, in index order.  hops: over the members X of the
    multi-node components in id order, hops[a, b] is the `_closest_hops`
    hop of X[a] toward X[b] inside their component, -1 on the diagonal and
    between components.  The BFS and hops take k^2 and a few |X| k int64
    entries; nothing is held."""
    ids = np.asarray(C, np.int64)
    src, dst = (np.searchsorted(ids, a) for a in _colluder_arcs(g, C))
    if not src.size:
        return [(v,) for v in C], np.arange(ids.size), np.zeros((0, 0), np.int64)
    sub = _csr(ids.size, src, dst)
    D = hop_distances(sub, np.arange(ids.size))
    low = (D < np.iinfo(D.dtype).max).argmax(axis=1)
    index = (np.cumsum(low == np.arange(ids.size)) - 1)[low]
    X = np.flatnonzero(np.bincount(index)[index] > 1)
    hops = _closest_hops(sub, (np.arange(ids.size), D), X)[:, X]
    comps = [tuple(ids[index == i].tolist()) for i in range(index.max() + 1)]
    return comps, index, np.where(hops >= 0, ids[hops], -1)


def colluder_components(g: Graph, C) -> list[tuple[int, ...]]:
    """Connected components of the subgraph induced on the colluder set,
    ordered by lowest member id (`_colluder_graph`).  With no arc between
    two colluders every component is a single colluder."""
    return _colluder_graph(g, _colluder_tuple(g.n, C))[0]


def _quotient(g: Graph, comps):
    """Contract each colluder component to one node.

    Quotient ids follow original-id order: honest nodes keep their relative
    order, each component sits at its lowest member.  Returns (quotient
    graph, qid array mapping original -> quotient id, honest_of array mapping
    quotient id -> original id, -1 at component nodes, comp quotient ids
    list).  When every component is a single colluder the quotient is g
    itself, with the ids, and so the slot, of g.
    """
    rep = np.arange(g.n)  # the lowest member of each node's component
    colluder = np.zeros(g.n, np.bool_)
    for comp in comps:
        rep[list(comp)] = comp[0]
        colluder[list(comp)] = True
    nodes = np.flatnonzero(rep == np.arange(g.n))
    qid = np.searchsorted(nodes, rep)
    gq = g if nodes.size == g.n else _csr(
        nodes.size, np.repeat(qid, g.degrees()), qid[g.indices])
    honest_of = np.where(colluder[nodes], -1, nodes)
    return gq, qid, honest_of, [int(qid[comp[0]]) for comp in comps]


def adjacent_strategy(g: Graph, C) -> Strategy:
    """Generalized strategy allowing adjacent colluders.

    Colluder components are contracted to single nodes; the separated optimum
    runs on the quotient.  Per target, each component designates an exit
    member adjacent to the first honest vertex of its witness chain; the exit
    announces the quotient plan value, other members announce the tightest
    safe lower bound derived from already-perceived distances, and internal
    traffic is relayed to the exit.  With no two colluders adjacent every
    component is one colluder and the quotient is g itself; that case is
    separated_strategy.

    The broadcasts and hops are held in the slot of C's set
    (`graph._memoized`), in the narrowest dtypes that hold them (-1 standing
    for INF), so that a separated and an adjacent build on one set run one
    label setting; each call hands out fresh int64 copies.
    """
    C = _colluder_tuple(g.n, C)

    def build():
        b, hop = _adjacent(g, C)
        return _narrow(np.where(b < INF, b, -1)), _narrow(hop)

    held_b, held_hop = _memoized(g, C, "adjacent", build)
    b = held_b.astype(np.int64)
    b[b < 0] = INF
    return _strategy(C, b, held_hop.astype(np.int64), "adjacent_general")


def _adjacent(g: Graph, C):
    """(b, hop) of `adjacent_strategy` on the sorted colluder tuple C: the
    broadcasts and hops as k x n int64 arrays in id order.  The relay rows
    (`relay`, |X| * c * n bytes) are computed here, their one reader, and
    held nowhere; the build is held, so a set computes them once."""
    _, b, hop = _honest(g, C)
    *rows, dc, hops = _set_distances(g, C)
    ids = np.asarray(C, np.int64)
    comps, index, inner_hops = _colluder_graph(g, C)
    # the members of multi-node components in id order, whose relay bounds
    # need the synchronized column
    multi = np.bincount(index)[index] > 1
    X = ids[multi]
    # a separated set's quotient is g, whose rows and hops are the set's;
    # another quotient's plan reads only its own, held nowhere
    gq, qid, honest_of, comp_qid = _quotient(g, comps)
    qat, qD, qhops = ((*rows, hops) if gq is g
                      else _near_rows(gq, comp_qid))

    T = np.delete(np.arange(g.n), ids)  # the honest nodes
    _, val, fn, _, qhop = _rho_star_plans(gq, tuple(comp_qid), (qat, qD),
                                          qhops, targets=qid[T])
    # colluder targets and components without a finite plan value keep the
    # honest broadcast and hop
    live = qhop >= 0
    w = np.where(live, honest_of[np.maximum(qhop, 0)], -1)  # first honest vertex
    wi = np.maximum(w, 0)  # read only where live
    # the exit member per (component, target) is the lowest-id member
    # adjacent to w: lowest[ci, u] for each node u, n where none is
    nbrs, deg = _runs(g, ids)
    lowest = np.full((len(comps), g.n), g.n, np.int64)
    np.minimum.at(lowest, (np.repeat(index, deg), nbrs), np.repeat(ids, deg))
    exits = lowest[np.arange(len(comps))[:, None], wi]
    exits[~live | (exits == g.n)] = -1
    # each colluder announces its component's plan value, and forwards to w,
    # toward the targets where it is the exit
    mine = exits[index] == ids[:, None]
    for a, planned in ((b, val), (hop, w)):
        cols = a[:, T]
        np.copyto(cols, planned[index], where=mine)
        a[:, T] = cols
    for ci, comp in enumerate(comps):
        if len(comp) > 1:
            # internal traffic is relayed toward the exit, which keeps w
            sel = exits[ci] >= 0
            inner = inner_hops[np.ix_(np.searchsorted(X, comp),
                                      np.searchsorted(X, exits[ci, sel]))]
            at = np.ix_(np.searchsorted(ids, comp), T[sel])
            hop[at] = np.where(inner >= 0, inner, hop[at])
    if not X.size:
        return b, hop

    # Relay bounds read the synchronized column at each exit's first honest
    # vertex w, min(D_{G-S}(w, t), min over x of b_x[t] + D_C(x, w)), with
    # D_G(w, t) from the held rows (w neighbours its component) in place of
    # D_{G-S}(w, t): a shortest w-t path avoids S or first meets a colluder x
    # through honest nodes, so D_G(w, t) = min(D_{G-S}(w, t), min over x of
    # D_C(x, w) + D_G(x, t)), and each b_x[t] <= D_G(x, t) (exits announce
    # plan values, at most max(1, D_G(exit, t) - 2) as quotient distances
    # never exceed true ones; the rest their true distance).  No entry
    # exceeds INF = 2^60, so a sum cannot wrap in int64, and one with an INF
    # term never lowers col, which starts at or below INF.
    has = exits >= 0
    col = as_hops(rows[1][np.maximum(rows[0][wi], 0), T])  # clamped where no exit
    for bx, dx in zip(b[:, T], as_hops(dc)):
        col = np.minimum(col, bx + dx[wi])
    # Per member x of a multi-node component ci, the bound is the largest
    # col[w] - d(x, w), or 1 when there is none, over the components cj with
    # an exit and a forwarding number no larger than ci's, d avoiding cj's
    # members but x: the rows from every such x with cj sealed (`relay`).
    # Where d(x, w) is INF, col[w] - INF <= 0 is discarded by max(1, .).
    relay = _hop_families(g, [(X, comp) for comp in comps])
    ci_of = index[multi]
    best = np.full((X.size, T.size), -INF)
    for cj in np.flatnonzero(has.any(axis=1)):
        dwx = as_hops(relay[cj][:, wi[cj]])
        ok = has[cj] & (fn[cj] <= fn[ci_of])
        best = np.where(ok, np.maximum(best, col[cj] - dwx), best)
    # every member but the exit announces its bound
    at = np.ix_(np.searchsorted(ids, X), T)
    b[at] = np.where(has[ci_of] & (exits[ci_of] != X[:, None]),
                     np.maximum(1, best), b[at])
    return b, hop


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


class InadmissibleError(ValueError):
    """`trapped`: the nodes that cannot reach t, the first target whose
    routing graph traps any; `pair` = (s, t), s the lowest of them."""

    def __init__(self, pair: tuple[int, int], trapped):
        self.pair, self.trapped = pair, frozenset(trapped)
        super().__init__(f"strategy is inadmissible: pair {pair} has no "
                         f"corresponding path (trapped nodes {sorted(trapped)})")


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    violating_pair: tuple[int, int] | None = None
    trap_set: frozenset[int] = field(default_factory=frozenset)

    def __bool__(self) -> bool:
        return self.admissible


def _int_dtype(bound: int):
    """(dtype, sentinel): uint8, int16 or int32 when half its range exceeds
    `bound`, with that half as the sentinel (127 for uint8), so a sum of two
    stored values never wraps; else int64 with INF + 1, which keeps every sum
    up to INF finite as the synchronization does (a node whose best
    neighbour announces INF - 1 believes INF and still forwards)."""
    for dtype in (np.uint8, np.int16, np.int32):
        sentinel = np.iinfo(dtype).max // 2
        if bound < sentinel:
            return dtype, sentinel
    return np.int64, INF + 1


def _closed_form_pass(g: Graph, arrays, comp):
    """The pass shared by the admissibility check and the count, in closed
    form over blocks of targets T; `arrays` = (C, b, hop) as from
    `Strategy.validate` (C the sorted colluder tuple), which it does not
    write, and `comp` is `component_labels(g)`, which each caller computes
    once.  Yields
    (T, intercept): intercept is a |T| x n bool array marking s -> T[i] as
    intercepted at [i, s].  Raises InadmissibleError at the first target
    with members of its component that cannot reach it in the routing
    graph.  Each block, with its BFS, is one call of `graph._over_blocks`,
    which runs the next blocks on other threads only when a block holds
    `graph._POOL_BYTES`; results and the error come in target order either
    way.

    With D the hop distances in G minus every edge touching the colluders,
    D_C[x] the hop distances from colluder x through honest nodes only and
    b_x colluder x's broadcast, the synchronized column toward t is
    col = min(D[t], offer) with offer[s] = min over x of b_x[t] + D_C[x, s].
    An honest s descends along its argmin neighbours to exactly the sources
    (t and the colluders) attaining col[s], so s -> t is intercepted iff
    offer[s] < D[t, s], and s reaches t iff col[s] is finite and attained by
    t or by a delivering colluder.  The delivering colluders Del_t are a
    least fixpoint over the colluders: x delivers when x = t or its hop
    toward t is t, a delivering colluder, or an honest node that reaches t.
    An honest hop reaches t when its belief is finite and attained by t or
    by a delivering colluder's offer, so the fixpoint is one list of
    (parent, child) entries, marking children until none is new.

    The integers are sized by the offers, not by n.  With cap the largest
    finite b_x[t] (x and t in one component) plus the largest finite D_C
    entry plus 1, every offer is below cap or the sentinel inf, and so is
    every minimum of offers.  D is saturated at c = min(cap, inf - 1), inf
    where unreached.  For a distance d >= c and any such offer o, o < d iff
    o < c (o < cap <= d, or o = inf), and min(d, o) is o, or at least c
    when o is inf; so intercept, col < inf, hcol and the delivery and reach
    tests come out as for the true distance.  (With cap > inf - 1, in
    int64 only, c = INF exceeds every hop distance and nothing saturates.)
    uint8 thus serves whenever every offer is below 127, however long the
    paths in G - S.

    Offers, and with them intercept and reached, are finite only within the
    target's component, where every delivering colluder lies too; so the
    component test is made only in the colluder columns and rows.

    D_C is converted per pass; its one slot write is `_over_blocks`' blocks.
    """
    C, b, hop = arrays
    n, ids = g.n, np.asarray(C, np.int64)
    cidx = np.full(n, -1, np.int64)  # node id -> colluder index
    cidx[ids] = np.arange(ids.size)
    smask = cidx >= 0
    sizes = np.bincount(comp)
    raw_dc = _set_distances(g, C)[2]
    # D_C's largest finite entry: + 1 wraps the unreached maximum to 0
    far = int((raw_dc + 1).max(initial=1)) - 1
    # an offer toward a target in another component reaches none of the
    # target's members, so such entries are dropped before sizing the dtype
    finite = (b < INF) & (comp[ids][:, None] == comp)
    cap = int(b.max(where=finite, initial=0)) + far + 1
    dtype, inf = _int_dtype(cap)
    b = np.where(finite, b, inf).astype(dtype)
    dc = as_hops(raw_dc, dtype, inf)

    def saturated(D):
        """D (as from `distance_blocks`) in `dtype`, at most min(cap,
        inf - 1), inf where unreached.  The minimum is taken in D's dtype,
        so that no distance wraps when narrowed; its bound is a row, because
        numpy's minimum against a scalar ran ten times slower on uint8."""
        top = np.iinfo(D.dtype).max
        out = np.minimum(D, np.full(n, min(cap, inf - 1, top), D.dtype))
        out = out.astype(dtype, copy=False)
        return np.maximum(out, np.multiply(D == top, inf, dtype=dtype), out=out)

    def block(T, dist):
        """(T, intercept) for one block of targets, or InadmissibleError."""
        j = np.arange(T.size)
        d = saturated(dist)
        bt = b[:, T]
        offer = _min_plus(bt, dc, inf)
        col = np.minimum(d, offer)
        intercept = offer < d
        del offer
        # offer < d lies within the target's component; colluder endpoints
        # are added within it
        intercept[:, ids] |= comp[T][:, None] == comp[ids]
        ct = np.flatnonzero(smask[T])
        intercept[ct] = comp[T[ct]][:, None] == comp
        intercept[j, T] = False

        # delivering colluders, k x |T|: (x, t) delivers at once when t is x
        # or its hop, or its hop is honest, live and attained by t's own
        # distance; else once a parent (y, t) does: y is x's colluder hop, or
        # y's offer sets the column at x's live honest hop (the sum is
        # unclamped: hcol < inf and 2 * inf fits).  Entries index deliver flat
        ht = hop[:, T]
        h = np.maximum(ht, 0)
        hcol = col[j, h]
        live = (ht >= 0) & ~smask[h] & (hcol < inf)
        deliver = (ht == T) | (ids[:, None] == T) | (live & (d[j, h] == hcol))
        flat = deliver.reshape(-1)
        via = np.flatnonzero(~deliver & (ht >= 0) & smask[h])
        off = np.flatnonzero(~deliver & live)
        oj = off % T.size
        y, m = np.nonzero(bt[:, oj] + dc[:, h.flat[off]] == hcol.flat[off])
        parent = np.concatenate((cidx[h.flat[via]] * T.size + via % T.size,
                                 y * T.size + oj[m]))
        child = np.concatenate((via, off[m]))
        while (new := child[flat[parent] & ~flat[child]]).size:
            flat[new] = True

        reached = col < inf
        # targets where a colluder that does not deliver offers something
        rows = np.flatnonzero((~deliver & (bt < inf)).any(axis=0))
        if rows.size:
            reached[rows] &= col[rows] == np.minimum(d[rows], _min_plus(
                np.where(deliver[:, rows], bt[:, rows], inf), dc, inf))
        reached[:, ids] = deliver.T
        reached[j, T] = True
        # reached lies within each target's component, so a row falls short
        # of its component's size exactly when it traps a member, and the
        # block short of their sum exactly when a row does
        need = sizes[comp[T]]
        if np.count_nonzero(reached) < need.sum():
            i = np.flatnonzero(np.count_nonzero(reached, axis=1) < need)[0]
            trapped = np.flatnonzero((comp == comp[T[i]]) & ~reached[i]).tolist()
            raise InadmissibleError((trapped[0], int(T[i])), trapped)
        return T, intercept

    yield from _over_blocks(g, C, block)


def check_admissible(g: Graph, strat: Strategy) -> AdmissibilityVerdict:
    """A strategy is admissible when, for every target, every node in the
    target's component can reach it in the per-target routing graph."""
    arrays = strat.validate(g)
    try:
        for _ in _closed_form_pass(g, arrays, component_labels(g)):
            pass
    except InadmissibleError as e:
        return AdmissibilityVerdict(False, e.pair, e.trapped)
    return AdmissibilityVerdict(True)
