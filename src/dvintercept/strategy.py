"""Colluder strategies: honest, independent lies, optimal separated broadcasts,
the adjacent-component generalization, and admissibility checking.

A strategy fixes, for every colluder, a full broadcast vector (the distances
it announces) and a per-target forwarding hop.  The central construction is
the minimal admissible broadcast for pairwise-separated colluders: each
colluder announces the smaller of its own single-agent lie max(1, d(x,t)-2)
and the best composite value obtained by relaying through other colluders.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import protocol
# distance_avoiding is not called here but stays importable because
# perfbench/tracing.py patches this name
from .graph import (INF, Graph, ParseError, distance_avoiding,  # noqa: F401
                    _colluder_tuple, _csr, _honest_rows, _over_blocks,
                    _memoized, _node_id, as_hops, component_labels,
                    distance_blocks, hop_distances, induced_subgraph)
from .protocol import _min_plus


class BudgetError(RuntimeError):
    """Exhaustive search would exceed its configured budget."""


def _distance_rows(g: Graph, S):
    """(at, D): D holds the int64 hop-distance rows of S and its neighbours
    in g, INF where unreachable.  Node v's row is D[at[v]]; at[v] = -1 for
    nodes not covered.  Every true distance that a build or the brute
    force's ranges read comes from these rows, held read-only in the slot
    of S's set (`graph._memoized`)."""
    S = _colluder_tuple(g.n, S)

    def rows():
        cover = np.zeros(g.n, np.bool_)
        cover[list(S)] = True
        cover[g.indices[np.repeat(cover, g.degrees())]] = True
        ids = np.flatnonzero(cover)
        at = np.full(g.n, -1, np.int64)
        at[ids] = np.arange(ids.size)
        return at, as_hops(hop_distances(g, ids))

    return _memoized(g, S, "rows", rows)


def _runs(g: Graph, V):
    """(nbrs, deg): the neighbour lists of the nodes V, one CSR run each,
    concatenated in the order of V, and their lengths."""
    V = np.asarray(V, np.int64).reshape(-1)
    lo, deg = g.indptr[V], g.indptr[V + 1] - g.indptr[V]
    return g.indices[np.repeat(lo - (np.cumsum(deg) - deg), deg)
                     + np.arange(deg.sum())], deg


def _closest_hops(g: Graph, rows, V) -> np.ndarray:
    """|V| x n int64: row i holds, per target, the lowest-id neighbour of
    V[i] minimizing true distance to it; -1 at V[i] itself, at unreachable
    targets and everywhere when V[i] has no neighbours.  `rows` = (at, D) as
    from `_distance_rows` and must cover the neighbours of V.

    Each neighbour's row is keyed min(d, n) * n + its id, so the least key
    of a node's neighbours gives the least distance and, among the
    neighbours attaining it, the lowest id; a key of n * n or more is an
    unreachable target.  The nodes are ranked by decreasing degree, so that
    the p-th neighbours of the nodes with more than p are the first c; in
    that position-major order the keys of as many whole positions as fit
    are gathered into one |V| x n buffer at a time, and each position's
    c rows are minimized into the first c rows of the result in place.  The
    transient is thus two |V| x n arrays, whatever the degrees of V
    (`np.minimum.reduceat` along the rows, which loops per column in C, ran
    2-4 times slower at n = 2000).
    """
    at, D = rows
    n = g.n
    V = np.asarray(V, np.int64).reshape(-1)
    deg = g.indptr[V + 1] - g.indptr[V]
    rank = np.argsort(-deg, kind="stable")
    lo, deg = g.indptr[V[rank]], deg[rank]
    # has[p, i]: the i-th ranked node has a p-th neighbour
    has = deg > np.arange(deg.max(initial=0))[:, None]
    nbrs = g.indices[(lo + np.arange(has.shape[0])[:, None])[has]]
    counts = has.sum(axis=1).tolist()
    # position p's keys are rows first[p]:first[p + 1] of the whole order
    first = np.cumsum([0] + counts).tolist()
    best = np.full((counts[0] if counts else 0, n), n * n, np.int64)
    buf = np.empty_like(best)

    def minimize(p, q):
        """Minimize the keys of positions p to q - 1, gathered into buf,
        into best."""
        nb = nbrs[first[p]:first[q]]
        key = buf[:nb.size]
        # mode="raise" would gather through a hidden buffer of key's size
        np.take(D, at[nb], axis=0, out=key, mode="clip")
        np.minimum(key, n, out=key)
        key *= n
        key += nb[:, None]
        for c, r in zip(counts[p:q], first[p:q]):
            r -= first[p]
            np.minimum(best[:c], key[r:r + c], out=best[:c])

    p = 0
    while p < len(counts):
        q = p + 1  # positions p to q - 1 fill the buffer
        while q < len(counts) and first[q + 1] - first[p] <= len(buf):
            q += 1
        minimize(p, q)
        p = q
    del buf
    unreached = best >= n * n
    best %= n
    best[unreached] = -1
    hop = np.full((V.size, n), -1, np.int64)
    hop[rank[:len(best)]] = best
    hop[np.arange(V.size), V] = -1
    return hop


def _honest(g: Graph, S):
    """(S, rows, b, hop): S as `_colluder_tuple`, the distance rows of S and
    its neighbours as from `_distance_rows`, and k x n int64 arrays in id
    order: fresh copies of the colluders' true distances and their
    `_closest_hops`, which every builder starts from and edits where it
    lies.  `_strategy` hands their rows out as the strategy's vectors."""
    S = _colluder_tuple(g.n, S)
    rows = at, D = _distance_rows(g, S)
    ids = np.asarray(S, np.int64)
    hop = _closest_hops(g, rows, ids)
    return S, rows, D[at[ids]], hop


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
        `protocol.validate_broadcasts`), then per colluder in id order a
        missing, misshapen or non-integer forward vector, or at its lowest
        target a hop that is neither -1 nor a neighbour."""
        for v, count in Counter(self.colluders).items():
            if count > 1:
                raise ValueError(f"colluder {v} is repeated")
        ids, b = protocol.validate_broadcasts(g.n, self.colluders, self.broadcast)
        hop, fault = protocol._int_rows(self.forward, ids, g.n, "forward")
        # ok[i, h + 1]: hop h is -1 or a neighbour of colluder i; column
        # n + 1 stands for every hop outside [-1, n), the uint64 view
        # sending those below -1 above n.  One flat lookup of every hop.
        k, w = len(hop), g.n + 2
        nbrs, deg = _runs(g, ids[:k])
        ok = np.zeros((k, w), np.bool_)
        ok[:, 0] = True
        ok[np.repeat(np.arange(k), deg), nbrs + 1] = True
        at = (hop + 1).view(np.uint64)
        np.minimum(at, w - 1, out=at)
        at += np.arange(0, k * w, w, dtype=np.uint64)[:, None]
        good = ok.take(at.view(np.int64))
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


def strategy_to_text(strat: Strategy) -> str:
    """One record per (colluder, target): `colluder target broadcast hop`;
    ValueError at a non-integer entry, which the format cannot hold."""
    lines = [f"# label {strat.label}", f"# colluders {' '.join(map(str, strat.colluders))}"]
    for v in strat.colluders:
        bv, fv = strat.broadcast[v], strat.forward[v]
        for what, vec in (("broadcast", bv), ("forward", fv)):
            if fault := protocol._non_integer(vec, what, v):
                raise fault
        for t in range(bv.shape[0]):
            b = "inf" if bv[t] >= INF else str(int(bv[t]))
            lines.append(f"{v} {t} {b} {int(fv[t])}")
    return "\n".join(lines) + "\n"


def strategy_from_text(text: str, n: int) -> Strategy:
    """Parse `strategy_to_text`'s format; ParseError at the first malformed
    or repeated (colluder, target) record."""
    label = "custom"
    broadcast: dict[int, np.ndarray] = {}
    forward: dict[int, np.ndarray] = {}
    first: dict[tuple[int, int], int] = {}  # (colluder, target) -> line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts and parts[0] == "label":
                if len(parts) < 2:
                    raise ParseError("label line without a label", lineno)
                label = parts[1]
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise ParseError(f"expected 4 tokens, got {len(tokens)}", lineno)
        try:
            v, t, h = (int(tok) for tok in tokens[:2] + tokens[3:])
            b = INF if tokens[2] == "inf" else int(tokens[2])
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", lineno) from None
        for name, node in (("colluder", v), ("target", t)):
            if not 0 <= node < n:
                raise ParseError(f"{name} {node} out of range for n={n}", lineno)
        if not -1 <= h < n:
            raise ParseError(f"hop {h} out of range for n={n}", lineno)
        if (v, t) in first:
            raise ParseError(f"record for colluder {v}, target {t} repeats "
                             f"line {first[v, t]}", lineno)
        first[v, t] = lineno
        if v not in broadcast:
            broadcast[v] = np.full(n, INF, np.int64)
            forward[v] = np.full(n, -1, np.int64)
        broadcast[v][t] = b
        forward[v][t] = h
    return Strategy(colluders=tuple(sorted(broadcast)), broadcast=broadcast,
                    forward=forward, label=label)


# ---------------------------------------------------------------------------
# basic strategies
# ---------------------------------------------------------------------------


def honest_strategy(g: Graph, S) -> Strategy:
    """Everyone announces true distances and forwards to a closest neighbour."""
    S, _, b, hop = _honest(g, S)
    return _strategy(S, b, hop, "honest")


def independent_strategy(g: Graph, S) -> Strategy:
    """Each colluder lies on its own: announce max(1, d(v,t)-2) per target and
    forward to a true-closest neighbour."""
    S, _, b, hop = _honest(g, S)
    np.copyto(b, np.maximum(1, b - 2), where=b < INF)
    b[np.arange(len(S)), np.asarray(S, np.int64)] = 0
    return _strategy(S, b, hop, "independent")


# ---------------------------------------------------------------------------
# colluding distances and the separated optimum
# ---------------------------------------------------------------------------


def colluding_distance(g: Graph, C, x: int, y: int, j: int) -> int:
    """Minimum, over ordered sequences of j distinct colluders from x to y,
    of the sum of consecutive true distances; INF if no such sequence."""
    C = _colluder_tuple(g.n, C)
    if x not in C or y not in C:
        raise ValueError("x and y must be colluders")
    if j < 1:
        raise ValueError("j must be >= 1")
    if j > len(C):
        return INF
    if j == 1:
        return 0 if x == y else INF
    if x == y:
        return INF
    at, D = _distance_rows(g, C)
    middle = [v for v in C if v != x and v != y]
    best = INF
    for perm in itertools.permutations(middle, j - 2):
        seq = (x, *perm, y)
        steps = [int(D[at[a], b]) for a, b in zip(seq, seq[1:])]
        if max(steps) < INF:
            best = min(best, sum(steps))
    return best


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
    """(src, dst): the arcs joining two members of the colluder set C, in
    CSR order, read from the colluders' own runs."""
    ids = np.asarray(_colluder_tuple(g.n, C), np.int64)
    nbrs, deg = _runs(g, ids)
    cmask = np.zeros(g.n, np.bool_)
    cmask[ids] = True
    close = cmask[nbrs]
    return np.repeat(ids, deg)[close], nbrs[close]


def _check_separated(g: Graph, C) -> None:
    """ValueError naming the least adjacent colluder pair (x, y), x < y.  It
    is the first arc between two colluders in CSR order: its source x is the
    least colluder with a colluder neighbour, so each such neighbour is
    above x."""
    src, dst = _colluder_arcs(g, C)
    if src.size:
        x, y = src[0], dst[0]
        raise ValueError(
            f"colluders {x} and {y} are not separated "
            "(distance < 2); use adjacent_strategy"
        )


# the rho* kernel's INF; hop distances, and sums of two of them, stay below
_PLAN_INF = 1 << 29


def _rho_star_plans(g: Graph, C, rows, hops, order=None, targets=None):
    """The rho* label setting toward every target at once.

    C is the sorted tuple of a colluder set with no two members adjacent,
    `rows` = (at, D) as from `_distance_rows` (covering C and its
    neighbours), `hops` C's `_closest_hops` and `targets` defaults to every
    non-colluder.  Returns (T, val, fn, pred, hop), each of the last four a
    k x |T| int64 array indexed [colluder index, target index]: the plan
    value, forwarding number, index of the predecessor on the witness chain
    (-1 for none) and exit hop (-1 where the value is INF).

    Step i settles, per target, the unsettled colluder with the least
    (tentative value, id), or order[i] when `order` is given, then relaxes
    every unsettled colluder z to max(1, d(x, z) - 2 + val); only a strict
    improvement makes x the predecessor of z.  The exit hop is the closest
    hop toward the predecessor, or toward the target when there is none.

    The state is |T| x (k + 1) int32, one row per target, read and written
    through flat indices.  A settled entry holds -1, which no candidate
    beats and which argmin over the uint32 view never picks.  INF is
    _PLAN_INF, and an INF distance between colluders is _PLAN_INF + 2:
    colluders are at least 2 apart, so every candidate through an INF is at
    least _PLAN_INF and never strictly improves.  Column k stands for "no
    predecessor", with forwarding number 0.
    """
    at, D = rows
    ids = np.asarray(C, np.int64)
    k = ids.size
    T = (np.flatnonzero(~np.isin(np.arange(g.n), ids)) if targets is None
         else np.asarray(targets, np.int64).reshape(-1))
    if order is not None:
        order = [int(v) for v in order]
        if sorted(order) != list(C):
            raise ValueError("order must be a permutation of the colluder set")
        order = np.searchsorted(ids, order)
    inf, w = _PLAN_INF, k + 1
    DC = D[at[ids]]
    # row x: the distances from colluder x to every colluder; column k, which
    # stands for no colluder, is never relaxed, its entries being settled
    dcc = np.full((k, w), inf + 2, np.int64)
    dcc[:, :k] = np.where(DC[:, ids] < INF, DC[:, ids], inf + 2)
    dcc = dcc.astype(np.int32)
    d = DC[:, T].T
    tent = np.full((T.size, w), -1, np.int32)
    tent[:, :k] = np.where(d < INF, np.maximum(1, d - 2), inf)
    via = np.full((T.size, w), k, np.int32)
    fn = np.zeros((T.size, w), np.int32)
    val = np.empty((T.size, w), np.int32)
    base = np.arange(T.size) * w
    for step in range(k):
        if order is None:
            # argmin's first minimum is the lowest id, C being sorted
            x = tent.view(np.uint32).argmin(axis=1)
        else:
            x = np.full(T.size, order[step])
        flat = base + x
        v = tent.take(flat)
        val.put(flat, v)
        tent.put(flat, -1)
        fn.put(flat, fn.take(base + via.take(flat)) + 1)
        cand = dcc.take(x, axis=0)
        cand += (v - 2)[:, None]
        np.maximum(cand, 1, out=cand)
        better = cand < tent
        np.copyto(tent, cand, where=better)
        np.copyto(via, x[:, None], where=better)
    # widened before INF is written, which int32 cannot hold
    val = val[:, :k].T.astype(np.int64)
    val[val >= inf] = INF
    pred = via[:, :k].T.astype(np.int64)
    pred[pred == k] = -1
    toward = np.where(pred >= 0, ids[pred], T)
    hops = np.asarray(hops, np.int64).reshape(k, g.n)
    hop = np.where(val < INF, hops.take(np.arange(k)[:, None] * g.n + toward), -1)
    return T, val, fn[:, :k].T.astype(np.int64), pred, hop


def rho_star_plan(g: Graph, C, t: int, *, order=None) -> RhoStarPlan:
    """Optimal broadcasts toward t for pairwise-separated colluders.

    Label-setting over colluders: each settles at the minimum of its own lie
    max(1, d(x,t)-2) and max(1, d(x,y)-2 + value(y)) over settled colluders y.
    With `order` given, colluders settle in exactly that sequence and may only
    relay through earlier entries.  A colluder is proper (forwarding_number
    > 1) only when a relay value strictly beats its own lie.
    """
    C = _colluder_tuple(g.n, C)
    t = _node_id(g.n, t, "target")
    if t in C:
        raise ValueError("target must not be a colluder")
    _check_separated(g, C)
    rows = _distance_rows(g, C)
    _, val, fn, pred, hop = _rho_star_plans(
        g, C, rows, _closest_hops(g, rows, C), order=order, targets=[t])
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
    _check_separated(g, C)
    return replace(adjacent_strategy(g, C), label="rho_star")


# ---------------------------------------------------------------------------
# adjacent colluders: quotient construction
# ---------------------------------------------------------------------------


def colluder_components(g: Graph, C) -> list[tuple[int, ...]]:
    """Connected components of the subgraph induced on the colluder set,
    ordered by lowest member id: `component_labels` of that subgraph, whose
    labels count up from the component of its lowest member.  With no arc
    between two colluders every component is a single colluder."""
    C = _colluder_tuple(g.n, C)
    if not _colluder_arcs(g, C)[0].size:
        return [(v,) for v in C]
    comps: list[list[int]] = [[] for _ in C]
    for v, label in zip(C, component_labels(induced_subgraph(g, C)).tolist()):
        comps[label].append(v)
    return [tuple(comp) for comp in comps if comp]


def _quotient(g: Graph, comps):
    """Contract each colluder component to one node.

    Quotient ids follow original-id order: honest nodes keep their relative
    order, each component sits at its lowest member.  Returns (quotient
    graph, qid array mapping original -> quotient id, honest_of array mapping
    quotient id -> original id, -1 at component nodes, comp quotient ids
    list).
    """
    rep = np.arange(g.n)  # the lowest member of each node's component
    colluder = np.zeros(g.n, np.bool_)
    for comp in comps:
        rep[list(comp)] = comp[0]
        colluder[list(comp)] = True
    nodes = np.flatnonzero(rep == np.arange(g.n))
    qid = np.searchsorted(nodes, rep)
    gq = _csr(nodes.size, np.repeat(qid, g.degrees()), qid[g.indices])
    honest_of = np.where(colluder[nodes], -1, nodes)
    return gq, qid, honest_of, [int(qid[comp[0]]) for comp in comps]


def _intra_component_hops(g: Graph, comp) -> np.ndarray:
    """H[a, b]: the lowest-id neighbour of comp[a] one step closer to comp[b]
    along shortest paths inside the component, -1 on the diagonal.  `comp`
    is a sorted colluder component of at least two members."""
    sub = induced_subgraph(g, comp)  # node a is comp[a], so ids keep their order
    rows = _distance_rows(sub, range(sub.n))
    hops = _closest_hops(sub, rows, np.arange(sub.n))
    return np.where(hops >= 0, np.asarray(comp)[hops], -1)


def _narrow(a):
    """a in the narrowest integer dtype that holds its values."""
    lo, hi = int(a.min(initial=0)), int(a.max(initial=0))
    return a.astype(np.min_scalar_type(min(lo, -1 - hi)) if lo < 0
                    else np.min_scalar_type(hi))


def adjacent_strategy(g: Graph, C, component_order=None) -> Strategy:
    """Generalized strategy allowing adjacent colluders.

    Colluder components are contracted to single nodes; the separated optimum
    runs on the quotient.  Per target, each component designates an exit
    member adjacent to the first honest vertex of its witness chain; the exit
    announces the quotient plan value, other members announce the tightest
    safe lower bound derived from already-perceived distances, and internal
    traffic is relayed to the exit.  With no two colluders adjacent every
    component is one colluder and the quotient is g itself; that case is
    separated_strategy.  The plan of the default order is held in the slot
    of C's set (`graph._memoized`), so that a separated and an adjacent
    build on one set run one label setting.
    """
    C, rows, b, hop = _honest(g, C)
    ids = np.asarray(C, np.int64)
    comps = colluder_components(g, C)
    sizes = [len(comp) for comp in comps]
    cnum = np.full(g.n, -1, np.int64)  # component index of each colluder
    cnum[list(itertools.chain(*comps))] = np.repeat(np.arange(len(comps)), sizes)
    # relay bounds (multi-node components only) need the synchronized column
    relays = any(size > 1 for size in sizes)
    if relays:
        gq, qid, honest_of, comp_qid = _quotient(g, comps)
    else:
        # quotient ids follow original-id order, so with every component a
        # singleton the quotient is g itself with the same ids and hops
        gq, comp_qid = g, list(C)
        qid = honest_of = np.arange(g.n)

    qorder = None
    if component_order is not None:
        seen_ci = []
        for item in component_order:
            members = (item,) if isinstance(item, (int, np.integer)) else tuple(item)
            for m in members:
                if not 0 <= int(m) < g.n or cnum[int(m)] < 0:
                    raise ValueError(f"order item {item!r}: {m} is not a colluder")
            cis = {int(cnum[int(m)]) for m in members}
            if len(cis) != 1:
                raise ValueError(f"order item {item!r} spans multiple components")
            seen_ci.append(cis.pop())
        if sorted(seen_ci) != list(range(len(comps))):
            raise ValueError("component_order must list every component exactly once")
        qorder = [comp_qid[ci] for ci in seen_ci]

    T = np.flatnonzero(~np.isin(np.arange(g.n), C))

    def plan():
        """(value, forwarding number, exit hop) per (component, target in
        T), each in the narrowest dtype that holds it; the value is kept
        only where the exit hop is not -1, the entries with a finite value,
        and is 0 elsewhere."""
        qrows, qhops = rows, hop
        if relays:
            qrows = _distance_rows(gq, comp_qid)
            qhops = _closest_hops(gq, qrows, comp_qid)
        _, val, fn, _, qhop = _rho_star_plans(gq, tuple(comp_qid), qrows, qhops,
                                              order=qorder, targets=qid[T])
        return _narrow(np.where(qhop >= 0, val, 0)), _narrow(fn), _narrow(qhop)

    val, fn, qhop = plan() if qorder is not None else _memoized(g, C, "plan", plan)
    # colluder targets and components without a finite plan value keep the
    # honest broadcast and hop
    live = qhop >= 0
    w = np.where(live, honest_of[np.maximum(qhop, 0)], -1)  # first honest vertex
    wi = np.maximum(w, 0)  # read only where live
    # the exit member per (component, target) is the lowest-id member
    # adjacent to w: lowest[ci, u] is that member for node u, n for none
    nbrs, deg = _runs(g, ids)
    src = np.repeat(ids, deg)
    lowest = np.full((len(comps), g.n), g.n, np.int64)
    np.minimum.at(lowest, (cnum[src], nbrs), src)
    exits = lowest[np.arange(len(comps))[:, None], wi]
    exits[~live | (exits == g.n)] = -1
    # each colluder announces its component's plan value, and forwards to w,
    # toward the targets where it is the exit
    mine = exits[cnum[ids]] == ids[:, None]
    for a, planned in ((b, val), (hop, w)):
        cols = a[:, T]
        np.copyto(cols, planned[cnum[ids]], where=mine)
        a[:, T] = cols
    for ci, comp in enumerate(comps):
        if len(comp) > 1:
            # internal traffic is relayed toward the exit, which keeps w
            sel = exits[ci] >= 0
            inner = _intra_component_hops(g, comp)[
                :, np.searchsorted(comp, exits[ci, sel])]
            at = np.ix_(np.searchsorted(ids, comp), T[sel])
            hop[at] = np.where(inner >= 0, inner, hop[at])
    if not relays:
        return _strategy(C, b, hop, "adjacent_general")

    # Relay bounds read the synchronized column at each exit's first honest
    # vertex w, min(D_{G-S}(w, t), min over x of b_x[t] + D_C(x, w)), with
    # D_G(w, t) from the held rows (w neighbours its component) in place of
    # D_{G-S}(w, t): a shortest w-t path avoids S or first meets a colluder x
    # through honest nodes, so D_G(w, t) = min(D_{G-S}(w, t), min over x of
    # D_C(x, w) + D_G(x, t)), and each b_x[t] <= D_G(x, t) (exits announce
    # plan values, at most max(1, D_G(exit, t) - 2) as quotient distances
    # never exceed true ones; the rest their true distance).
    has = exits >= 0
    col = rows[1][np.maximum(rows[0][wi], 0), T]  # clamped where no exit
    for bx, dx in zip(b[:, T], as_hops(_honest_rows(g, C))):
        dxw = dx[wi]
        col = np.minimum(col, np.where((bx < INF) & (dxw < INF), bx + dxw, INF))
    # Per member x of a multi-node component ci, the bound is the largest
    # col[w] - d(x, w), or 1 when there is none, over the components cj with
    # an exit and a forwarding number no larger than ci's, d avoiding cj's
    # members but x: one BFS per cj from every such x, cj sealed.
    X = np.array([x for comp in comps if len(comp) > 1 for x in comp], np.int64)
    ci_of = cnum[X]
    best = np.full((X.size, T.size), -INF)
    for cj in np.flatnonzero(has.any(axis=1)):
        dwx = as_hops(hop_distances(g, X, sealed=comps[cj])[:, wi[cj]])
        ok = has[cj] & (fn[cj] <= fn[ci_of]) & (dwx < INF)
        best = np.where(ok, np.maximum(best, col[cj] - dwx), best)
    # every member but the exit announces its bound
    at = np.ix_(np.searchsorted(ids, X), T)
    b[at] = np.where(has[ci_of] & (exits[ci_of] != X[:, None]),
                     np.maximum(1, best), b[at])
    return _strategy(C, b, hop, "adjacent_general")


# ---------------------------------------------------------------------------
# admissibility and benefit
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


def _closed_form_pass(g: Graph, strat: Strategy, comp):
    """The pass shared by the admissibility check and the count, in closed
    form over blocks of targets T; `comp` is `component_labels(g)`, which
    each caller computes once.  Reads the strategy only through
    `Strategy.validate`'s arrays.  Yields (T, intercept): intercept is a
    |T| x n bool array marking s -> T[i] as intercepted at [i, s].  Raises
    InadmissibleError at the first target with members of its component
    that cannot reach it in the routing graph.  Each block, with its BFS,
    is one call of `graph._over_blocks`, which may run the next blocks on
    other threads; results and the error still come in target order.

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

    The integers are sized by the offers, not by n.  With cap the largest
    finite b_x[t] (x and t in one component) plus the largest finite D_C
    entry plus 1, every offer is below cap or the sentinel inf, and so is
    every minimum of offers.  D is saturated at c = min(cap, inf - 1), inf
    where unreached.  For a distance d >= c and any such offer o, o < d iff
    o < c (o < cap <= d, or o = inf), and min(d, o) is o, or at least c
    when o is inf; so intercept, col < inf, hcol, direct, attains and the
    odel test come out as for the true distance.  (With cap > inf - 1, in
    int64 only, c = INF exceeds every hop distance and nothing saturates.)
    uint8 thus serves whenever every offer is below 127, however long the
    paths in G - S.

    Offers, and with them intercept and reached, are finite only within the
    target's component, where every delivering colluder lies too; so the
    component test is made only in the colluder columns and rows.
    """
    C, b, hop = strat.validate(g)
    n, ids = g.n, np.asarray(C, np.int64)
    cidx = np.full(n, -1, np.int64)  # node id -> colluder index
    cidx[ids] = np.arange(ids.size)
    smask = cidx >= 0
    sizes = np.bincount(comp)
    # an offer toward a target in another component reaches none of the
    # target's members, so such entries are dropped before sizing the dtype
    b[comp[ids][:, None] != comp] = INF
    raw_dc = _honest_rows(g, C)
    finite_b = b[b < INF]
    finite_dc = raw_dc[raw_dc < np.iinfo(raw_dc.dtype).max]
    cap = (int(finite_b.max()) if finite_b.size else 0) \
        + (int(finite_dc.max()) if finite_dc.size else 0) + 1
    dtype, inf = _int_dtype(cap)
    b = np.where(b < INF, b, inf).astype(dtype)
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

        # delivering colluders: a k x |T| least fixpoint read at the
        # colluders' hops.  An entry toward t delivers at once when t is the
        # colluder or its hop, or its hop is honest and live and attained by
        # t's own distance; only the others, whose hop is a colluder or
        # another live honest node, are iterated, by flat index into deliver
        ht = hop[:, T]
        h = np.maximum(ht, 0)
        hcol = col[j, h]
        live = (ht >= 0) & ~smask[h] & (hcol < inf)
        deliver = (ht == T) | (ids[:, None] == T) | (live & (d[j, h] == hcol))
        flat = deliver.reshape(-1)
        # an entry with a colluder hop delivers when the hop's entry does;
        # one with a live honest hop when a delivering colluder y's offer
        # sets the column there, attains[y, e] (unclamped: hcol < inf, and
        # 2 * inf fits)
        via = np.flatnonzero(~deliver & (ht >= 0) & smask[h])
        src = cidx[h.flat[via]] * T.size + via % T.size
        off = np.flatnonzero(~deliver & live)
        oj = off % T.size
        if off.size:
            attains = bt[:, oj] + dc[:, h.flat[off]] == hcol.flat[off]
        grown = True
        while grown:
            grown = False
            if via.size and (got := flat[src]).any():
                flat[via[got]] = True
                via, src = via[~got], src[~got]
                grown = True
            if off.size and (got := (attains & deliver[:, oj]).any(axis=0)).any():
                flat[off[got]] = True
                off, oj, attains = off[~got], oj[~got], attains[:, ~got]
                grown = True

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
    try:
        for _ in _closed_form_pass(g, strat, component_labels(g)):
            pass
    except InadmissibleError as e:
        return AdmissibilityVerdict(False, e.pair, e.trapped)
    return AdmissibilityVerdict(True)


def is_beneficial(g: Graph, strat: Strategy) -> bool:
    """True when the strategy strictly beats the honest strategy on the same
    colluder set in worst-case ordered interception."""
    from .interception import intercepted_pairs

    res = intercepted_pairs(g, strat)
    base = intercepted_pairs(g, honest_strategy(g, strat.colluders))
    return res.fraction_ordered > base.fraction_ordered


_COMBOS = 4096  # combinations per brute-force step, ~3 int64 + 2k bytes per node


def minimal_admissible_bruteforce(g: Graph, C, t: int, budget: int = 10**6):
    """Entrywise-minimal admissible broadcasts toward t by exhaustion.

    Other targets stay honest, so only the column for t constrains anything.
    A broadcast vector counts admissible when some forwarding commitment
    delivers every same-component message, i.e. when the closed form of
    `_closed_form_pass`, with colluders fanning out to all neighbours, lets
    the whole component reach t.
    Returns (colluder order, Pareto frontier of admissible vectors).
    """
    C = _colluder_tuple(g.n, C)
    t = _node_id(g.n, t, "target")
    if t in C:
        raise ValueError("target must not be a colluder")
    at, DG = _distance_rows(g, C)  # the ranges run up to D_G(x, t)
    ranges = [tuple(range(1, d + 1)) if d < INF else (INF,)
              for d in DG[at[list(C)], t].tolist()]
    if math.prod(map(len, ranges)) > budget:
        raise BudgetError(f"search space exceeds budget of {budget}")
    k, inf = len(C), INF + 1
    # t's row of D_{G-S} and D_C, as the pass reads them; every block is
    # read, so that the graph holds them for the set's other targets
    for T, D in distance_blocks(g, C):
        if T[0] <= t <= T[-1]:
            d = as_hops(D[t - T[0]], inf=inf)
    dc = as_hops(_honest_rows(g, C), inf=inf)
    comp = component_labels(g)
    combos = itertools.product(*ranges)
    admissible = []
    while chunk := list(itertools.islice(combos, _COMBOS)):
        bt = np.array(chunk, np.int64).reshape(len(chunk), k).T
        bt[bt >= INF] = inf
        col = np.minimum(d, _min_plus(bt, dc, inf))
        finite = col < inf
        direct = (d == col) & finite
        # attains[i, m, s]: colluder C[i]'s offer sets s's belief; at s = C[i]
        # only its own does, so good there is its deliver flag
        attains = (bt[:, :, None] + dc[:, None, :] == col) & finite
        # deliver reaches its least fixpoint within k steps, good last reads it
        deliver = np.zeros(bt.shape, np.bool_)
        for _ in range(k + 1):
            good = direct | (attains & deliver[:, :, None]).any(axis=0)
            deliver = np.array([good[:, g.neighbors(x)].any(axis=1) for x in C],
                               np.bool_).reshape(bt.shape)
        ok = good[:, comp == comp[t]].all(axis=1)
        admissible += [combo for combo, a in zip(chunk, ok) if a]
    frontier = [a for a in admissible
                if not any(b != a and all(bi <= ai for bi, ai in zip(b, a))
                           for b in admissible)]
    return C, sorted(frontier)
