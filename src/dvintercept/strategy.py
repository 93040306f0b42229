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
from dataclasses import dataclass, field

import numpy as np

from . import kernels, protocol
# distance_avoiding is no longer called here (relay_row in adjacent_strategy
# runs its BFS once per member and component) but stays importable because
# perfbench/tracing.py patches this name
from .graph import (Graph, component_labels, distance_avoiding,  # noqa: F401
                    distance_blocks)
from .kernels import INF


class BudgetError(RuntimeError):
    """Exhaustive search would exceed its configured budget."""


class _DistCache:
    """Memoized single-source BFS rows."""

    def __init__(self, g: Graph):
        self.g = g
        self._rows: dict[int, np.ndarray] = {}

    def row(self, s: int) -> np.ndarray:
        r = self._rows.get(s)
        if r is None:
            r = kernels.bfs(self.g.indptr, self.g.indices, s)
            self._rows[s] = r
        return r


def _closest_hop(g: Graph, dist_t: np.ndarray, v: int) -> int:
    """Lowest-id neighbour of v minimizing true distance to the target whose
    distance row is dist_t; -1 if the target is unreachable."""
    nbrs = g.neighbors(v)
    if nbrs.size == 0:
        return -1
    vals = dist_t[nbrs]
    best = vals.min()
    if best >= INF:
        return -1
    return int(nbrs[vals == best][0])


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

    def validate(self, g: Graph) -> None:
        protocol.validate_broadcasts(g.n, self.colluders, self.broadcast)
        for v in self.colluders:
            hops = self.forward[v]
            if hops.shape != (g.n,):
                raise ValueError(f"forward vector for node {v} has shape {hops.shape}")
            bad = np.flatnonzero((hops >= 0) & ~np.isin(hops, g.neighbors(v)))
            if bad.size:
                t = int(bad[0])
                raise ValueError(
                    f"forward({v},{t}) = {int(hops[t])} is not a neighbour"
                )


def strategy_to_text(strat: Strategy) -> str:
    """One record per (colluder, target): `colluder target broadcast hop`."""
    lines = [f"# label {strat.label}", f"# colluders {' '.join(map(str, strat.colluders))}"]
    for v in strat.colluders:
        bv, fv = strat.broadcast[v], strat.forward[v]
        for t in range(bv.shape[0]):
            b = "inf" if bv[t] >= INF else str(int(bv[t]))
            lines.append(f"{v} {t} {b} {int(fv[t])}")
    return "\n".join(lines) + "\n"


def strategy_from_text(text: str, n: int) -> Strategy:
    label = "custom"
    broadcast: dict[int, np.ndarray] = {}
    forward: dict[int, np.ndarray] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts and parts[0] == "label":
                label = parts[1]
            continue
        v_s, t_s, b_s, h_s = line.split()
        v, t = int(v_s), int(t_s)
        if v not in broadcast:
            broadcast[v] = np.full(n, INF, np.int64)
            forward[v] = np.full(n, -1, np.int64)
        broadcast[v][t] = INF if b_s == "inf" else int(b_s)
        forward[v][t] = int(h_s)
    return Strategy(colluders=tuple(sorted(broadcast)), broadcast=broadcast,
                    forward=forward, label=label)


# ---------------------------------------------------------------------------
# basic strategies
# ---------------------------------------------------------------------------


def honest_strategy(g: Graph, S) -> Strategy:
    """Everyone announces true distances and forwards to a closest neighbour."""
    S = tuple(sorted(set(int(v) for v in S)))
    cache = _DistCache(g)
    broadcast = {v: cache.row(v).copy() for v in S}
    forward = {v: np.full(g.n, -1, np.int64) for v in S}
    for t in range(g.n):
        dist_t = cache.row(t)
        for v in S:
            if v != t:
                forward[v][t] = _closest_hop(g, dist_t, v)
    return Strategy(colluders=S, broadcast=broadcast, forward=forward, label="honest")


def independent_strategy(g: Graph, S) -> Strategy:
    """Each colluder lies on its own: announce max(1, d(v,t)-2) per target and
    forward to a true-closest neighbour."""
    S = tuple(sorted(set(int(v) for v in S)))
    cache = _DistCache(g)
    broadcast = {}
    forward = {v: np.full(g.n, -1, np.int64) for v in S}
    for v in S:
        d = cache.row(v)
        bv = np.maximum(np.int64(1), d - 2)
        bv[d >= INF] = INF
        bv[v] = 0
        broadcast[v] = bv
    for t in range(g.n):
        dist_t = cache.row(t)
        for v in S:
            if v != t:
                forward[v][t] = _closest_hop(g, dist_t, v)
    return Strategy(colluders=S, broadcast=broadcast, forward=forward,
                    label="independent")


# ---------------------------------------------------------------------------
# colluding distances and the separated optimum
# ---------------------------------------------------------------------------


def colluding_distance(g: Graph, C, x: int, y: int, j: int) -> int:
    """Minimum, over ordered sequences of j distinct colluders from x to y,
    of the sum of consecutive true distances; INF if no such sequence."""
    C = sorted(set(int(v) for v in C))
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
    cache = _DistCache(g)
    middle = [v for v in C if v != x and v != y]
    best = INF
    for perm in itertools.permutations(middle, j - 2):
        seq = (x, *perm, y)
        total = 0
        for a, b in zip(seq, seq[1:]):
            d = int(cache.row(a)[b])
            if d >= INF:
                total = INF
                break
            total += d
        best = min(best, total)
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


def _check_separated(C, cache: _DistCache) -> None:
    for i, x in enumerate(C):
        row = cache.row(x)
        for y in C[i + 1 :]:
            if row[y] < 2:
                raise ValueError(
                    f"colluders {x} and {y} are not separated "
                    "(distance < 2); use adjacent_strategy"
                )


def rho_star_plan(g: Graph, C, t: int, *, cache: _DistCache | None = None,
                  target_row: np.ndarray | None = None, order=None) -> RhoStarPlan:
    """Optimal broadcasts toward t for pairwise-separated colluders.

    Label-setting over colluders: each settles at the minimum of its own lie
    max(1, d(x,t)-2) and max(1, d(x,y)-2 + value(y)) over settled colluders y.
    With `order` given, colluders settle in exactly that sequence and may only
    relay through earlier entries.  A colluder is proper (forwarding_number
    > 1) only when a relay value strictly beats its own lie.
    """
    C = tuple(sorted(set(int(v) for v in C)))
    if t in C:
        raise ValueError("target must not be a colluder")
    if cache is None:
        cache = _DistCache(g)
    _check_separated(C, cache)
    dt = target_row if target_row is not None else cache.row(t)

    def clamp(v):
        return INF if v >= INF else max(1, v)

    val: dict[int, int] = {}
    pred: dict[int, int | None] = {}
    entries: dict[int, RhoStarEntry] = {}

    if order is None:
        tent = {x: clamp(int(dt[x]) - 2) for x in C}
        via: dict[int, int | None] = {x: None for x in C}
        unsettled = set(C)
        settle_seq = []
        while unsettled:
            x = min(unsettled, key=lambda v: (tent[v], v))
            unsettled.discard(x)
            val[x] = tent[x]
            pred[x] = via[x]
            settle_seq.append(x)
            if val[x] >= INF:
                continue
            row = cache.row(x)
            for z in unsettled:
                d = int(row[z])
                if d >= INF:
                    continue
                cand = clamp(d - 2 + val[x])
                if cand < tent[z]:
                    tent[z] = cand
                    via[z] = x
    else:
        settle_seq = [int(v) for v in order]
        if sorted(settle_seq) != list(C):
            raise ValueError("order must be a permutation of the colluder set")
        for x in settle_seq:
            best = clamp(int(dt[x]) - 2)
            best_pred: int | None = None
            for y in val:
                if val[y] >= INF:
                    continue
                d = int(cache.row(y)[x])
                if d >= INF:
                    continue
                cand = clamp(d - 2 + val[y])
                if cand < best:
                    best = cand
                    best_pred = y
            val[x] = best
            pred[x] = best_pred

    for x in settle_seq:
        p = pred[x]
        if val[x] >= INF:
            entries[x] = RhoStarEntry(value=INF, forwarding_number=1,
                                      witness=(x,), exit_hop=-1)
            continue
        if p is None:
            fn, witness = 1, (x,)
            toward = dt
        else:
            prev = entries[p]
            fn, witness = prev.forwarding_number + 1, (x,) + prev.witness
            toward = cache.row(p)
        entries[x] = RhoStarEntry(value=val[x], forwarding_number=fn,
                                  witness=witness,
                                  exit_hop=_closest_hop(g, toward, x))
    return RhoStarPlan(target=t, entries=entries)


def separated_strategy(g: Graph, C) -> Strategy:
    """Optimal uniform broadcasts for a pairwise-separated colluder set."""
    C = tuple(sorted(set(int(v) for v in C)))
    cache = _DistCache(g)
    _check_separated(C, cache)
    cset = set(C)
    broadcast = {v: cache.row(v).copy() for v in C}
    forward = {v: np.full(g.n, -1, np.int64) for v in C}
    for t in range(g.n):
        if t in cset:
            # intercepted by definition: stay honest toward colluder targets
            for v in C:
                if v != t:
                    forward[v][t] = _closest_hop(g, cache.row(t), v)
            continue
        dt = cache.row(t)
        plan = rho_star_plan(g, C, t, cache=cache, target_row=dt)
        for v in C:
            e = plan.entries[v]
            broadcast[v][t] = e.value
            forward[v][t] = e.exit_hop
    return Strategy(colluders=C, broadcast=broadcast, forward=forward,
                    label="rho_star")


# ---------------------------------------------------------------------------
# adjacent colluders: quotient construction
# ---------------------------------------------------------------------------


def colluder_components(g: Graph, C) -> list[tuple[int, ...]]:
    """Connected components of the subgraph induced on the colluder set,
    ordered by lowest member id."""
    cset = set(int(v) for v in C)
    seen: set[int] = set()
    comps = []
    for s in sorted(cset):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                v = int(v)
                if v in cset and v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(tuple(sorted(comp)))
    return comps


def _quotient(g: Graph, comps):
    """Contract each colluder component to one node.

    Quotient ids follow original-id order: honest nodes keep their relative
    order, each component sits at its lowest member.  Returns (quotient
    graph, qid array mapping original -> quotient id, honest_of mapping
    quotient honest id -> original id, comp quotient ids list).
    """
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    qid = np.full(g.n, -1, np.int64)
    honest_of: dict[int, int] = {}
    comp_qid = [-1] * len(comps)
    nxt = 0
    for v in range(g.n):
        if v in comp_of:
            ci = comp_of[v]
            if comp_qid[ci] < 0:
                comp_qid[ci] = nxt
                nxt += 1
            qid[v] = comp_qid[ci]
        else:
            qid[v] = nxt
            honest_of[nxt] = v
            nxt += 1
    edges = set()
    for u, v in g.edges():
        a, b = int(qid[u]), int(qid[v])
        if a != b:
            edges.add((min(a, b), max(a, b)))
    from .graph import from_edges

    gq = from_edges(nxt, edges)
    return gq, qid, honest_of, comp_qid


def _intra_component_hops(g: Graph, comp, exit_node: int) -> dict[int, int]:
    """Next hop toward the exit along shortest paths inside the component."""
    cset = set(comp)
    depth = {exit_node: 0}
    frontier = [exit_node]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                v = int(v)
                if v in cset and v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    hops = {}
    for x in comp:
        if x == exit_node:
            continue
        best = min(
            (int(v) for v in g.neighbors(x) if int(v) in depth
             and depth[int(v)] == depth[x] - 1),
        )
        hops[x] = best
    return hops


def adjacent_strategy(g: Graph, C, component_order=None) -> Strategy:
    """Generalized strategy allowing adjacent colluders.

    Colluder components are contracted to single nodes; the separated optimum
    runs on the quotient.  Per target, each component designates an exit
    member adjacent to the first honest vertex of its witness chain; the exit
    announces the quotient plan value, other members announce the tightest
    safe lower bound derived from already-perceived distances, and internal
    traffic is relayed to the exit.  On a separated set this reproduces
    separated_strategy exactly.
    """
    C = tuple(sorted(set(int(v) for v in C)))
    cset = set(C)
    cache = _DistCache(g)
    comps = colluder_components(g, C)
    gq, qid, honest_of, comp_qid = _quotient(g, comps)
    qcache = _DistCache(gq)
    comp_index = {cq: ci for ci, cq in enumerate(comp_qid)}

    qorder = None
    if component_order is not None:
        seen_ci = []
        for item in component_order:
            members = (item,) if isinstance(item, (int, np.integer)) else tuple(item)
            cis = {next(ci for ci, comp in enumerate(comps) if int(m) in comp)
                   for m in members}
            if len(cis) != 1:
                raise ValueError(f"order item {item!r} spans multiple components")
            seen_ci.append(cis.pop())
        if sorted(seen_ci) != list(range(len(comps))):
            raise ValueError("component_order must list every component exactly once")
        qorder = [comp_qid[ci] for ci in seen_ci]

    pmask = np.zeros(g.n, np.bool_)
    pmask[list(C)] = True
    broadcast = {v: cache.row(v).copy() for v in C}
    forward = {v: np.full(g.n, -1, np.int64) for v in C}
    # relay bounds (multi-node components only) need the synchronized column
    relays = any(len(comp) > 1 for comp in comps)
    relay_rows: dict[tuple[int, int], np.ndarray] = {}

    def relay_row(x: int, cj: int) -> np.ndarray:
        """Distances from x avoiding comps[cj] minus x; independent of the
        target, so one BFS per (member, component) serves every target."""
        row = relay_rows.get((x, cj))
        if row is None:
            banned = np.zeros(g.n, np.bool_)
            banned[list(comps[cj])] = True
            banned[x] = False
            row = relay_rows[(x, cj)] = kernels.bfs(g.indptr, g.indices, x, banned)
        return row

    for t in range(g.n):
        dt = cache.row(t)
        if t in cset:
            for v in C:
                if v != t:
                    forward[v][t] = _closest_hop(g, dt, v)
            continue
        tq = int(qid[t])
        plan = rho_star_plan(gq, comp_qid, tq, cache=qcache, order=qorder)

        exits: dict[int, int] = {}  # component index -> exit member
        w_of: dict[int, int] = {}  # component index -> first honest vertex
        for ci, comp in enumerate(comps):
            e = plan.entries[comp_qid[ci]]
            if e.value >= INF or e.exit_hop < 0:
                for x in comp:
                    broadcast[x][t] = dt[x]
                    forward[x][t] = _closest_hop(g, dt, x)
                continue
            w = honest_of[e.exit_hop]
            w_of[ci] = w
            exit_node = min(x for x in comp if g.has_edge(x, w))
            exits[ci] = exit_node
            broadcast[exit_node][t] = e.value
            forward[exit_node][t] = w
            for x, hop in _intra_component_hops(g, comp, exit_node).items():
                forward[x][t] = hop

        if not relays:
            continue
        # perceived distances after one pass: exits announce plan values,
        # every other colluder its true distance
        pinned = dt.copy()
        for ci, x in exits.items():
            pinned[x] = plan.entries[comp_qid[ci]].value
        col, _ = kernels.sync_column(g.indptr, g.indices, pinned, pmask, t)

        for ci, comp in enumerate(comps):
            if ci not in exits or len(comp) == 1:
                continue
            fn_i = plan.entries[comp_qid[ci]].forwarding_number
            for x in comp:
                if x == exits[ci]:
                    continue
                best = -INF
                for cj in exits:
                    if plan.entries[comp_qid[cj]].forwarding_number > fn_i:
                        continue
                    w = w_of[cj]
                    dwx = int(relay_row(x, cj)[w])
                    if dwx >= INF:
                        continue
                    best = max(best, int(col[w]) - dwx)
                broadcast[x][t] = max(1, best) if best > -INF else 1
    return Strategy(colluders=C, broadcast=broadcast, forward=forward,
                    label="adjacent_general")


# ---------------------------------------------------------------------------
# admissibility and benefit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    violating_pair: tuple[int, int] | None = None
    trap_set: frozenset[int] = field(default_factory=frozenset)

    def __bool__(self) -> bool:
        return self.admissible


def _int_dtype(bound: int):
    """(dtype, sentinel): int16 or int32 when half its range exceeds `bound`,
    with that half as the sentinel, so a sum of two stored values never
    wraps; else int64 with INF + 1, which keeps every sum up to INF finite
    as the synchronization does (a node whose best neighbour announces
    INF - 1 believes INF and still forwards)."""
    for dtype in (np.int16, np.int32):
        sentinel = np.iinfo(dtype).max // 2
        if bound < sentinel:
            return dtype, sentinel
    return np.int64, INF + 1


def _closed_form_pass(g: Graph, strat: Strategy):
    """The pass shared by the admissibility check and the count, in closed
    form over blocks of targets T.  Yields (T, intercept, violation):
    intercept is a |T| x n bool array marking s -> T[i] as intercepted at
    [i, s]; violation is None, or ((s, t), trapped) for the block's first
    target t with members of its component that cannot reach it in the
    routing graph, listed in id order, s the first of them.

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
    """
    strat.validate(g)
    n, ids = g.n, np.asarray(strat.colluders, np.int64)
    k = ids.size
    comp = component_labels(g)
    smask = np.zeros(n, np.bool_)
    smask[ids] = True
    cidx = np.full(n, -1, np.int64)  # node id -> colluder index
    cidx[ids] = np.arange(k)
    b = np.array([strat.broadcast[v] for v in strat.colluders],
                 np.int64).reshape(k, n)
    hop = np.array([strat.forward[v] for v in strat.colluders],
                   np.int64).reshape(k, n)
    # an offer toward a target in another component reaches none of the
    # target's members, so such entries are dropped before sizing the dtype
    b[comp[ids][:, None] != comp] = INF
    finite = b[b < INF]
    dtype, inf = _int_dtype((int(finite.max()) if finite.size else 0) + n)
    b = np.where(b < INF, b, inf).astype(dtype)
    dc = np.empty((k, n), dtype)
    for i, x in enumerate(ids):
        others = smask.copy()
        others[x] = False
        d = kernels.bfs(g.indptr, g.indices, x, others)
        dc[i] = np.where(d < INF, d, inf)

    def min_plus(bt):
        """min over colluders i of bt[i, j] + dc[i, s], saturated at inf."""
        out = np.full((bt.shape[1], n), inf, dtype)
        for i in range(k):
            np.minimum(out, bt[i][:, None] + dc[i], out=out)
        return np.minimum(out, inf, out=out)

    for T, dist in distance_blocks(g, ids.tolist()):
        j = np.arange(T.size)
        unreached = np.isinf(dist)
        dist[unreached] = 0
        d = dist.astype(dtype)
        d[unreached] = inf
        del dist, unreached  # the float64 block is the largest array here
        bt = b[:, T]
        offer = min_plus(bt)
        col = np.minimum(d, offer)
        members = comp[T][:, None] == comp
        intercept = offer < d
        del offer
        intercept |= smask
        intercept[smask[T]] = True
        intercept &= members
        intercept[j, T] = False

        # delivering colluders: a k x |T| fixpoint read at the colluders' hops
        ht = hop[:, T]
        h = np.maximum(ht, 0)
        hc = cidx[h]
        via_hop = (ht >= 0) & (hc >= 0)
        hcol = col[j, h]
        live = (ht >= 0) & ~smask[h] & (hcol < inf)
        direct = d[j, h] == hcol
        # attains[i, y, j]: colluder y's offer sets the column at i's hop
        attains = np.minimum(bt[None] + dc[:, h].transpose(1, 0, 2), inf) \
            == hcol[:, None]
        deliver = (ht == T) | (ids[:, None] == T)
        while True:
            grown = deliver | (via_hop & deliver[np.maximum(hc, 0), j]) \
                | (live & (direct | (attains & deliver).any(axis=1)))
            if (grown == deliver).all():
                break
            deliver = grown

        reached = col < inf
        # targets where a colluder that does not deliver offers something
        rows = np.flatnonzero((~deliver & (bt < inf)).any(axis=0))
        if rows.size:
            odel = min_plus(np.where(deliver[:, rows], bt[:, rows], inf))
            reached[rows] &= col[rows] == np.minimum(d[rows], odel)
        reached[:, ids] = deliver.T
        reached[j, T] = True
        trapped = members & ~reached
        bad = np.flatnonzero(trapped.any(axis=1))
        violation = None
        if bad.size:
            nodes = np.flatnonzero(trapped[bad[0]]).tolist()
            violation = (nodes[0], int(T[bad[0]])), nodes
        yield T, intercept, violation


def check_admissible(g: Graph, strat: Strategy) -> AdmissibilityVerdict:
    """A strategy is admissible when, for every target, every node in the
    target's component can reach it in the per-target routing graph."""
    for _, _, violation in _closed_form_pass(g, strat):
        if violation:
            pair, trapped = violation
            return AdmissibilityVerdict(False, pair, frozenset(trapped))
    return AdmissibilityVerdict(True)


def is_beneficial(g: Graph, strat: Strategy) -> bool:
    """True when the strategy strictly beats the honest strategy on the same
    colluder set in worst-case ordered interception."""
    from .interception import intercepted_pairs

    res = intercepted_pairs(g, strat)
    base = intercepted_pairs(g, honest_strategy(g, strat.colluders))
    return res.fraction_ordered > base.fraction_ordered


def minimal_admissible_bruteforce(g: Graph, C, t: int, budget: int = 10**6):
    """Entrywise-minimal admissible broadcasts toward t by exhaustion.

    Other targets stay honest, so only the column for t constrains anything.
    A broadcast vector counts admissible when some forwarding commitment
    delivers every same-component message, i.e. when reverse reachability
    with colluders fanning out to all neighbours covers the component.
    Returns (colluder order, Pareto frontier of admissible vectors).
    """
    C = tuple(sorted(set(int(v) for v in C)))
    if t in C:
        raise ValueError("target must not be a colluder")
    cache = _DistCache(g)
    dt = cache.row(t)
    comp = component_labels(g)
    members = np.flatnonzero(comp == comp[t])
    ranges = []
    for x in C:
        if dt[x] >= INF:
            ranges.append((INF,))
        else:
            ranges.append(tuple(range(1, int(dt[x]) + 1)))
    size = 1
    for r in ranges:
        size *= len(r)
        if size > budget:
            raise BudgetError(f"search space exceeds budget of {budget}")
    cmask = np.zeros(g.n, np.bool_)
    cmask[list(C)] = True
    hops = np.full(g.n, -1, np.int64)
    pinned = np.zeros(g.n, np.int64)
    admissible = []
    for combo in itertools.product(*ranges):
        for x, b in zip(C, combo):
            pinned[x] = b
        col, _ = kernels.sync_column(g.indptr, g.indices, pinned, cmask, t)
        reached = kernels.reach(g.indptr, g.indices, col, t, cmask, hops,
                                liberal=True)
        if reached[members].all():
            admissible.append(combo)
    frontier = [a for a in admissible
                if not any(b != a and all(bi <= ai for bi, ai in zip(b, a))
                           for b in admissible)]
    return C, sorted(frontier)
