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
from dataclasses import dataclass, field, replace

import numpy as np

from . import protocol
# distance_avoiding is not called here but stays importable because
# perfbench/tracing.py patches this name
from .graph import (INF, Graph, ParseError, distance_avoiding,  # noqa: F401
                    _colluder_tuple, _csr, _node_id, as_hops, bfs,
                    component_labels, distance_blocks, hop_distances,
                    induced_subgraph)
from .protocol import _min_plus


class BudgetError(RuntimeError):
    """Exhaustive search would exceed its configured budget."""


def _distance_rows(g: Graph, S, removed=()):
    """(at, D): D holds the int64 hop-distance rows of S and its neighbours,
    INF where unreachable, once every edge touching `removed` is deleted.
    Node v's row is D[at[v]]; at[v] = -1 for nodes not covered.  The
    builders read nothing outside these rows."""
    cover = np.zeros(g.n, np.bool_)
    cover[list(S)] = True
    cover[g.indices[np.repeat(cover, g.degrees())]] = True
    ids = np.flatnonzero(cover)
    at = np.full(g.n, -1, np.int64)
    at[ids] = np.arange(ids.size)
    return at, as_hops(hop_distances(g, ids, removed))


def _honest_rows(g: Graph, C):
    """k x n: row i holds the hop distances from colluder C[i] through
    honest nodes only (no path enters another colluder), from one
    bit-parallel BFS with every colluder sealed.  The dtype is
    `hop_distances`' narrow one, its maximum where unreachable."""
    return hop_distances(g, C, sealed=C)


def _closest_hop(g: Graph, rows, v: int):
    """Per target, the lowest-id neighbour of v minimizing true distance to
    it; -1 at v itself, at unreachable targets and everywhere when v has no
    neighbours.  `rows` = (at, D) as from `_distance_rows` and must cover
    v's neighbours."""
    at, D = rows
    nbrs = g.neighbors(v)
    vals = D[at[nbrs]]
    if nbrs.size:
        # neighbour lists are sorted, so argmin's first minimum is the lowest id
        hop = np.where(vals.min(axis=0) < INF, nbrs[vals.argmin(axis=0)], -1)
    else:
        hop = np.full(g.n, -1, np.int64)
    hop[v] = -1
    return hop


def _honest(g: Graph, S):
    """(S, rows, broadcast, forward): S as `_colluder_tuple`, the distance
    rows of S and its neighbours as from `_distance_rows`, and per colluder a
    fresh copy of its true distances and of its `_closest_hop` array, which
    every builder starts from and edits where it lies."""
    S = _colluder_tuple(g.n, S)
    rows = at, D = _distance_rows(g, S)
    broadcast = {v: D[at[v]].copy() for v in S}
    forward = {v: _closest_hop(g, rows, v) for v in S}
    return S, rows, broadcast, forward


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
        """ValueError at the first fault, colluders in `colluders` order and
        then the lowest target: a malformed broadcast, a missing or
        misshapen forward vector, or a hop that is neither -1 nor a
        neighbour."""
        protocol.validate_broadcasts(g.n, self.colluders, self.broadcast)
        n, fault = g.n, None
        hops = np.full((len(self.colluders), n), -1, np.int64)
        # nbr[i]: colluder i's neighbours; column n stands for every hop
        # outside [0, n)
        nbr = np.zeros((len(self.colluders), n + 1), np.bool_)
        for i, v in enumerate(self.colluders):
            if v not in self.forward:
                fault = ValueError(f"forward vector for node {v} is missing")
                break
            if np.shape(self.forward[v]) != (n,):
                fault = ValueError(f"forward vector for node {v} has shape "
                                   f"{np.shape(self.forward[v])}")
                break
            hops[i] = self.forward[v]
            nbr[i, g.neighbors(v)] = True
        # one lookup of every hop in its colluder's row
        bad = ~np.take_along_axis(nbr, np.where((hops >= 0) & (hops < n), hops, n),
                                  axis=1) & (hops != -1)
        if bad.any():
            i, t = np.argwhere(bad)[0]
            raise ValueError(f"forward({self.colluders[i]},{t}) = {hops[i, t]} "
                             "is not a neighbour")
        if fault:
            raise fault


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
    S, _, broadcast, forward = _honest(g, S)
    return Strategy(colluders=S, broadcast=broadcast, forward=forward, label="honest")


def independent_strategy(g: Graph, S) -> Strategy:
    """Each colluder lies on its own: announce max(1, d(v,t)-2) per target and
    forward to a true-closest neighbour."""
    S, _, broadcast, forward = _honest(g, S)
    for v, d in broadcast.items():
        finite = d < INF
        d[finite] = np.maximum(1, d[finite] - 2)
        d[v] = 0
    return Strategy(colluders=S, broadcast=broadcast, forward=forward,
                    label="independent")


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
    D = as_hops(hop_distances(g, C))
    middle = [v for v in C if v != x and v != y]
    best = INF
    for perm in itertools.permutations(middle, j - 2):
        seq = (x, *perm, y)
        total = 0
        for a, b in zip(seq, seq[1:]):
            d = int(D[C.index(a), b])
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


def _check_separated(g: Graph, C) -> None:
    """ValueError naming the least adjacent colluder pair (x, y), x < y.  It
    is the first arc between two colluders in CSR order: its source x is the
    least colluder with a colluder neighbour, so each such neighbour is
    above x."""
    cmask = np.zeros(g.n, np.bool_)
    cmask[list(_colluder_tuple(g.n, C))] = True
    esrc = np.repeat(np.arange(g.n), g.degrees())
    close = np.flatnonzero(cmask[esrc] & cmask[g.indices])
    if close.size:
        x, y = esrc[close[0]], g.indices[close[0]]
        raise ValueError(
            f"colluders {x} and {y} are not separated "
            "(distance < 2); use adjacent_strategy"
        )


def _rho_star_plans(g: Graph, C, rows, hops, order=None, targets=None):
    """The rho* label setting toward every target at once.

    C is the sorted tuple of a colluder set with no two members adjacent,
    `rows` = (at, D) as from `_distance_rows` (covering C and its
    neighbours), `hops` C's `_closest_hop` arrays and `targets` defaults to
    every non-colluder.  Returns (T, val, fn, pred, hop), each of the last four a
    k x |T| int64 array indexed [colluder index, target index]: the plan
    value, forwarding number, index of the predecessor on the witness chain
    (-1 for none) and exit hop (-1 where the value is INF).

    Step i settles, per target, the unsettled colluder with the least
    (tentative value, id), or order[i] when `order` is given, then relaxes
    every unsettled colluder z to max(1, d(x, z) - 2 + val); only a strict
    improvement makes x the predecessor of z.  The exit hop is the closest
    hop toward the predecessor, or toward the target when there is none.
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
    DC = D[at[ids]]
    dcc = DC[:, ids]
    d = DC[:, T]
    tent = np.where(d < INF, np.maximum(1, d - 2), INF)
    via = np.full(tent.shape, -1, np.int64)
    settled = np.zeros(tent.shape, np.bool_)
    val = np.empty_like(tent)
    fn = np.empty_like(tent)
    pred = np.empty_like(tent)
    j = np.arange(T.size)
    for step in range(k):
        if order is None:
            # argmin's first minimum is the lowest id, C being sorted
            x = np.where(settled, INF + 1, tent).argmin(axis=0)
        else:
            x = np.full(T.size, order[step])
        settled[x, j] = True
        v, p = tent[x, j], via[x, j]
        val[x, j], pred[x, j] = v, p
        fn[x, j] = np.where(p >= 0, fn[np.maximum(p, 0), j], 0) + 1
        dxz = dcc[x].T
        cand = np.maximum(1, dxz - 2 + v)
        better = (cand < tent) & (dxz < INF) & (v < INF) & ~settled
        tent = np.where(better, cand, tent)
        via = np.where(better, x, via)
    hops = np.asarray(hops, np.int64).reshape(k, g.n)
    toward = np.where(pred >= 0, ids[np.maximum(pred, 0)], T)
    hop = np.where(val < INF, hops[np.arange(k)[:, None], toward], -1)
    return T, val, fn, pred, hop


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
        g, C, rows, [_closest_hop(g, rows, x) for x in C], order=order, targets=[t])
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
    labels count up from the component of its lowest member."""
    C = _colluder_tuple(g.n, C)
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
    comp = np.asarray(comp, np.int64)
    sub = induced_subgraph(g, comp)
    dist = hop_distances(sub, np.arange(comp.size)).astype(np.int64)
    # per member, the least dist * c + index over its neighbours picks the
    # closest one toward each member, lowest id on ties
    key = dist[sub.indices] * comp.size + sub.indices[:, None]
    hops = comp[np.minimum.reduceat(key, sub.indptr[:-1], axis=0) % comp.size]
    np.fill_diagonal(hops, -1)
    return hops


def adjacent_strategy(g: Graph, C, component_order=None) -> Strategy:
    """Generalized strategy allowing adjacent colluders.

    Colluder components are contracted to single nodes; the separated optimum
    runs on the quotient.  Per target, each component designates an exit
    member adjacent to the first honest vertex of its witness chain; the exit
    announces the quotient plan value, other members announce the tightest
    safe lower bound derived from already-perceived distances, and internal
    traffic is relayed to the exit.  With no two colluders adjacent every
    component is one colluder and the quotient is g itself; that case is
    separated_strategy.
    """
    C, rows, broadcast, forward = _honest(g, C)
    at = rows[0]
    comps = colluder_components(g, C)
    cnum = np.full(g.n, -1, np.int64)  # component index of each colluder
    for ci, comp in enumerate(comps):
        cnum[list(comp)] = ci
    # relay bounds (multi-node components only) need the synchronized column
    relays = any(len(comp) > 1 for comp in comps)
    if relays:
        gq, qid, honest_of, comp_qid = _quotient(g, comps)
        qrows = _distance_rows(gq, comp_qid)
        qhops = [_closest_hop(gq, qrows, q) for q in comp_qid]
    else:
        # quotient ids follow original-id order, so with every component a
        # singleton the quotient is g itself with the same ids and hops
        gq, qrows, comp_qid, qhops = g, rows, list(C), [forward[x] for x in C]
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
    _, val, fn, _, qhop = _rho_star_plans(gq, tuple(comp_qid), qrows, qhops,
                                          order=qorder, targets=qid[T])
    # colluder targets and components without a finite plan value keep the
    # honest broadcast and hop
    live = (val < INF) & (qhop >= 0)
    w = np.where(live, honest_of[np.maximum(qhop, 0)], -1)  # first honest vertex
    wi = np.maximum(w, 0)  # read only where live
    # the exit member per (component, target) is the lowest-id member
    # adjacent to w: lowest[ci, u] is that member for node u, n for none
    esrc = np.repeat(np.arange(g.n), g.degrees())
    arc = cnum[esrc] >= 0
    lowest = np.full((len(comps), g.n), g.n, np.int64)
    np.minimum.at(lowest, (cnum[esrc[arc]], g.indices[arc]), esrc[arc])
    exits = lowest[np.arange(len(comps))[:, None], wi]
    exits[~live | (exits == g.n)] = -1
    for ci, comp in enumerate(comps):
        for x in comp:
            sel = exits[ci] == x
            broadcast[x][T[sel]] = val[ci, sel]
            forward[x][T[sel]] = w[ci, sel]
        if len(comp) > 1:
            # internal traffic is relayed toward the exit, which keeps w
            sel = exits[ci] >= 0
            hops = _intra_component_hops(g, comp)[
                :, np.searchsorted(comp, exits[ci, sel])]
            for a, y in enumerate(comp):
                other = hops[a] >= 0
                forward[y][T[sel][other]] = hops[a, other]
    if not relays:
        return Strategy(colluders=C, broadcast=broadcast, forward=forward,
                        label="adjacent_general")

    # Relay bounds read the synchronized column at each exit's first honest
    # vertex w in closed form (see _closed_form_pass): with b the broadcast
    # so far (exits announce their plan value, every other colluder its true
    # distance), col[w] = min(D_{G-S}(w, t), min over x of b_x[t] + D_C(x, w)).
    # Every w lies in N(S), which the rows of _distance_rows cover.
    _, DS = _distance_rows(g, C, removed=C)
    has = exits >= 0
    col = DS[at[wi], T]
    for bx, dx in zip((broadcast[x][T] for x in C), as_hops(_honest_rows(g, C))):
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
    for x, ci, bound in zip(X.tolist(), ci_of, best):
        sel = has[ci] & (exits[ci] != x)
        broadcast[x][T[sel]] = np.maximum(1, bound[sel])
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
    each caller computes once.  Yields (T, intercept, violation):
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
    strat.validate(g)
    n, ids = g.n, np.asarray(strat.colluders, np.int64)
    k = ids.size
    smask = np.zeros(n, np.bool_)
    smask[ids] = True
    cidx = np.full(n, -1, np.int64)  # node id -> colluder index
    cidx[ids] = np.arange(k)
    sizes = np.bincount(comp)
    b = np.array([strat.broadcast[v] for v in strat.colluders],
                 np.int64).reshape(k, n)
    hop = np.array([strat.forward[v] for v in strat.colluders],
                   np.int64).reshape(k, n)
    # an offer toward a target in another component reaches none of the
    # target's members, so such entries are dropped before sizing the dtype
    b[comp[ids][:, None] != comp] = INF
    raw_dc = _honest_rows(g, ids)
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

    for T, dist in distance_blocks(g, ids.tolist()):
        j = np.arange(T.size)
        d = saturated(dist)
        del dist
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
            reached[rows] &= col[rows] == np.minimum(d[rows], _min_plus(
                np.where(deliver[:, rows], bt[:, rows], inf), dc, inf))
        reached[:, ids] = deliver.T
        reached[j, T] = True
        # reached lies within each target's component, so a row falls short
        # of its component's size exactly when it traps a member
        bad = np.flatnonzero(np.count_nonzero(reached, axis=1)
                             < sizes[comp[T]])
        violation = None
        if bad.size:
            i = bad[0]
            nodes = np.flatnonzero((comp == comp[T[i]])
                                   & ~reached[i]).tolist()
            violation = (nodes[0], int(T[i])), nodes
        del d, col, reached, attains  # not held through the next block's BFS
        yield T, intercept, violation


def check_admissible(g: Graph, strat: Strategy) -> AdmissibilityVerdict:
    """A strategy is admissible when, for every target, every node in the
    target's component can reach it in the per-target routing graph."""
    for _, _, violation in _closed_form_pass(g, strat, component_labels(g)):
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
    dt = bfs(g.indptr, g.indices, t)
    ranges = [tuple(range(1, int(dt[x]) + 1)) if dt[x] < INF else (INF,)
              for x in C]
    size = 1
    for r in ranges:
        size *= len(r)
        if size > budget:
            raise BudgetError(f"search space exceeds budget of {budget}")
    k, inf = len(C), INF + 1
    # with the colluders sealed, t's row is its distances in G - S
    D = as_hops(hop_distances(g, (t, *C), sealed=C), inf=inf)
    d, dc = D[0], D[1:]
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
        ok = good[:, dt < INF].all(axis=1)
        admissible += [combo for combo, a in zip(chunk, ok) if a]
    frontier = [a for a in admissible
                if not any(b != a and all(bi <= ai for bi, ai in zip(b, a))
                           for b in admissible)]
    return C, sorted(frontier)
