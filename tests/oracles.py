"""Independent reference implementations used only by the test suite.

Everything here is deliberately written in plain Python with a different
algorithmic shape than the library (full-matrix iteration, explicit path
enumeration, per-edge message simulation) so agreement is meaningful.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np

from dvintercept import kernels
from dvintercept.kernels import INF


def simple_path_distances(g, source: int) -> list[int]:
    """Shortest distances by exhaustive enumeration of simple paths."""
    best = [INF] * g.n
    best[source] = 0

    def walk(u, length, visited):
        for v in g.neighbors(u):
            v = int(v)
            if v in visited:
                continue
            if length + 1 < best[v]:
                best[v] = length + 1
            walk(v, length + 1, visited | {v})

    walk(source, 0, {source})
    return best


def naive_sync(g, colluders, broadcasts):
    """Full-matrix synchronous iteration of the belief update to a fixpoint.

    Returns (rho matrix as list of lists, rounds).
    """
    colluders = set(colluders)
    rho = [[INF] * g.n for _ in range(g.n)]
    for i in range(g.n):
        if i in colluders:
            rho[i] = [int(x) for x in broadcasts[i]]
        else:
            rho[i][i] = 0
    nbrs = [[int(k) for k in g.neighbors(i)] for i in range(g.n)]
    rounds = 0
    while True:
        new = [row[:] for row in rho]
        for i in range(g.n):
            if i in colluders:
                continue
            for j in range(g.n):
                vals = [rho[k][j] for k in nbrs[i]]
                if vals and min(vals) < INF:
                    new[i][j] = min(new[i][j], min(vals) + 1)
        if new == rho:
            return rho, rounds
        rho = new
        rounds += 1


def routing_out_edges(g, rho, colluders, hops, t, liberal=False):
    """Per-node admissible next hops toward t, recomputed from scratch.

    Colluders use their declared hop, or every neighbour when `liberal`.
    """
    out = {}
    for u in range(g.n):
        if u == t:
            continue
        if u in colluders and liberal:
            out[u] = sorted(int(v) for v in g.neighbors(u))
        elif u in colluders:
            h = hops[u]
            out[u] = [h] if h is not None and h >= 0 else []
        else:
            vals = {int(v): rho[int(v)][t] for v in g.neighbors(u)}
            if not vals or min(vals.values()) >= INF:
                out[u] = []
            else:
                best = min(vals.values())
                out[u] = sorted(v for v, x in vals.items() if x == best)
    return out


def deliverable(out_edges, s, t, avoid=()) -> bool:
    """Is there a corresponding path from s to t avoiding `avoid` internally?"""
    avoid = set(avoid) - {t}
    if s in avoid:
        return False
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        if u == t:
            return True
        for v in out_edges.get(u, ()):
            if v not in seen and v not in avoid:
                seen.add(v)
                stack.append(v)
    return False


def simulate_strategy(g, strat, t):
    """Routing out-edges toward t under a uniform Strategy, via naive_sync."""
    colluders = set(strat.colluders)
    broadcasts = {v: strat.broadcast[v] for v in colluders}
    rho, _ = naive_sync(g, colluders, broadcasts)
    hops = {v: int(strat.forward[v][t]) for v in colluders}
    return routing_out_edges(g, rho, colluders, hops, t)


def path_cover_oracle(g, t, S):
    """Shortest-path coverage toward t by explicit path enumeration.

    Returns (sum over sources s != t that reach t of the fraction of shortest
    s-t paths with a node in S, endpoints included; number of such sources).
    """
    S = set(int(v) for v in S)
    hops = {t: 0}
    layer = [t]
    while layer:
        nxt = []
        for u in layer:
            for v in g.neighbors(u):
                v = int(v)
                if v not in hops:
                    hops[v] = hops[u] + 1
                    nxt.append(v)
        layer = nxt

    def paths_from(u):
        if u == t:
            return [(t,)]
        return [(u,) + rest
                for v in g.neighbors(u) if hops.get(int(v)) == hops[u] - 1
                for rest in paths_from(int(v))]

    cov = Fraction(0)
    sources = [s for s in hops if s != t]
    for s in sources:
        paths = paths_from(s)
        cov += Fraction(sum(1 for p in paths if S.intersection(p)), len(paths))
    return cov, len(sources)


def translate_fraction_closed_form(g, S, p):
    """Alternative blow-up fraction for D-regular graphs: |S|*D new vertices
    and an |S|*|V| cross term.  Known to disagree with direct counting
    (`reduction.translate_fraction`); kept only to report that disagreement.
    """
    S = set(int(v) for v in S)
    p = Fraction(p)
    n = g.n
    if not S:
        return p
    deg = g.degrees()
    if n and (deg != deg[0]).any():
        raise ValueError("closed form requires a regular graph")
    sd = len(S) * (int(deg[0]) if n else 0)
    num = p * comb(n, 2) + comb(sd, 2) + len(S) * n
    return num / Fraction(comb(n + sd, 2))


# ---------------------------------------------------------------------------
# per-edge (nonuniform) broadcast simulator
# ---------------------------------------------------------------------------


def nonuniform_sync(g, nu):
    """Belief fixpoint when colluders announce per-neighbour vectors.

    Honest i updates from announcement(k -> i) for each neighbour k, where an
    honest k announces its own believed vector and a colluding k announces
    nu.broadcast[k][i].  Returns the honest belief matrix (colluder rows are
    their own true beliefs and never used by honest updates).
    """
    colluders = set(nu.colluders)
    rho = [[INF] * g.n for _ in range(g.n)]
    for i in range(g.n):
        rho[i][i] = 0
    while True:
        new = [row[:] for row in rho]
        for i in range(g.n):
            if i in colluders:
                continue
            for k in g.neighbors(i):
                k = int(k)
                ann = nu.broadcast[k][i] if k in colluders else rho[k]
                for j in range(g.n):
                    if ann[j] < INF and ann[j] + 1 < new[i][j]:
                        new[i][j] = int(ann[j]) + 1
        if new == rho:
            return rho
        rho = new


def nonuniform_out_edges(g, nu, rho, t):
    """Routing out-edges toward t under per-neighbour announcements."""
    colluders = set(nu.colluders)
    out = {}
    for u in range(g.n):
        if u == t:
            continue
        if u in colluders:
            h = int(nu.forward[u][t])
            out[u] = [h] if h >= 0 else []
        else:
            vals = {}
            for k in g.neighbors(u):
                k = int(k)
                ann = nu.broadcast[k][u] if k in colluders else rho[k]
                vals[k] = ann[t]
            if not vals or min(vals.values()) >= INF:
                out[u] = []
            else:
                best = min(vals.values())
                out[u] = sorted(v for v, x in vals.items() if x == best)
    return out


def nonuniform_admissible(g, nu) -> bool:
    rho = nonuniform_sync(g, nu)
    comp = _components(g)
    for t in range(g.n):
        out = nonuniform_out_edges(g, nu, rho, t)
        for s in range(g.n):
            if s != t and comp[s] == comp[t] and not deliverable(out, s, t):
                return False
    return True


def nonuniform_intercepted(g, nu):
    """Set of ordered same-component pairs intercepted under nu."""
    rho = nonuniform_sync(g, nu)
    comp = _components(g)
    sset = set(nu.colluders)
    pairs = set()
    for t in range(g.n):
        out = nonuniform_out_edges(g, nu, rho, t)
        for s in range(g.n):
            if s == t or comp[s] != comp[t]:
                continue
            if s in sset or t in sset or not deliverable(out, s, t, avoid=sset):
                pairs.add((s, t))
    return pairs


def _components(g):
    comp = [-1] * g.n
    c = 0
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        stack = [s]
        comp[s] = c
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                v = int(v)
                if comp[v] < 0:
                    comp[v] = c
                    stack.append(v)
        c += 1
    return comp


def intercepted_pairs_oracle(g, strat):
    """Ordered intercepted pairs by explicit routing-graph enumeration: the
    routing graph of `simulate_strategy` toward every target, from one
    belief matrix (`naive_sync` does not depend on the target)."""
    comp = _components(g)
    sset = set(strat.colluders)
    rho, _ = naive_sync(g, sset, {v: strat.broadcast[v] for v in sset})
    pairs = set()
    for t in range(g.n):
        out = routing_out_edges(g, rho, sset, {v: int(strat.forward[v][t])
                                               for v in sset}, t)
        for s in range(g.n):
            if s == t or comp[s] != comp[t]:
                continue
            if s in sset or t in sset or not deliverable(out, s, t, avoid=sset):
                pairs.add((s, t))
    return pairs


def shortest_path_coverage_reference(g, S) -> float:
    """The per-target loop `selection.shortest_path_coverage` ran before its
    successive-update evaluator: one `kernels.path_cover` per target, the
    per-target sums added in ascending target order."""
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


def lazy_greedy_reference(g, stop):
    """`selection._lazy_greedy`'s CELF loop over
    `shortest_path_coverage_reference`, one full evaluation per gain.

    Returns (chosen list, final value, chosen gain sequence)."""
    chosen, current, gains = [], 0.0, []
    heap = [(-shortest_path_coverage_reference(g, [v]), v, 0) for v in range(g.n)]
    heapq.heapify(heap)
    while heap and not stop(chosen, current):
        neg, v, rnd = heapq.heappop(heap)
        if rnd == len(chosen):
            gain = -neg
        else:
            gain = shortest_path_coverage_reference(g, chosen + [v]) - current
            if heap and gain < -heap[0][0] - 1e-12:
                heapq.heappush(heap, (-gain, v, len(chosen)))
                continue
        chosen.append(v)
        gains.append(gain)
        current += gain
    return chosen, current, gains


def exhaustive_reference(g, k):
    """Best size-k set under `shortest_path_coverage_reference` by full
    enumeration, the first in lexicographic order among values within
    1e-12 of each other, as `selection.exhaustive_opt` breaks ties."""
    best_set, best = (), -1.0
    for combo in combinations(range(g.n), k):
        val = shortest_path_coverage_reference(g, combo)
        if val > best + 1e-12:
            best, best_set = val, combo
    return list(best_set), best


def from_edges_reference(n, edges, labels=None):
    """`graph.from_edges` as it was before the shared sorted-code builder:
    a set of normalized pairs, degree counts and a per-edge fill."""
    from dvintercept.graph import Graph

    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            continue
        seen.add((min(u, v), max(u, v)))
    deg = np.zeros(n, np.int64)
    for u, v in seen:
        deg[u] += 1
        deg[v] += 1
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(indptr[-1], np.int64)
    fill = indptr[:-1].copy()
    for u, v in sorted(seen):
        indices[fill[u]] = v
        fill[u] += 1
        indices[fill[v]] = u
        fill[v] += 1
    for u in range(n):
        indices[indptr[u] : indptr[u + 1]].sort()
    return Graph(n=n, indptr=indptr, indices=indices,
                 labels=tuple(labels) if labels is not None else None)


def coverage_function_reference(g, S) -> Fraction:
    """`interception.coverage_function` as its own two-pass count: with
    everyone honest, s -> t is intercepted exactly when d_G(s, t) <
    d_{G-S}(s, t), every edge touching S deleted (which also covers an
    endpoint in S)."""
    from dvintercept.graph import as_hops, component_labels, distance_blocks

    S = sorted(set(int(v) for v in S))
    sizes = np.bincount(component_labels(g))
    total = int((sizes * (sizes - 1)).sum())
    # the two blocks may differ in width, so both are compared as int64
    intercepted = sum(int((as_hops(d) < as_hops(d_cut)).sum()) for (_, d), (_, d_cut)
                      in zip(distance_blocks(g), distance_blocks(g, S)))
    return Fraction(intercepted, total) if total else Fraction(0)


def check_separated_reference(C, rows) -> None:
    """`strategy._check_separated` as it read the pair off the distance rows
    (at, D) of the sorted colluder tuple C: the first x < y at distance < 2."""
    at, D = rows
    C = np.asarray(C, np.int64)
    close = np.argwhere(np.triu(D[np.ix_(at[C], C)] < 2, 1))
    if close.size:
        x, y = C[close[0]]
        raise ValueError(
            f"colluders {x} and {y} are not separated "
            "(distance < 2); use adjacent_strategy"
        )


def random_connected_graph(rng, n_max=8, n_min=2):
    """Random connected graph: a random spanning tree plus random extras."""
    from dvintercept.graph import from_edges

    n = int(rng.integers(n_min, n_max + 1))
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(v)), v))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a != b:
            edges.append((min(a, b), max(a, b)))
    return from_edges(n, edges)


def target_pass_reference(g, strat):
    """The per-target pass the library ran before its closed form: for every
    target one synchronized column (`kernels.sync_column`), one unbanned
    `kernels.reach` for the admissibility check and, for honest targets, one
    reach with the colluders banned for the count.

    Returns (verdict, counts, per_target): verdict is None when admissible,
    else (violating_pair, trapped nodes) at the first violating target;
    counts is (total_ordered, intercepted_ordered, total_unordered,
    intercepted_unordered) and per_target maps t to (intercepted, total);
    both are None for an inadmissible strategy.
    """
    strat.validate(g)
    comp = np.array(_components(g), np.int64)
    sizes = np.bincount(comp) if g.n else np.zeros(0, np.int64)
    cmask = np.zeros(g.n, np.bool_)
    cmask[list(strat.colluders)] = True
    hops = np.full(g.n, -1, np.int64)
    pinned = np.zeros(g.n, np.int64)
    intercept = np.zeros((g.n, g.n), np.bool_)
    per_target = {}
    for t in range(g.n):
        for v in strat.colluders:
            pinned[v] = strat.broadcast[v][t]
            hops[v] = strat.forward[v][t]
        col, _ = kernels.sync_column(g.indptr, g.indices, pinned, cmask, t)
        reached = kernels.reach(g.indptr, g.indices, col, t, cmask, hops)
        members = np.flatnonzero(comp == comp[t])
        trapped = members[~reached[members]]
        if trapped.size:
            return (int(trapped[0]), t), trapped.tolist(), None, None
        others = (comp == comp[t]) & (np.arange(g.n) != t)
        if cmask[t]:
            icol = others
        else:
            clean = kernels.reach(g.indptr, g.indices, col, t, cmask, hops,
                                  banned=cmask)
            icol = others & (cmask | ~clean)
        intercept[:, t] = icol
        per_target[t] = (int(icol.sum()), int(sizes[comp[t]]) - 1)
    total = int((sizes * (sizes - 1)).sum())
    counts = (total, int(intercept.sum()), total // 2,
              int((intercept & intercept.T).sum()) // 2)
    return None, None, counts, per_target


def _closest_hop(g, rows, v: int):
    """`strategy._closest_hops` for the one node v: per target, the
    lowest-id neighbour of v minimizing true distance to it; -1 at v itself,
    at unreachable targets and everywhere when v has no neighbours.  `rows`
    = (at, D) as from `strategy._distance_rows` and must cover v's
    neighbours."""
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


def rho_star_plan_reference(g, C, t, *, order=None):
    """The per-target label setting `strategy.rho_star_plan` ran before the
    all-targets pass: a Python loop over the colluders toward one target t,
    one single-target `_closest_hop` per exit hop."""
    from dvintercept.strategy import _distance_rows

    C = tuple(sorted(set(int(v) for v in C)))
    return _plan_on_rows(g, C, t, _distance_rows(g, C), order)


def _plan_on_rows(g, C, t, rows, order=None):
    """`rho_star_plan_reference` on the sorted colluder tuple C, reading the
    distance rows (at, D) of C and its neighbours from `rows`, so that the
    per-target loops below compute them once."""
    from dvintercept.strategy import RhoStarEntry, RhoStarPlan, _check_separated

    if t in C:
        raise ValueError("target must not be a colluder")
    _check_separated(g, C)
    at, D = rows

    def lie(d):
        """max(1, d - 2), INF kept."""
        return INF if d >= INF else max(1, d - 2)

    val, pred, entries = {}, {}, {}
    if order is None:
        tent = {x: lie(int(D[at[x], t])) for x in C}
        via = {x: None for x in C}
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
            row = D[at[x]]
            for z in unsettled:
                d = int(row[z])
                if d >= INF:
                    continue
                cand = lie(d + val[x])
                if cand < tent[z]:
                    tent[z] = cand
                    via[z] = x
    else:
        settle_seq = [int(v) for v in order]
        if sorted(settle_seq) != list(C):
            raise ValueError("order must be a permutation of the colluder set")
        for x in settle_seq:
            best = lie(int(D[at[x], t]))
            best_pred = None
            for y in val:
                if val[y] >= INF:
                    continue
                d = int(D[at[y], x])
                if d >= INF:
                    continue
                cand = lie(d + val[y])
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
            fn, witness, toward = 1, (x,), t
        else:
            prev = entries[p]
            fn, witness = prev.forwarding_number + 1, (x,) + prev.witness
            toward = p
        entries[x] = RhoStarEntry(value=val[x], forwarding_number=fn,
                                  witness=witness,
                                  exit_hop=int(_closest_hop(g, rows, x)[toward]))
    return RhoStarPlan(target=t, entries=entries)


def separated_strategy_reference(g, C):
    """`strategy.separated_strategy` as one `rho_star_plan_reference` per
    honest target."""
    from dvintercept.strategy import Strategy, _distance_rows

    C = tuple(sorted(set(int(v) for v in C)))
    rows = at, D = _distance_rows(g, C)
    broadcast = {v: D[at[v]].copy() for v in C}
    forward = {v: _closest_hop(g, rows, v) for v in C}
    for t in range(g.n):
        if t in C:
            continue
        plan = _plan_on_rows(g, C, t, rows)
        for v in C:
            e = plan.entries[v]
            broadcast[v][t] = e.value
            forward[v][t] = e.exit_hop
    return Strategy(colluders=C, broadcast=broadcast, forward=forward,
                    label="rho_star")


def quotient_reference(g, comps):
    """`strategy._quotient` as a walk over every node and edge: (quotient
    graph, qid original -> quotient id, honest_of quotient id -> original id
    or -1 at component nodes, quotient id of each component)."""
    from dvintercept.graph import from_edges

    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    qid = np.full(g.n, -1, np.int64)
    honest_of = np.full(g.n, -1, np.int64)
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
    return from_edges(nxt, edges), qid, honest_of[:nxt], comp_qid


def intra_component_hops_reference(g, comp, exit_node: int) -> dict[int, int]:
    """Per member other than the exit, its lowest-id neighbour one step
    closer to the exit inside the component (one BFS from the exit)."""
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
    return {x: min(int(v) for v in g.neighbors(x)
                   if int(v) in depth and depth[int(v)] == depth[x] - 1)
            for x in comp if x != exit_node}


def colluder_components_reference(g, C):
    """`strategy.colluder_components` as the Python DFS over the colluders'
    neighbours it ran before the colluder-induced CSR."""
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


def adjacent_strategy_reference(g, C, component_order=None):
    """`strategy.adjacent_strategy` as the per-target loop it ran before the
    all-targets plan: per honest target one quotient `rho_star_plan_reference`,
    the exits and intra-component hops, then for multi-node components one
    `kernels.sync_column` and the relay bounds."""
    from dvintercept.strategy import (Strategy, _distance_rows,
                                      colluder_components)

    C = tuple(sorted(set(int(v) for v in C)))
    cset = set(C)
    rows = at, D = _distance_rows(g, C)
    comps = colluder_components(g, C)
    gq, qid, honest_of, comp_qid = quotient_reference(g, comps)
    qrows = _distance_rows(gq, comp_qid)
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
    broadcast = {v: D[at[v]].copy() for v in C}
    forward = {v: _closest_hop(g, rows, v) for v in C}
    relays = any(len(comp) > 1 for comp in comps)
    for t in range(g.n):
        if t in cset:
            continue
        plan = _plan_on_rows(gq, tuple(sorted(comp_qid)), int(qid[t]), qrows,
                             qorder)
        exits, w_of = {}, {}
        for ci, comp in enumerate(comps):
            e = plan.entries[comp_qid[ci]]
            if e.value >= INF or e.exit_hop < 0:
                continue
            w = int(honest_of[e.exit_hop])
            w_of[ci] = w
            exit_node = min(x for x in comp if g.has_edge(x, w))
            exits[ci] = exit_node
            broadcast[exit_node][t] = e.value
            forward[exit_node][t] = w
            for x, hop in intra_component_hops_reference(g, comp,
                                                         exit_node).items():
                forward[x][t] = hop
        if not relays:
            continue
        pinned = np.zeros(g.n, np.int64)
        pinned[pmask] = D[at[pmask], t]
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
                    banned = np.zeros(g.n, np.bool_)
                    banned[list(comps[cj])] = True
                    banned[x] = False
                    dwx = int(kernels.bfs(g.indptr, g.indices, x, banned)[w])
                    if dwx >= INF:
                        continue
                    best = max(best, int(col[w]) - dwx)
                broadcast[x][t] = max(1, best) if best > -INF else 1
    return Strategy(colluders=C, broadcast=broadcast, forward=forward,
                    label="adjacent_general")


def minimal_admissible_bruteforce_reference(g, C, t, budget=10**6):
    """`strategy.minimal_admissible_bruteforce` as it ran before its closed
    form: per broadcast combination one iterative `kernels.sync_column` and
    one liberal `kernels.reach` (every colluder forwards to every
    neighbour), admissible when the reach covers t's component.

    Returns (colluder order, Pareto frontier of admissible vectors)."""
    from dvintercept.graph import _colluder_tuple, _node_id, component_labels
    from dvintercept.strategy import BudgetError

    C = _colluder_tuple(g.n, C)
    t = _node_id(g.n, t, "target")
    if t in C:
        raise ValueError("target must not be a colluder")
    dt = kernels.bfs(g.indptr, g.indices, t)
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
    for combo in product(*ranges):
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
