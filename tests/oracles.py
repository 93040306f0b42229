"""Independent reference implementations used only by the test suite.

Everything here is deliberately written in plain Python with a different
algorithmic shape than the library (full-matrix iteration, explicit path
enumeration, per-edge message simulation) so agreement is meaningful.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations
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
    rounds = 0
    while True:
        new = [row[:] for row in rho]
        for i in range(g.n):
            if i in colluders:
                continue
            for j in range(g.n):
                vals = [rho[int(k)][j] for k in g.neighbors(i)]
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
    """Ordered intercepted pairs by explicit routing-graph enumeration."""
    comp = _components(g)
    sset = set(strat.colluders)
    pairs = set()
    for t in range(g.n):
        out = simulate_strategy(g, strat, t)
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
