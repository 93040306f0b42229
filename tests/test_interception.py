from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvintercept.strategy as S
from dvintercept import graph as G
from dvintercept.interception import coverage_function, intercepted_pairs
from dvintercept.kernels import INF

from oracles import (_closest_hop, adjacent_strategy_reference,
                     coverage_function_reference,
                     deliverable, intercepted_pairs_oracle,
                     random_connected_graph, simulate_strategy,
                     target_pass_reference)


def path_graph(n):
    return G.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(m):
    # parts {0, 1} and {2, ..., m+1}
    return G.from_edges(m + 2, [(a, b) for a in (0, 1) for b in range(2, m + 2)])


def optimal_interception(g, C):
    try:
        strat = S.separated_strategy(g, C)
    except ValueError:
        strat = S.adjacent_strategy(g, C)
    return intercepted_pairs(g, strat)


class TestInterceptedPairs:
    def test_empty_and_full(self):
        g = G.erdos_renyi(10, 0.3, seed=1)
        assert intercepted_pairs(g, S.honest_strategy(g, [])).fraction == 0
        full = intercepted_pairs(g, S.honest_strategy(g, range(g.n)))
        assert full.fraction == 1

    def test_p5_honest(self):
        res = intercepted_pairs(path_graph(5), S.honest_strategy(path_graph(5), [2]))
        assert res.fraction_ordered == Fraction(4, 5)
        assert res.fraction_unordered == Fraction(4, 5)

    def test_k52_marginals(self):
        # optimal-strategy ordered marginal gains on the complete bipartite
        # graph with parts {0,1} and five others: 2(m+1) = 12, then
        # 2*C(m+2,2) - 2(m+1) = 30
        g = complete_bipartite(5)
        f_q = optimal_interception(g, [1]).intercepted_ordered
        f_pq = optimal_interception(g, [0, 1]).intercepted_ordered
        assert f_q == 12
        assert f_pq - f_q == 30

    def test_rejects_inadmissible(self):
        g = path_graph(5)
        b = G.bfs_distances(g, 2).dist.copy()
        b[4] = 1
        f = _closest_hop(g, S._distance_rows(g, [2]), 2)
        f[4] = 1
        bad = S.Strategy(colluders=(2,), broadcast={2: b}, forward={2: f})
        verdict = S.check_admissible(g, bad)
        assert not verdict
        with pytest.raises(ValueError, match="inadmissible") as exc:
            intercepted_pairs(g, bad)
        # the count stops where the check does and reports the same diagnostics
        assert f"pair {verdict.violating_pair} " in str(exc.value)
        assert f"trapped nodes {sorted(verdict.trap_set)}" in str(exc.value)

    def test_endpoint_pairs_always_count(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            g = random_connected_graph(rng, n_max=9)
            C = [int(v) for v in rng.permutation(g.n)[: max(1, g.n // 3)]]
            res = intercepted_pairs(g, S.independent_strategy(g, C),
                                    per_target=True)
            # every pair with the target in C is intercepted
            for t in C:
                icount, total = res.per_target_counts[t]
                assert icount == total

    def test_matches_path_enumeration_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(12):
            g = random_connected_graph(rng, n_max=8)
            k = int(rng.integers(1, max(2, g.n // 2)))
            C = [int(v) for v in rng.permutation(g.n)[:k]]
            strat = S.adjacent_strategy(g, C)
            res = intercepted_pairs(g, strat)
            pairs = intercepted_pairs_oracle(g, strat)
            assert res.intercepted_ordered == len(pairs)
            both = sum(1 for (a, b) in pairs if a < b and (b, a) in pairs)
            assert res.intercepted_unordered == both

    def test_different_components_excluded(self):
        g = G.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        res = intercepted_pairs(g, S.honest_strategy(g, [3]))
        assert res.total_ordered == 2 + 6
        assert res.total_unordered == 1 + 3


# (graph, exact same-component ordered pair total)
DEGENERATE = [
    (G.from_edges(0, []), 0),
    (G.from_edges(1, []), 0),
    (G.from_edges(2, []), 0),
    (G.from_edges(2, [(0, 1)]), 2),
    # a path, a triangle and the isolated nodes 2 and 6
    (G.from_edges(7, [(0, 1), (3, 4), (4, 5), (3, 5)]), 2 + 6),
]
# multi-node colluder components on the 7-node graph
MULTI_NODE = [[0, 1], [3, 4]]


class TestDegenerateInputs:
    @pytest.mark.parametrize("g, total", DEGENERATE,
                             ids=[f"n{g.n}m{g.m}" for g, _ in DEGENERATE])
    def test_matches_oracle_and_totals(self, g, total):
        # every colluder set on the small graphs; on the 7-node one the empty
        # set, each single node, a pair across components, the whole path
        # (a multi-node component with no honest node beside it), an edge of
        # the triangle and C = V
        if g.n <= 2:
            sets = [[v for v in range(g.n) if mask >> v & 1]
                    for mask in range(2 ** g.n)]
        else:
            sets = [[]] + [[v] for v in range(g.n)] + [[1, 4]] \
                + MULTI_NODE + [list(range(g.n))]
        for C in sets:
            got = S.adjacent_strategy(g, C)
            ref = adjacent_strategy_reference(g, C)
            for v in C:
                assert np.array_equal(got.broadcast[v], ref.broadcast[v])
                assert np.array_equal(got.forward[v], ref.forward[v])
            builders = [S.honest_strategy, S.independent_strategy,
                        S.adjacent_strategy]
            if all(G.bfs_distances(g, x).dist[y] >= 2 for x in C for y in C
                   if x < y):
                builders.append(S.separated_strategy)
            for build in builders:
                strat = build(g, C)
                assert S.check_admissible(g, strat)
                res = intercepted_pairs(g, strat, per_target=True)
                pairs = intercepted_pairs_oracle(g, strat)
                assert res.total_ordered == total
                assert res.total_unordered == total // 2
                assert res.intercepted_ordered == len(pairs)
                assert res.intercepted_unordered == sum(
                    1 for (a, b) in pairs if a < b and (b, a) in pairs)
                for t in C:  # a colluder as target: its whole component
                    icount, members = res.per_target_counts[t]
                    assert icount == members
                if len(C) == g.n:
                    assert res.intercepted_ordered == total


class TestCoverageFunction:
    def test_star_centre(self):
        g = G.from_edges(6, [(0, i) for i in range(1, 6)])
        assert coverage_function(g, [0]) == 1

    def test_p5(self):
        assert coverage_function(path_graph(5), [2]) == Fraction(4, 5)

    def test_equals_honest_interception(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            g = random_connected_graph(rng, n_max=15, n_min=5)
            k = int(rng.integers(0, g.n // 2 + 1))
            C = [int(v) for v in rng.permutation(g.n)[:k]]
            res = intercepted_pairs(g, S.honest_strategy(g, C))
            assert coverage_function(g, C) == res.fraction

    def test_matches_two_pass_reference(self):
        # d_G < d_{G-S} against the honest count, on disconnected graphs with
        # isolated nodes, with C = {} and C = V among the sets
        rng = np.random.default_rng(43)
        cases = [(g, [[], list(range(g.n))]) for g, _ in DEGENERATE]
        for _ in range(25):
            g = random_connected_graph(rng, n_max=12, n_min=1)
            g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
            perm = [int(v) for v in rng.permutation(g.n)]
            cases.append((g, [[], perm, perm[: int(rng.integers(1, g.n))]]))
        for g, sets in cases:
            for C in sets:
                assert coverage_function(g, C) == coverage_function_reference(g, C)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(39)
        g = random_connected_graph(rng, n_max=12, n_min=8)
        order = [int(v) for v in rng.permutation(g.n)]
        vals = [coverage_function(g, order[:k]) for k in range(g.n + 1)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_strategy_dominates_honest_pointwise(seed):
    # an admissible lying strategy never interferes with pairs the honest
    # strategy already intercepts through the same set
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=9)
    k = int(rng.integers(1, max(2, g.n // 3 + 1)))
    C = [int(v) for v in rng.permutation(g.n)[:k]]
    adj = intercepted_pairs(g, S.adjacent_strategy(g, C))
    hon = intercepted_pairs(g, S.honest_strategy(g, C))
    assert adj.intercepted_ordered >= hon.intercepted_ordered


# ---------------------------------------------------------------------------
# the closed-form pass against the per-target pass and the path oracles
# ---------------------------------------------------------------------------


def random_strategy(g, C, rng, scale):
    """Broadcasts drawn from small values and INF, with scale >= 1 also values
    in [127, 2^13), with scale >= 2 also values at and above 2^15 and with
    scale 3 also values just below INF (so each integer width of the
    closed-form pass runs); hops a random neighbour or -1.  Mostly
    inadmissible."""
    broadcast, forward = {}, {}
    for v in C:
        vec = rng.integers(1, g.n + 3, g.n).astype(np.int64)
        kind = rng.random(g.n)
        vec[kind < 0.15] = INF
        if scale >= 1:
            mid = (kind >= 0.15) & (kind < 0.3)
            vec[mid] = rng.integers(127, 2**13, int(mid.sum()))
        if scale >= 2:
            big = (kind >= 0.3) & (kind < 0.45)
            vec[big] = 2**15 + rng.integers(0, 2**20, int(big.sum()))
        if scale == 3:
            near = kind > 0.9
            vec[near] = INF - rng.integers(1, 3, int(near.sum()))
        vec[v] = 0
        hops = np.full(g.n, -1, np.int64)
        nbrs = g.neighbors(v)
        if nbrs.size:
            pick = rng.random(g.n) < 0.9
            hops[pick] = nbrs[rng.integers(nbrs.size, size=int(pick.sum()))]
        broadcast[v], forward[v] = vec, hops
    return S.Strategy(colluders=tuple(sorted(C)), broadcast=broadcast,
                      forward=forward)


def perturbed(g, strat, rng, targets):
    """strat with one colluder's entry toward one of `targets` changed: a
    broadcast lowered to 1, a hop redirected to a random neighbour or
    dropped, or a broadcast raised by 2^15."""
    broadcast = {v: b.copy() for v, b in strat.broadcast.items()}
    forward = {v: f.copy() for v, f in strat.forward.items()}
    x = strat.colluders[int(rng.integers(len(strat.colluders)))]
    t = int(targets[int(rng.integers(len(targets)))])
    kind = int(rng.integers(4))
    if t == x:
        kind = 1
    if kind == 0:
        broadcast[x][t] = 1
    elif kind == 1 and g.degree(x):
        nbrs = g.neighbors(x)
        forward[x][t] = int(nbrs[rng.integers(nbrs.size)])
    elif kind == 2:
        forward[x][t] = -1
    elif kind == 3 and broadcast[x][t] < INF:
        broadcast[x][t] += 2**15
    return S.Strategy(colluders=strat.colluders, broadcast=broadcast,
                      forward=forward)


def assert_pass_matches(g, strat, oracle=True):
    """check_admissible and intercepted_pairs against the per-target pass and,
    with `oracle`, against routing-graph enumeration."""
    pair, trapped, counts, per_target = target_pass_reference(g, strat)
    verdict = S.check_admissible(g, strat)
    if pair is not None:
        assert not verdict
        assert verdict.violating_pair == pair
        assert verdict.trap_set == frozenset(trapped)
        with pytest.raises(S.InadmissibleError) as exc:
            intercepted_pairs(g, strat)
        assert exc.value.pair == pair
        assert exc.value.trapped == frozenset(trapped)
        assert str(exc.value) == (f"strategy is inadmissible: pair {pair} has "
                                  f"no corresponding path (trapped nodes {trapped})")
        if oracle:
            s, t = pair
            out = simulate_strategy(g, strat, t)
            comp = G.component_labels(g)
            assert [v for v in range(g.n) if comp[v] == comp[t]
                    and not deliverable(out, v, t)] == trapped
            assert all(deliverable(simulate_strategy(g, strat, u), v, u)
                       for u in range(t) for v in range(g.n)
                       if comp[v] == comp[u])
        return
    assert verdict
    res = intercepted_pairs(g, strat, per_target=True)
    assert (res.total_ordered, res.intercepted_ordered, res.total_unordered,
            res.intercepted_unordered) == counts
    assert res.per_target_counts == per_target
    if oracle:
        pairs = intercepted_pairs_oracle(g, strat)
        assert res.intercepted_ordered == len(pairs)
        assert res.intercepted_unordered == sum(
            1 for (a, b) in pairs if a < b and (b, a) in pairs)
        assert {t: c for t, (c, _) in res.per_target_counts.items()} == {
            t: sum(1 for (_, u) in pairs if u == t) for t in range(g.n)}


def builders(g, C):
    out = [S.honest_strategy, S.independent_strategy, S.adjacent_strategy]
    if all(G.bfs_distances(g, x).dist[y] >= 2 for x in C for y in C if x < y):
        out.append(S.separated_strategy)
    return [build(g, C) for build in out]


class TestClosedFormPass:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_per_target_pass_and_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n_max=9, n_min=1)
        if rng.random() < 0.3:  # a second component and an isolated node
            g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
        k = int(rng.integers(0, g.n + 1))  # up to every node a colluder
        C = [int(v) for v in rng.permutation(g.n)[:k]]
        strats = builders(g, C)
        if C:
            strats += [random_strategy(g, C, rng, scale) for scale in range(4)]
            strats.append(perturbed(g, strats[2], rng, range(g.n)))
        for strat in strats:
            assert_pass_matches(g, strat)

    @pytest.mark.parametrize("g, total", DEGENERATE,
                             ids=[f"n{g.n}m{g.m}" for g, _ in DEGENERATE])
    def test_degenerate_inputs(self, g, total):
        rng = np.random.default_rng(g.n + g.m)
        sets = [[]] + [[v] for v in range(g.n)] + [list(range(g.n))]
        if g.n == 7:
            sets += MULTI_NODE
        for C in sets:
            strats = builders(g, C)
            if C:
                strats += [random_strategy(g, C, rng, scale)
                           for scale in range(4)]
            for strat in strats:
                assert_pass_matches(g, strat)

    def test_announcement_just_below_inf(self):
        # path 0-1-2-3 with colluder 2 cutting 0 and 1 off from 3: a node
        # whose best neighbour announces INF - 1 believes INF but still
        # forwards, so INF - 2 at distance 2 delivers and INF - 1 traps 0
        g = path_graph(4)
        for value, pair in ((INF - 2, None), (INF - 1, (0, 3))):
            strat = S.Strategy(
                colluders=(2,),
                broadcast={2: np.array([2, 1, 0, value], np.int64)},
                forward={2: np.array([1, 1, -1, 3], np.int64)})
            assert S.check_admissible(g, strat).violating_pair == pair
            assert_pass_matches(g, strat)

    def test_long_paths_narrow_offers(self):
        # a fan: the path 0-...-298 and a hub 299 adjacent to every path
        # node.  With the hub colluding, distances in G - S reach 298 hops
        # (uint16 blocks) while every offer is at most 5, so the pass runs
        # in uint8 with its distances saturated
        n = 300
        g = G.from_edges(n, [(i, i + 1) for i in range(n - 2)]
                         + [(i, n - 1) for i in range(n - 1)])
        C = [n - 1]
        assert next(G.distance_blocks(g, C))[1].dtype == np.uint16
        strats = [S.honest_strategy(g, C), S.independent_strategy(g, C),
                  S.separated_strategy(g, C)]
        rng = np.random.default_rng(299)
        for _ in range(3):
            b = rng.integers(1, 4, n)
            hop = rng.integers(0, n - 1, n)
            b[n - 1], hop[n - 1] = 0, -1
            strats.append(S.Strategy(colluders=(n - 1,), broadcast={n - 1: b},
                                     forward={n - 1: hop}))
        for strat in strats:
            assert_pass_matches(g, strat, oracle=False)

    def test_every_integer_width(self, monkeypatch):
        # the largest offer sizes the pass's integers: uint8 below 127, then
        # int16, int32 and int64 as random_strategy's scale grows
        int_dtype, chosen = S._int_dtype, set()

        def spy(bound):
            out = int_dtype(bound)
            chosen.add(out[0])
            return out

        monkeypatch.setattr(S, "_int_dtype", spy)
        g = G.erdos_renyi(30, 0.15, seed=6)
        rng = np.random.default_rng(6)
        C = [int(v) for v in rng.permutation(g.n)[:4]]
        for scale, dtype in enumerate((np.uint8, np.int16, np.int32, np.int64)):
            assert_pass_matches(g, random_strategy(g, C, rng, scale),
                                oracle=False)
            assert chosen == {dtype}
            chosen.clear()

    @pytest.mark.parametrize("bound, dtype, sentinel", [
        (126, np.uint8, 127), (127, np.int16, 16383),
        (16382, np.int16, 16383), (16383, np.int32, 2**30 - 1),
        (2**30 - 2, np.int32, 2**30 - 1), (2**30 - 1, np.int64, INF + 1)])
    def test_int_dtype_boundaries(self, bound, dtype, sentinel):
        assert S._int_dtype(bound) == (dtype, sentinel)

    def test_two_blocks(self):
        # n above one block of targets: violations planted in the second
        g = G.erdos_renyi(300, 0.012, seed=4)
        assert g.n > G._BLOCK
        rng = np.random.default_rng(4)
        C = [int(v) for v in rng.permutation(g.n)[:12]]
        base = S.adjacent_strategy(g, C)
        strats = [base, S.honest_strategy(g, C)]
        strats += [perturbed(g, base, rng, range(G._BLOCK, g.n))
                   for _ in range(4)]
        verdicts = [S.check_admissible(g, strat) for strat in strats]
        assert any(v.violating_pair and v.violating_pair[1] >= G._BLOCK
                   for v in verdicts)
        for strat in strats:
            assert_pass_matches(g, strat, oracle=False)
        # packed intercept rows of 259 and 517 bits, over two and three
        # blocks: small components on shuffled ids put intercepted pairs in
        # every tile, and keep the routing-graph oracle affordable
        for n in (259, 517):
            rng = np.random.default_rng(n)
            perm, edges, lo = rng.permutation(n), [], 0
            while lo < n:
                h = random_connected_graph(rng, n_max=min(8, n - lo), n_min=1)
                edges += [(int(perm[lo + u]), int(perm[lo + v]))
                          for u, v in h.edges()]
                lo += h.n
            g = G.from_edges(n, edges)
            C = [int(v) for v in rng.permutation(n)[:n // 8]]
            assert_pass_matches(g, S.adjacent_strategy(g, C))

    def test_one_labelling_per_count(self, monkeypatch):
        # the count and the check each label the graph's components once
        import dvintercept.interception as I
        g = G.erdos_renyi(300, 0.012, seed=4)
        strat = S.adjacent_strategy(g, [0, 1, 2, 5, 40])
        calls = []

        def counted(graph):
            calls.append(graph)
            return G.component_labels(graph)

        monkeypatch.setattr(I, "component_labels", counted)
        monkeypatch.setattr(S, "component_labels", counted)
        intercepted_pairs(g, strat)
        assert calls == [g]
        calls.clear()
        assert S.check_admissible(g, strat)
        assert calls == [g]
