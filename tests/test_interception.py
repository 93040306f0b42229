from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvintercept.strategy as S
from dvintercept import graph as G
from dvintercept.interception import coverage_function, intercepted_pairs

from oracles import intercepted_pairs_oracle, random_connected_graph


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
        f = np.full(5, -1, np.int64)
        for t in range(5):
            if t != 2:
                f[t] = S._closest_hop(g, G.bfs_distances(g, t).dist, 2)
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


class TestDegenerateInputs:
    @pytest.mark.parametrize("g, total", DEGENERATE,
                             ids=[f"n{g.n}m{g.m}" for g, _ in DEGENERATE])
    def test_matches_oracle_and_totals(self, g, total):
        # every colluder set on the small graphs; on the 7-node one the empty
        # set, each single node, a pair across components and C = V
        if g.n <= 2:
            sets = [[v for v in range(g.n) if mask >> v & 1]
                    for mask in range(2 ** g.n)]
        else:
            sets = [[]] + [[v] for v in range(g.n)] + [[1, 4], list(range(g.n))]
        for C in sets:
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
