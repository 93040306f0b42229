import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvintercept.strategy as S
from dvintercept import graph as G
from dvintercept import protocol as P
from dvintercept.kernels import INF

from oracles import random_connected_graph, simulate_strategy


def path_graph(n):
    return G.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return G.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def separated_pairs(g):
    rows = [G.bfs_distances(g, x).dist for x in range(g.n)]
    return [(x, y) for x in range(g.n) for y in range(x + 1, g.n)
            if rows[x][y] >= 2]


class TestHonestStrategy:
    def test_path_broadcast(self):
        st_ = S.honest_strategy(path_graph(3), {1})
        assert list(st_.broadcast[1]) == [1, 0, 1]

    def test_always_admissible(self):
        for seed in range(4):
            g = G.erdos_renyi(15, 0.25, seed=seed)
            S_ = [0, 3, 7]
            assert S.check_admissible(g, S.honest_strategy(g, S_)).admissible

    def test_fixpoint_is_true_distance(self):
        g = G.erdos_renyi(20, 0.3, seed=6)
        st_ = S.honest_strategy(g, {2, 5, 9})
        b = P.synchronize(g, st_.colluders, st_.broadcast)
        expect = np.array([G.bfs_distances(g, s).dist for s in range(g.n)])
        assert (b.rho == expect).all()


class TestIndependentStrategy:
    def test_formula(self):
        g = path_graph(7)
        st_ = S.independent_strategy(g, {0})
        # d = 2 -> 1, d = 3 -> 1, d = 5 -> 3
        assert st_.broadcast[0][2] == 1
        assert st_.broadcast[0][3] == 1
        assert st_.broadcast[0][5] == 3

    def test_always_admissible(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_connected_graph(rng, n_max=12)
            k = int(rng.integers(1, max(2, g.n // 2)))
            cols = [int(v) for v in rng.permutation(g.n)[:k]]
            assert S.check_admissible(g, S.independent_strategy(g, cols)).admissible

    def test_star_tie_not_intercepted(self):
        # star: 0 is the centre, leaves 1..4; colluder leaf 1, target leaf 2
        g = G.from_edges(5, [(0, i) for i in range(1, 5)])
        st_ = S.independent_strategy(g, {1})
        assert st_.broadcast[1][2] == 1  # d = 2
        from dvintercept.interception import intercepted_pairs

        res = intercepted_pairs(g, st_, per_target=True)
        # leaf 3 -> leaf 2 still routes via the centre on the tie
        assert 0 in simulate_strategy(g, st_, 2)[3]

    def test_perceived_distance_drop_bounded_by_two(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_connected_graph(rng, n_max=12)
            cols = [int(v) for v in rng.permutation(g.n)[: max(1, g.n // 3)]]
            st_ = S.independent_strategy(g, cols)
            b = P.synchronize(g, st_.colluders, st_.broadcast)
            d = np.array([G.bfs_distances(g, s).dist for s in range(g.n)])
            honest = [i for i in range(g.n) if i not in set(cols)]
            assert (b.rho[honest] >= d[honest] - 2).all()


class TestColludingDistance:
    def test_trivial(self):
        g = path_graph(7)
        assert S.colluding_distance(g, {1, 4}, 1, 1, 1) == 0
        assert S.colluding_distance(g, {1, 4}, 1, 4, 2) == 3

    def test_j_exceeds_set(self):
        g = path_graph(7)
        assert S.colluding_distance(g, {1, 4}, 1, 4, 3) == INF

    def test_permutation_minimum(self):
        rng = np.random.default_rng(77)
        g = random_connected_graph(rng, n_max=10, n_min=10)
        C = [0, 2, 5, 8]
        rows = {v: G.bfs_distances(g, v).dist for v in C}
        import itertools

        x, y, j = 0, 8, 3
        expect = min(
            (int(rows[x][m]) + int(rows[m][y])
             for m in C if m not in (x, y)),
            default=INF,
        )
        assert S.colluding_distance(g, C, x, y, j) == expect
        # full brute force for j = 4
        best = INF
        for perm in itertools.permutations([2, 5], 2):
            seq = (x, *perm, y)
            best = min(best, sum(int(rows[a][b]) if a in rows else
                                 int(G.bfs_distances(g, a).dist[b])
                                 for a, b in zip(seq, seq[1:])))
        assert S.colluding_distance(g, C, x, y, 4) == best


class TestRhoStarPlan:
    def test_p7(self):
        g = path_graph(7)
        plan = S.rho_star_plan(g, {1, 4}, 6)
        assert plan.entries[4].value == 1
        assert plan.entries[1].value == 2
        assert plan.entries[4].forwarding_number == 1
        assert plan.entries[1].forwarding_number == 2
        assert plan.entries[1].witness == (1, 4)
        assert plan.entries[1].exit_hop == 2

    def test_alternating_path_all_ones(self):
        # s, x1, y1, x2, y2, x3, t with colluders x_i
        g = path_graph(7)
        plan = S.rho_star_plan(g, {1, 3, 5}, 6)
        assert all(plan.entries[x].value == 1 for x in (1, 3, 5))

    def test_single_colluder_matches_independent(self):
        g = G.erdos_renyi(12, 0.3, seed=9)
        ind = S.independent_strategy(g, {4})
        for t in range(g.n):
            if t == 4:
                continue
            plan = S.rho_star_plan(g, {4}, t)
            assert plan.entries[4].value == ind.broadcast[4][t]

    def test_refuses_adjacent_colluders(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="separated"):
            S.rho_star_plan(g, {1, 2}, 3)

    def test_refuses_colluding_target(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            S.rho_star_plan(g, {1, 3}, 1)

    def test_forwarding_numbers_decrease_along_witness(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = random_connected_graph(rng, n_max=10)
            cand = separated_pairs(g)
            if not cand:
                continue
            x, y = cand[int(rng.integers(len(cand)))]
            t = next((t for t in range(g.n) if t not in (x, y)), None)
            if t is None:
                continue
            plan = S.rho_star_plan(g, {x, y}, t)
            for e in plan.entries.values():
                assert len(e.witness) == e.forwarding_number
                for i, c in enumerate(e.witness):
                    assert plan.entries[c].forwarding_number == \
                        e.forwarding_number - i
                assert plan.entries[e.witness[-1]].forwarding_number == 1

    def test_value_bounds(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            g = random_connected_graph(rng, n_max=10)
            cand = separated_pairs(g)
            if not cand:
                continue
            x, y = cand[int(rng.integers(len(cand)))]
            t = next((t for t in range(g.n) if t not in (x, y)), None)
            if t is None:
                continue
            plan = S.rho_star_plan(g, {x, y}, t)
            for v in (x, y):
                d = int(G.bfs_distances(g, v).dist[t])
                assert 1 <= plan.entries[v].value <= max(1, d - 2)


class TestSeparatedStrategy:
    def test_admissible_on_random_separated_sets(self):
        rng = np.random.default_rng(51)
        for _ in range(15):
            g = random_connected_graph(rng, n_max=10)
            cand = separated_pairs(g)
            if not cand:
                continue
            C = cand[int(rng.integers(len(cand)))]
            assert S.check_admissible(g, S.separated_strategy(g, C)).admissible

    def test_broadcast_consistency_bound(self):
        # after synchronization, no colluder could still profit from relaying:
        # value(x) <= d(x, y) - 2 + announced(y) for every other node y
        rng = np.random.default_rng(53)
        for _ in range(10):
            g = random_connected_graph(rng, n_max=9)
            cand = separated_pairs(g)
            if not cand:
                continue
            C = cand[int(rng.integers(len(cand)))]
            st_ = S.separated_strategy(g, C)
            b = P.synchronize(g, st_.colluders, st_.broadcast)
            rows = {x: G.bfs_distances(g, x).dist for x in C}
            for t in range(g.n):
                if t in C:
                    continue
                for x in C:
                    for y in range(g.n):
                        if y in (x, t) or rows[x][y] >= INF:
                            continue
                        if b.rho[y, t] >= INF:
                            continue
                        assert st_.broadcast[x][t] <= \
                            max(1, int(rows[x][y]) - 2 + int(b.rho[y, t]))

    def test_decrement_breaks_admissibility(self):
        g = path_graph(7)
        st_ = S.separated_strategy(g, {1, 4})
        assert st_.broadcast[1][6] == 2
        st_.broadcast[1][6] = 1
        assert not S.check_admissible(g, st_).admissible

    def test_refuses_adjacent(self):
        with pytest.raises(ValueError):
            S.separated_strategy(path_graph(4), {1, 2})


class TestAdjacentStrategy:
    def test_matches_separated_on_separated_sets(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            g = random_connected_graph(rng, n_max=10)
            cand = separated_pairs(g)
            if not cand:
                continue
            C = cand[int(rng.integers(len(cand)))]
            sep = S.separated_strategy(g, C)
            adj = S.adjacent_strategy(g, C)
            for v in C:
                assert (sep.broadcast[v] == adj.broadcast[v]).all()

    def test_cycle_adjacent_pair(self):
        g = cycle_graph(8)
        st_ = S.adjacent_strategy(g, {0, 1})
        assert S.check_admissible(g, st_).admissible
        # one member of the pair broadcasts 1 for most targets and relays
        # through its neighbouring colluder
        relayers = [
            v for v in (0, 1)
            if sum(1 for t in range(2, 8) if st_.broadcast[v][t] == 1
                   and st_.forward[v][t] == 1 - v) >= 3
        ]
        assert relayers

    def test_always_admissible_random_sets(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            g = random_connected_graph(rng, n_max=12)
            k = int(rng.integers(1, max(2, g.n // 2 + 1)))
            C = [int(v) for v in rng.permutation(g.n)[:k]]
            st_ = S.adjacent_strategy(g, C)
            verdict = S.check_admissible(g, st_)
            assert verdict.admissible, (g.edges, C, verdict)

    def test_processing_order_changes_interception(self):
        # two colluder components on disjoint relay corridors toward t=14;
        # whichever component is processed second treats the other's plan as
        # settled and can undercut the honest detour through nodes 15-17
        edges = [(0, 2), (1, 2), (0, 15), (1, 15), (15, 16), (16, 17),
                 (17, 14), (2, 3), (2, 4), (4, 5), (5, 6), (6, 7), (7, 14),
                 (3, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 13),
                 (13, 14)]
        g = G.from_edges(18, edges)
        C = [2, 3, 9, 10]
        from dvintercept.interception import intercepted_pairs

        st_b_first = S.adjacent_strategy(g, C, component_order=[9, 2])
        st_a_first = S.adjacent_strategy(g, C, component_order=[2, 9])
        assert S.check_admissible(g, st_b_first).admissible
        assert S.check_admissible(g, st_a_first).admissible
        rb = intercepted_pairs(g, st_b_first)
        ra = intercepted_pairs(g, st_a_first)
        assert rb.intercepted_ordered > ra.intercepted_ordered

    def test_order_validation(self):
        g = path_graph(6)
        with pytest.raises(ValueError):
            S.adjacent_strategy(g, {1, 4}, component_order=[1])
        with pytest.raises(ValueError):
            S.adjacent_strategy(g, {1, 4}, component_order=[1, 1])


class TestCheckAdmissible:
    def test_honest_everywhere(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            g = random_connected_graph(rng, n_max=10)
            C = [0]
            assert S.check_admissible(g, S.honest_strategy(g, C)).admissible

    def _path_strategy(self, g, fwd4):
        b = G.bfs_distances(g, 2).dist.copy()
        b[4] = 1
        f = np.full(5, -1, np.int64)
        for t in range(5):
            if t != 2:
                f[t] = S._closest_hop(g, G.bfs_distances(g, t).dist, 2)
        f[4] = fwd4
        return S.Strategy(colluders=(2,), broadcast={2: b}, forward={2: f})

    def test_forward_choice_decides(self):
        g = path_graph(5)
        assert S.check_admissible(g, self._path_strategy(g, 3)).admissible
        verdict = S.check_admissible(g, self._path_strategy(g, 1))
        assert not verdict.admissible
        assert verdict.violating_pair == (0, 4)
        assert verdict.trap_set == {0, 1, 2}

    def test_rejects_non_neighbour_hop(self):
        g = path_graph(4)
        strat = S.Strategy(colluders=(1,),
                           broadcast={1: np.array([1, 0, 1, 1], np.int64)},
                           forward={1: np.full(4, 3, np.int64)})
        with pytest.raises(ValueError, match="not a neighbour"):
            S.check_admissible(g, strat)

    def test_overzealous_broadcast(self):
        # colluder 6 hangs off a long path toward target 0; claiming
        # distance 1 strands the branch around node 4, claiming d-2 is fine
        g = G.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])

        def strat(claim):
            b = G.bfs_distances(g, 6).dist.copy()
            b[0] = claim
            f = np.full(7, -1, np.int64)
            for t in range(7):
                if t != 6:
                    f[t] = S._closest_hop(g, G.bfs_distances(g, t).dist, 6)
            return S.Strategy(colluders=(6,), broadcast={6: b}, forward={6: f})

        assert S.check_admissible(g, strat(3)).admissible  # d - 2
        verdict = S.check_admissible(g, strat(1))
        assert not verdict.admissible
        assert verdict.trap_set == {4, 5, 6}


class TestIsBeneficial:
    def test_honest_never(self):
        g = cycle_graph(6)
        assert not S.is_beneficial(g, S.honest_strategy(g, {1}))

    def test_lying_on_a_cycle(self):
        g = cycle_graph(6)
        assert S.is_beneficial(g, S.independent_strategy(g, {1}))

    def test_path_graph_gains_nothing(self):
        # on a path every route already crosses the interior colluders
        g = path_graph(7)
        assert not S.is_beneficial(g, S.separated_strategy(g, {1, 4}))

    def test_adjacent_pair_on_cycle(self):
        g = cycle_graph(8)
        assert S.is_beneficial(g, S.adjacent_strategy(g, {0, 1}))

    def test_refuses_inadmissible(self):
        g = path_graph(5)
        b = G.bfs_distances(g, 2).dist.copy()
        b[4] = 1
        f = np.full(5, -1, np.int64)
        for t in range(5):
            if t != 2:
                f[t] = S._closest_hop(g, G.bfs_distances(g, t).dist, 2)
        f[4] = 1
        bad = S.Strategy(colluders=(2,), broadcast={2: b}, forward={2: f})
        with pytest.raises(ValueError):
            S.is_beneficial(g, bad)

    def test_uniform_neighbour_distance_gadget(self):
        # single colluder all of whose neighbours sit at the same distance
        # to the target: no traffic is forced through it, lying cannot help
        g = G.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        st_ = S.independent_strategy(g, {0})
        from dvintercept.interception import intercepted_pairs

        res = intercepted_pairs(g, st_, per_target=True)
        hon = intercepted_pairs(g, S.honest_strategy(g, {0}), per_target=True)
        t = 5
        assert res.per_target_counts[t] == hon.per_target_counts[t]


class TestBruteforce:
    def test_single_colluder_formula(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            g = random_connected_graph(rng, n_max=7)
            x = int(rng.integers(g.n))
            t = int(rng.integers(g.n))
            if x == t:
                continue
            d = int(G.bfs_distances(g, x).dist[t])
            _, frontier = S.minimal_admissible_bruteforce(g, [x], t)
            assert frontier == [(max(1, d - 2),)]

    def test_p7(self):
        g = path_graph(7)
        order, frontier = S.minimal_admissible_bruteforce(g, [1, 4], 6)
        assert order == (1, 4)
        assert frontier == [(2, 1)]

    def test_matches_rho_star(self):
        rng = np.random.default_rng(83)
        checked = 0
        while checked < 15:
            g = random_connected_graph(rng, n_max=8)
            cand = separated_pairs(g)
            if not cand:
                continue
            C = cand[int(rng.integers(len(cand)))]
            t = next((t for t in range(g.n) if t not in C), None)
            if t is None:
                continue
            plan = S.rho_star_plan(g, list(C), t)
            _, frontier = S.minimal_admissible_bruteforce(g, list(C), t)
            assert frontier == [tuple(plan.entries[x].value for x in sorted(C))]
            checked += 1

    def test_budget(self):
        g = path_graph(12)
        with pytest.raises(S.BudgetError):
            S.minimal_admissible_bruteforce(g, [1, 3, 5, 7], 11, budget=10)


class TestSerialization:
    def test_round_trip(self):
        g = path_graph(7)
        st_ = S.separated_strategy(g, {1, 4})
        text = S.strategy_to_text(st_)
        back = S.strategy_from_text(text, g.n)
        assert back.label == st_.label
        assert back.colluders == st_.colluders
        for v in st_.colluders:
            assert (back.broadcast[v] == st_.broadcast[v]).all()
            assert (back.forward[v] == st_.forward[v]).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_separated_strategy_properties(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=9)
    cand = separated_pairs(g)
    if not cand:
        return
    C = cand[int(rng.integers(len(cand)))]
    st_ = S.separated_strategy(g, C)
    assert S.check_admissible(g, st_).admissible
    rows = {x: G.bfs_distances(g, x).dist for x in C}
    for x in C:
        for t in range(g.n):
            if t in C:
                continue
            assert 1 <= st_.broadcast[x][t] <= max(1, int(rows[x][t]) - 2) \
                or rows[x][t] >= INF
