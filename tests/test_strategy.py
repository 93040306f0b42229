from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvintercept.strategy as S
from dvintercept import graph as G
from dvintercept import kernels
from dvintercept import protocol as P
from dvintercept import reduction as R
from dvintercept.interception import intercepted_pairs
from dvintercept.kernels import INF

from oracles import (_closest_hop, adjacent_strategy_reference,
                     check_separated_reference,
                     colluder_components_reference,
                     minimal_admissible_bruteforce_reference,
                     random_connected_graph, rho_star_plan_reference,
                     separated_strategy_reference, simulate_strategy)


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
        # a sequence of two or more distinct colluders never returns to x
        assert S.colluding_distance(g, {1, 4}, 1, 1, 2) == INF

    @pytest.mark.parametrize("x, y, j, message", [
        (2, 4, 2, "x and y must be colluders"), (1, 3, 2, "x and y must be colluders"),
        (1, 4, 0, "j must be >= 1")])
    def test_argument_errors(self, x, y, j, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            S.colluding_distance(path_graph(7), {1, 4}, x, y, j)

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

    def test_value_reads_the_entry(self):
        plan = S.rho_star_plan(path_graph(7), {1, 4}, 6)
        assert [plan.value(x) for x in (1, 4)] == [2, 1]

    @pytest.mark.parametrize("order", [[1], [1, 1, 4], [1, 3]])
    def test_order_must_permute_colluders(self, order):
        with pytest.raises(ValueError,
                           match="^order must be a permutation of the colluder set$"):
            S.rho_star_plan(path_graph(7), {1, 4}, 6, order=order)

    @pytest.mark.parametrize("call", [
        lambda g: S.rho_star_plan(g, {1, 4}, 4),
        lambda g: S.minimal_admissible_bruteforce(g, [1, 4], 4)])
    def test_refuses_colluder_target(self, call):
        with pytest.raises(ValueError, match="^target must not be a colluder$"):
            call(path_graph(7))

    def test_refuses_colluding_target(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            S.rho_star_plan(g, {1, 3}, 1)

    @pytest.mark.parametrize("t", [-1, -4, 4, 99])
    def test_refuses_target_out_of_range(self, t):
        # a negative t would otherwise read another target's column
        g = path_graph(4)
        with pytest.raises(ValueError, match=f"target {t} out of range for n=4"):
            S.rho_star_plan(g, {1, 3}, t)

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

    def test_first_adjacent_pair_matches_rows_check(self):
        # the CSR check names the same pair, in the same message, as the
        # check on distance rows it replaced
        rng = np.random.default_rng(71)
        seen = 0
        for _ in range(200):
            g = random_connected_graph(rng, n_max=14, n_min=1)
            C = tuple(sorted(int(v) for v in
                             rng.permutation(g.n)[: int(rng.integers(0, g.n + 1))]))
            msgs = []
            for check in (lambda: S._check_separated(g, C),
                          lambda: check_separated_reference(C, S._distance_rows(g, C))):
                try:
                    check()
                    msgs.append(None)
                except ValueError as exc:
                    msgs.append(str(exc))
            assert msgs[0] == msgs[1]
            seen += msgs[0] is not None
        assert 50 < seen < 200


class TestColluderIdsOutOfRange:
    """Every builder refuses an id outside [0, n) by name; -1 would
    otherwise read node n - 1's row and n raise a bare IndexError."""

    BUILDERS = [S.honest_strategy, S.independent_strategy, S.separated_strategy,
                S.adjacent_strategy, R.honest_nonuniform,
                lambda g, C: S.rho_star_plan(g, C, 0)]

    @pytest.mark.parametrize("bad", [-1, 5])
    @pytest.mark.parametrize("build", BUILDERS)
    def test_builders(self, build, bad):
        with pytest.raises(ValueError, match=f"^colluder {bad} out of range for n=5$"):
            build(path_graph(5), [2, bad])

    CALLS = [
        pytest.param(lambda g, bad: S.minimal_admissible_bruteforce(g, [bad], 0),
                     "colluder", id="bruteforce-colluder"),
        pytest.param(lambda g, bad: S.minimal_admissible_bruteforce(g, [2], bad),
                     "target", id="bruteforce-target"),
        pytest.param(lambda g, bad: S.colluding_distance(g, [bad, 1], bad, 1, 2),
                     "colluder", id="colluding_distance"),
        pytest.param(lambda g, bad: S.colluder_components(g, [2, bad]),
                     "colluder", id="colluder_components"),
        pytest.param(lambda g, bad: R.blow_up(g, [bad]), "colluder", id="blow_up"),
        pytest.param(lambda g, bad: R.translate_fraction(g, [bad], 0.5),
                     "colluder", id="translate_fraction"),
        pytest.param(lambda g, bad: G.distance_avoiding(g, [], bad, 3),
                     "endpoint", id="distance_avoiding-x"),
        pytest.param(lambda g, bad: G.distance_avoiding(g, [], 0, bad),
                     "endpoint", id="distance_avoiding-y"),
        pytest.param(lambda g, bad: G.distance_avoiding(g, [bad], 0, 3),
                     "colluder", id="distance_avoiding-removed"),
    ]

    @pytest.mark.parametrize("bad", [-1, 5])
    @pytest.mark.parametrize("call, what", CALLS)
    def test_other_calls(self, call, what, bad):
        with pytest.raises(ValueError, match=f"^{what} {bad} out of range for n=5$"):
            call(path_graph(5), bad)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_lift_strategy(self, bad):
        g = path_graph(5)
        nu = R.NonuniformStrategy(colluders=(bad,), broadcast={}, forward={})
        with pytest.raises(ValueError, match=f"^colluder {bad} out of range"):
            R.lift_strategy(R.blow_up(g, [bad]), nu)


class TestColluderRows:
    """The per-colluder-set helpers the builders and the pass share."""

    def graphs(self):
        rng = np.random.default_rng(71)
        out = [G.from_edges(n, []) for n in (0, 1, 2)] + [path_graph(2)]
        for _ in range(12):
            g = random_connected_graph(rng, n_max=14, n_min=1)
            if rng.random() < 0.5:  # a second component and an isolated node
                g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
            out.append(g)
        out.append(G.erdos_renyi(300, 0.01, seed=3))
        return out, rng

    def test_honest_rows_match_banned_bfs(self):
        graphs, rng = self.graphs()
        for g in graphs:
            perm = [int(v) for v in rng.permutation(g.n)]
            for C in ([], sorted(perm[: max(1, g.n // 3)]), sorted(perm[:70]),
                      list(range(g.n))):
                rows = S._honest_rows(g, C)
                assert rows.shape == (len(C), g.n)
                banned = np.zeros(g.n, np.bool_)
                banned[C] = True
                for i, x in enumerate(C):
                    banned[x] = False
                    expect = kernels.bfs(g.indptr, g.indices, x, banned)
                    banned[x] = True
                    assert (G.as_hops(rows[i]) == expect).all()

    def test_colluder_components_match_dfs(self):
        graphs, rng = self.graphs()
        for g in graphs:
            for size in (0, 1, g.n // 2, g.n):
                C = [int(v) for v in rng.permutation(g.n)[:size]]
                assert S.colluder_components(g, C) == \
                    colluder_components_reference(g, C)


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
        for order, bad in (([0, 99], 99), ([0, -1], -1), ([0, 2], 2),
                           ([(0, 1), 3], 1)):
            with pytest.raises(ValueError, match=f": {bad} is not a colluder"):
                S.adjacent_strategy(g, [0, 3], component_order=order)
        with pytest.raises(ValueError,
                           match=r"^order item \(0, 3\) spans multiple components$"):
            S.adjacent_strategy(g, [0, 3], component_order=[(0, 3)])


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
        f = _closest_hop(g, S._distance_rows(g, [2]), 2)
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

    @pytest.mark.parametrize("hop", [-2, 5])
    def test_rejects_hop_outside_range(self, hop):
        g = path_graph(5)
        strat = S.honest_strategy(g, [1])
        strat.forward[1][3] = hop
        with pytest.raises(ValueError, match=f"^forward\\(1,3\\) = {hop} is not a neighbour$"):
            strat.validate(g)

    def test_rejects_missing_forward_vector(self):
        g = path_graph(5)
        strat = replace(S.honest_strategy(g, [1, 3]), forward={})
        with pytest.raises(ValueError, match="^forward vector for node 1 is missing$"):
            strat.validate(g)

    def test_rejects_misshapen_forward_vector(self):
        g = path_graph(5)
        strat = S.honest_strategy(g, [1, 3])
        strat.forward[3] = strat.forward[3][:4]
        with pytest.raises(ValueError,
                           match=r"^forward vector for node 3 has shape \(4,\)$"):
            strat.validate(g)

    def test_first_fault_in_colluder_order(self):
        # colluder 1 faults at targets 3 and 4, colluder 3 at the lower target 0
        g = path_graph(5)
        strat = S.honest_strategy(g, [1, 3])
        strat.forward[1][3:] = [4, -2]
        strat.forward[3][0] = 0
        with pytest.raises(ValueError, match=r"^forward\(1,3\) = 4 is not a neighbour$"):
            strat.validate(g)
        # the order is that of the ids, not of the colluders tuple
        with pytest.raises(ValueError, match=r"^forward\(1,3\) = 4 is not a neighbour$"):
            replace(strat, colluders=(3, 1)).validate(g)
        # a later colluder's missing vector does not hide an earlier bad hop
        del strat.forward[3]
        with pytest.raises(ValueError, match=r"^forward\(1,3\) = 4 is not a neighbour$"):
            strat.validate(g)
        strat.forward[1][3:] = [2, 2]
        with pytest.raises(ValueError, match="^forward vector for node 3 is missing$"):
            strat.validate(g)

    def test_overzealous_broadcast(self):
        # colluder 6 hangs off a long path toward target 0; claiming
        # distance 1 strands the branch around node 4, claiming d-2 is fine
        g = G.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])

        def strat(claim):
            b = G.bfs_distances(g, 6).dist.copy()
            b[0] = claim
            f = _closest_hop(g, S._distance_rows(g, [6]), 6)
            return S.Strategy(colluders=(6,), broadcast={6: b}, forward={6: f})

        assert S.check_admissible(g, strat(3)).admissible  # d - 2
        verdict = S.check_admissible(g, strat(1))
        assert not verdict.admissible
        assert verdict.trap_set == {4, 5, 6}


class TestValidate:
    """Faults a check would otherwise pass over or truncate."""

    def test_repeated_colluder(self):
        # (2, 2) passed the check and was counted, and its text then failed
        # to parse as a repeated record
        g = path_graph(5)
        twice = replace(S.honest_strategy(g, [2]), colluders=(2, 2))
        for call in (twice.validate, lambda g: S.check_admissible(g, twice),
                     lambda g: intercepted_pairs(g, twice)):
            with pytest.raises(ValueError, match="^colluder 2 is repeated$"):
                call(g)

    @pytest.mark.parametrize("field, t, value", [
        ("broadcast", 4, 2.9), ("broadcast", 0, np.nan),
        ("broadcast", 1, np.inf), ("forward", 0, 1.6)])
    def test_non_integer_entry(self, field, t, value):
        # truncated, 2.9 would be 2 and hop 1.6 the neighbour 1
        g = path_graph(5)
        strat = S.honest_strategy(g, [2])
        vec = getattr(strat, field)[2].astype(float)
        vec[t] = value
        bad = replace(strat, **{field: {2: vec}})
        message = rf"^{field}\(2,{t}\) = {value} is not an integer$"
        calls = [bad.validate, lambda g: S.check_admissible(g, bad),
                 lambda g: intercepted_pairs(g, bad),
                 lambda g: S.strategy_to_text(bad)]
        if field == "broadcast":
            calls += [lambda g: P.validate_broadcasts(g.n, [2], bad.broadcast),
                      lambda g: P.synchronize(g, [2], bad.broadcast)]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(g)

    def test_fault_order_across_and_within_rows(self):
        # rows in id order; within a row: shape, non-integer, self entry,
        # lowest target; a value fault in an earlier row wins over a shape
        # fault in a later one
        g = path_graph(5)
        strat = S.honest_strategy(g, [1, 3])
        b, f = strat.broadcast, strat.forward
        cases = [
            ({1: [1, 0, 1, 2, 0], 3: [3, 2, 1]}, f,
             r"^broadcast distance must be >= 1 \(node 1, target 4\)$"),
            ({1: [1, 0, 1, 2, 2.5], 3: [3, 2, 1]}, f,
             r"^broadcast\(1,4\) = 2.5 is not an integer$"),
            ({1: [0, 1, 1, 2, 3], 3: b[3]}, f,
             r"^self distance must be 0 \(node 1, target 1\)$"),
            ({1: [0, 1, 1, 2, 3.5], 3: b[3]}, f,
             r"^broadcast\(1,4\) = 3.5 is not an integer$"),
            ({1: [1, 0, 1, 2], 3: [0, 2, 1, 0, 1]}, f,
             r"^broadcast vector for node 1 has shape \(4,\)$"),
            (b, {1: [0, -1, 2, 4, 2], 3: [4, 4]},
             r"^forward\(1,3\) = 4 is not a neighbour$"),
            (b, {1: [0, -1, 2, 4, 2.5], 3: f[3]},
             r"^forward\(1,4\) = 2.5 is not an integer$"),
            (b, {1: [0, -1, 2, 2], 3: [7, 4, 4, 4, -1]},
             r"^forward vector for node 1 has shape \(4,\)$"),
        ]
        for broadcast, forward, message in cases:
            bad = S.Strategy(colluders=(1, 3), broadcast=dict(broadcast),
                             forward=dict(forward))
            with pytest.raises(ValueError, match=message):
                bad.validate(g)
            with pytest.raises(ValueError, match=message):
                intercepted_pairs(g, bad)

    def test_text_refuses_non_integer_broadcast(self):
        # the text format holds integers only: 2.9 is refused, not truncated
        strat = S.honest_strategy(path_graph(3), [1])
        strat.broadcast[1] = np.array([2.9, 0, 1])
        with pytest.raises(ValueError,
                           match=r"^broadcast\(1,0\) = 2.9 is not an integer$"):
            S.strategy_to_text(strat)

    def test_colluders_out_of_id_order(self):
        # a hand-built (3, 1) validates to id-ordered arrays and is checked
        # and counted as the sorted strategy is
        g = G.erdos_renyi(12, 0.3, seed=5)
        strat = S.adjacent_strategy(g, [1, 3])
        swapped = replace(strat, colluders=(3, 1))
        ids, b, hop = swapped.validate(g)
        assert ids == (1, 3)
        assert (b == [strat.broadcast[v] for v in ids]).all()
        assert (hop == [strat.forward[v] for v in ids]).all()
        assert S.check_admissible(g, swapped) == S.check_admissible(g, strat)
        assert intercepted_pairs(g, swapped, per_target=True) \
            == intercepted_pairs(g, strat, per_target=True)

    def test_integral_floats_and_inf_stay_valid(self):
        # colluder 1 cannot reach 3 or 4, so its broadcast holds INF
        g = G.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        strat = S.separated_strategy(g, [1])
        floats = replace(strat, broadcast={1: strat.broadcast[1].astype(float)},
                         forward={1: strat.forward[1].astype(float)})
        assert INF in strat.broadcast[1]
        assert intercepted_pairs(g, floats) == intercepted_pairs(g, strat)
        assert (P.synchronize(g, [1], floats.broadcast).rho
                == P.synchronize(g, [1], strat.broadcast).rho).all()


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
        f = _closest_hop(g, S._distance_rows(g, [2]), 2)
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

    def test_frontier_matches_iterative_reference(self):
        # the closed form against one sync_column and one liberal reach per
        # combination: n from 1 to 9, a third of the graphs with a second
        # component and an isolated node, 0 to 3 colluders, adjacent ones
        # included, every non-colluder a target; n <= 2 and every other node
        # a colluder are forced in turn.  A budget of 40 makes the larger
        # searches raise BudgetError, which both sides must do alike.
        rng = np.random.default_rng(89)
        triples = raised = 0
        for case in range(600):
            if case % 5 == 0:
                n = int(rng.integers(1, 3))
                g = G.from_edges(n, [(0, 1)] if n == 2 and rng.random() < 0.5
                                 else [])
            else:
                g = random_connected_graph(rng, n_max=6, n_min=1)
                if rng.random() < 0.3:
                    g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
            k = (g.n - 1 if case % 7 == 0
                 else int(rng.integers(0, min(3, g.n - 1) + 1)))
            C = [int(v) for v in rng.permutation(g.n)[:k]]
            for t in range(g.n):
                if t in C:
                    continue
                try:
                    expect = minimal_admissible_bruteforce_reference(g, C, t,
                                                                     budget=40)
                except S.BudgetError:
                    with pytest.raises(S.BudgetError):
                        S.minimal_admissible_bruteforce(g, C, t, budget=40)
                    raised += 1
                    continue
                assert S.minimal_admissible_bruteforce(g, C, t, budget=40) \
                    == expect, (list(g.edges()), C, t)
                triples += 1
        assert triples >= 1500 and raised


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

    def test_other_component_is_inf(self):
        # colluder 1 cannot reach 3 or 4: its lie toward them is INF, not
        # INF - 2, and the text says so; every ordered pair of {0, 1, 2}
        # crosses 1 either way
        g = G.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        honest = intercepted_pairs(g, S.honest_strategy(g, [1]))
        for st_ in (S.separated_strategy(g, [1]), S.adjacent_strategy(g, [1])):
            assert list(st_.broadcast[1]) == [1, 0, 1, INF, INF]
            text = S.strategy_to_text(st_)
            assert "1 3 inf -1" in text and "1 4 inf -1" in text
            back = S.strategy_from_text(text, g.n)
            assert (back.broadcast[1] == st_.broadcast[1]).all()
            res = intercepted_pairs(g, st_)
            assert res.intercepted_ordered == honest.intercepted_ordered == 6

    @pytest.mark.parametrize("record, message", [
        ("1 0 1", "expected 4 tokens, got 3"),
        ("1 0 1 0 0", "expected 4 tokens, got 5"),
        ("1 x 1 0", "non-integer field"),
        ("1 0 1.5 0", "non-integer field"),
        ("1 -1 2 0", "target -1 out of range"),
        ("9 0 1 0", "colluder 9 out of range"),
        ("1 7 1 0", "target 7 out of range"),
        ("1 0 1 -2", "hop -2 out of range"),
        ("# label", "label line without a label"),
        ("1 1 2 0", "record for colluder 1, target 1 repeats line 2"),
    ], ids=["too-few-tokens", "too-many-tokens", "non-integer-id",
            "non-integer-broadcast", "negative-target", "colluder-out-of-range",
            "target-out-of-range", "hop-below-minus-one", "label-missing",
            "repeated-record"])
    def test_rejects_malformed_record(self, record, message):
        text = f"# label custom\n1 1 0 -1\n\n{record}\n"
        with pytest.raises(G.ParseError, match=f"line 4: {message}") as exc:
            S.strategy_from_text(text, 4)
        assert exc.value.line_number == 4


def closest_hop_oracle(g, dist, v, t):
    """Lowest-id neighbour of v on a shortest path to t, from the BFS row
    dist[t]; -1 where t = v or t is unreachable."""
    best, hop = INF, -1
    for u in g.neighbors(v):
        if t != v and dist[t][u] < best:
            best, hop = dist[t][u], int(u)
    return hop


def assert_builder_outputs(g, C, lift=True):
    """Every builder's broadcasts and hops against per-target BFS rows: hops
    at honestly routed entries are the lowest-id closest neighbour."""
    dist = [G.bfs_distances(g, t).dist for t in range(g.n)]
    cset = set(C)

    def check_hops(graph, rows, strat, honest_entry=lambda v, t: True):
        for v in strat.colluders:
            for t in range(graph.n):
                if honest_entry(v, t):
                    assert strat.forward[v][t] == closest_hop_oracle(
                        graph, rows, v, t), (v, t)

    honest = S.honest_strategy(g, C)
    independent = S.independent_strategy(g, C)
    nonuniform = R.honest_nonuniform(g, C)
    for v in C:
        d = dist[v]
        assert (honest.broadcast[v] == d).all()
        lie = np.where(d >= INF, INF, np.maximum(1, d - 2))
        lie[v] = 0
        assert (independent.broadcast[v] == lie).all()
        assert set(nonuniform.broadcast[v]) == set(map(int, g.neighbors(v)))
        assert all((b == d).all() for b in nonuniform.broadcast[v].values())
    for strat in (honest, independent, nonuniform):
        check_hops(g, dist, strat)

    strats = [S.adjacent_strategy(g, C)]
    try:
        strats.append(S.separated_strategy(g, C))
    except ValueError:
        pass
    for strat in strats:
        for v in C:
            unreachable = dist[v] >= INF
            assert (strat.broadcast[v][unreachable] == INF).all()
        # colluder targets and unreachable ones stay honestly routed; a
        # separated colluder whose own lie is not beaten routes toward t
        check_hops(g, dist, strat, lambda v, t: t in cset or dist[v][t] >= INF
                   or (strat.label == "rho_star"
                       and strat.broadcast[v][t] == max(1, dist[v][t] - 2)))

    if lift:
        bm = R.blow_up(g, C)
        lifted = R.lift_strategy(bm, nonuniform)
        gp = bm.blown
        blown = [G.bfs_distances(gp, t).dist for t in range(gp.n)]
        check_hops(gp, blown, lifted, lambda v, t: t >= g.n or t in cset)


def separated_subset(g, rng):
    out = []
    for v in rng.permutation(g.n):
        if all(G.bfs_distances(g, int(v)).dist[u] >= 2 for u in out):
            out.append(int(v))
    return out


class TestBuilderOutputs:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_against_bfs_rows(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n_max=9, n_min=1)
        if rng.random() < 0.4:  # a second component and an isolated node
            g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
        if rng.random() < 0.5:
            C = separated_subset(g, rng)
        else:
            C = [int(v) for v in rng.permutation(g.n)]
        C = C[: int(rng.integers(0, len(C) + 1))]  # from no colluder to all
        assert_builder_outputs(g, C)

    def test_rows_span_two_blocks(self):
        g = G.erdos_renyi(300, 0.012, seed=4)
        g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
        assert g.n > G._BLOCK
        rng = np.random.default_rng(4)
        C = [int(v) for v in rng.permutation(g.n)[:150]]
        at, D = S._distance_rows(g, C)
        assert D.shape[0] > G._BLOCK  # colluders and neighbours
        assert_builder_outputs(g, C, lift=False)
        assert_builder_outputs(g, separated_subset(g, rng)[:12])


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_plans_match_per_target_reference(seed):
    # 40 % of the graphs have a second component and an isolated node; the
    # separated set of 0 to 8 colluders, in random order, is also the order
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=16, n_min=1)
    if rng.random() < 0.4:
        g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
    order = separated_subset(g, rng)[: int(rng.integers(0, 9))]
    C = tuple(sorted(order))
    rows = S._distance_rows(g, C)
    hops = [_closest_hop(g, rows, x) for x in C]
    for o in (None, order):
        T, val, fn, pred, hop = S._rho_star_plans(g, C, rows, hops, order=o)
        assert list(T) == [t for t in range(g.n) if t not in C]
        for j, t in enumerate(T):
            ref = rho_star_plan_reference(g, C, int(t), order=o)
            assert S.rho_star_plan(g, C, int(t), order=o) == ref
            for i, x in enumerate(C):
                e = ref.entries[x]
                assert (val[i, j], fn[i, j], hop[i, j]) == \
                    (e.value, e.forwarding_number, e.exit_hop)
                nxt = C[pred[i, j]] if pred[i, j] >= 0 else None
                assert nxt == (e.witness[1] if len(e.witness) > 1 else None)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_builders_match_per_target_reference(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=12, n_min=1)
    if rng.random() < 0.4:
        g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
    if rng.random() < 0.4:
        C = separated_subset(g, rng)
    else:
        C = [int(v) for v in rng.permutation(g.n)]
    C = C[: int(rng.integers(0, len(C) + 1))]
    pairs = [(S.adjacent_strategy(g, C), adjacent_strategy_reference(g, C))]
    comps = S.colluder_components(g, C)
    if len(comps) > 1:
        order = [comps[i] if rng.random() < 0.5 else comps[i][-1]
                 for i in rng.permutation(len(comps))]
        pairs.append((S.adjacent_strategy(g, C, component_order=order),
                      adjacent_strategy_reference(g, C, component_order=order)))
    if all(len(c) == 1 for c in comps):
        pairs.append((S.separated_strategy(g, C),
                      separated_strategy_reference(g, C)))
    for got, ref in pairs:
        assert got.colluders == ref.colluders and got.label == ref.label
        for v in ref.colluders:
            assert np.array_equal(got.broadcast[v], ref.broadcast[v])
            assert np.array_equal(got.forward[v], ref.forward[v])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_closest_hops_match_reference(seed):
    # two components and up to two isolated nodes: the rows of every node,
    # and those of a random set and its neighbours, hold INF entries
    rng = np.random.default_rng(seed)
    a = random_connected_graph(rng, n_max=14, n_min=1)
    b = random_connected_graph(rng, n_max=6, n_min=1)
    g = G.from_edges(a.n + b.n + int(rng.integers(0, 3)),
                     list(a.edges()) + [(a.n + u, a.n + v) for u, v in b.edges()])
    every = S._distance_rows(g, range(g.n))
    assert (every[1] >= INF).any()
    V = [int(v) for v in rng.permutation(g.n)]
    assert S._closest_hops(g, every, V).tolist() == \
        [_closest_hop(g, every, v).tolist() for v in V]
    C = sorted(int(v) for v in rng.choice(g.n, int(rng.integers(0, g.n + 1)),
                                          replace=False))
    rows = S._distance_rows(g, C)
    hops = S._closest_hops(g, rows, C)
    assert hops.shape == (len(C), g.n) and hops.dtype == np.int64
    assert hops.tolist() == [_closest_hop(g, rows, v).tolist() for v in C]
