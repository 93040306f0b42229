from fractions import Fraction

import numpy as np
import pytest

import dvintercept.reduction as R
import dvintercept.strategy as S
from dvintercept import graph as G
from dvintercept.interception import intercepted_pairs
from dvintercept.strategy import check_admissible

from oracles import (
    nonuniform_admissible,
    nonuniform_intercepted,
    random_connected_graph,
    translate_fraction_closed_form,
)


def cycle_graph(n):
    return G.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def uniform_as_nonuniform(g, strat):
    """Express a uniform Strategy in the per-neighbour representation."""
    broadcast = {
        v: {int(u): strat.broadcast[v].copy() for u in g.neighbors(v)}
        for v in strat.colluders
    }
    forward = {v: strat.forward[v].copy() for v in strat.colluders}
    return R.NonuniformStrategy(colluders=strat.colluders,
                                broadcast=broadcast, forward=forward)


class TestBlowUp:
    def test_empty_set(self):
        g = cycle_graph(4)
        bm = R.blow_up(g, [])
        assert bm.blown.n == 4 and bm.blown.m == 4
        assert bm.S_prime == ()

    def test_c4_single_colluder(self):
        bm = R.blow_up(cycle_graph(4), [0])
        assert bm.blown.n == 6 and bm.blown.m == 6
        assert bm.S_prime == (0, bm.w_of[(0, 1)], bm.w_of[(0, 3)])

    def test_new_ids_in_sorted_edge_order(self):
        g = G.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        bm = R.blow_up(g, [2])
        assert bm.w_of == {(0, 2): 4, (1, 2): 5, (2, 3): 6}

    def test_regular_independent_count(self):
        # D-regular graph, independent S: |V'| = |V| + |S| * D
        g = cycle_graph(8)
        bm = R.blow_up(g, [0, 4])
        assert bm.blown.n == 8 + 2 * 2

    def test_edge_inside_s_subdivided_once(self):
        g = G.from_edges(3, [(0, 1), (1, 2)])
        bm = R.blow_up(g, [0, 1])
        assert bm.blown.n == 3 + 2


class TestTranslateFraction:
    def test_identity_on_empty_set(self):
        g = cycle_graph(4)
        assert R.translate_fraction(g, [], Fraction(1, 3)) == Fraction(1, 3)

    def test_c4_both_modes(self):
        g = cycle_graph(4)
        direct = R.translate_fraction(g, [0], Fraction(1, 3))
        closed = translate_fraction_closed_form(g, [0], Fraction(1, 3))
        assert direct == Fraction(11, 15)
        assert closed == Fraction(7, 15)
        assert direct != closed  # the two accountings genuinely disagree

    def test_formula_mode_needs_regular_graph(self):
        g = G.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="regular"):
            translate_fraction_closed_form(g, [1], Fraction(0))

    def test_direct_matches_engine(self):
        # connected graphs, disconnected ones and isolated nodes: p, like
        # the engine's fraction, is over the pairs within one component
        rng = np.random.default_rng(47)
        cases = [(G.from_edges(1, []), [0]),  # no pair at all: 0, not 0 / 0
                 (G.from_edges(4, [(0, 1), (2, 3)]), [0])]  # 1/2 -> 3/4
        for i in range(16):
            g = random_connected_graph(rng, n_max=9)
            if i % 2:
                h = random_connected_graph(rng, n_max=6, n_min=1)
                g = G.from_edges(g.n + h.n + i % 4 // 2, list(g.edges()) + [
                    (g.n + u, g.n + v) for u, v in h.edges()])
            k = int(rng.integers(1, max(2, g.n // 3 + 1)))
            cases.append((g, sorted(int(v) for v in rng.permutation(g.n)[:k])))
        for g, C in cases:
            nu = uniform_as_nonuniform(g, S.independent_strategy(g, C))
            pairs = nonuniform_intercepted(g, nu)
            total = sum(m * (m - 1) // 2
                        for m in np.bincount(G.component_labels(g)).tolist())
            p = Fraction(sum(1 for (a, b) in pairs if a < b and (b, a) in pairs),
                         total) if total else Fraction(0)
            bm = R.blow_up(g, C)
            lifted = R.lift_strategy(bm, nu)
            measured = intercepted_pairs(bm.blown, lifted).fraction_unordered
            assert R.translate_fraction(g, C, p) == measured


class TestLiftCollapse:
    def test_lift_honest_is_admissible(self):
        rng = np.random.default_rng(57)
        for _ in range(6):
            g = random_connected_graph(rng, n_max=8)
            C = [int(rng.integers(g.n))]
            bm = R.blow_up(g, C)
            lifted = R.lift_strategy(bm, R.honest_nonuniform(g, C))
            assert check_admissible(bm.blown, lifted).admissible

    def test_admissibility_preserved_both_ways(self):
        rng = np.random.default_rng(59)
        for _ in range(8):
            g = random_connected_graph(rng, n_max=8)
            k = int(rng.integers(1, 3))
            C = sorted(int(v) for v in rng.permutation(g.n)[:k])
            nu = uniform_as_nonuniform(g, S.independent_strategy(g, C))
            assert nonuniform_admissible(g, nu)
            bm = R.blow_up(g, C)
            lifted = R.lift_strategy(bm, nu)
            assert check_admissible(bm.blown, lifted).admissible

    def test_same_original_pairs_intercepted(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            g = random_connected_graph(rng, n_max=8)
            k = int(rng.integers(1, 3))
            C = sorted(int(v) for v in rng.permutation(g.n)[:k])
            nu = uniform_as_nonuniform(g, S.adjacent_strategy(g, C))
            bm = R.blow_up(g, C)
            lifted = R.lift_strategy(bm, nu)
            res = intercepted_pairs(bm.blown, lifted, per_target=True)
            expect = nonuniform_intercepted(g, nu)
            got = set()
            sset = set(bm.S_prime)
            for t in range(g.n):
                icount, _ = res.per_target_counts[t]
                # reconstruct which original sources were intercepted
            # direction-level comparison via the engine's pair matrix
            from dvintercept import kernels as K

            smask = np.zeros(bm.blown.n, bool)
            smask[list(bm.S_prime)] = True
            cmask = smask.copy()
            pinned = np.zeros(bm.blown.n, np.int64)
            hops = np.full(bm.blown.n, -1, np.int64)
            for t in range(g.n):
                for v in bm.S_prime:
                    pinned[v] = lifted.broadcast[v][t]
                    hops[v] = lifted.forward[v][t]
                col, _ = K.sync_column(bm.blown.indptr, bm.blown.indices,
                                       pinned, cmask, t)
                reached = K.reach(bm.blown.indptr, bm.blown.indices, col, t,
                                  cmask, hops, banned=smask)
                for s in range(g.n):
                    if s == t:
                        continue
                    if s in sset or t in sset or not reached[s]:
                        got.add((s, t))
            assert got == expect

    def test_round_trip_identity(self):
        # collapse(lift(x)) restores x on every honest-target entry; columns
        # whose target itself colludes are normalized to honest values by the
        # lift (those pairs are intercepted by definition)
        rng = np.random.default_rng(63)
        for _ in range(6):
            g = random_connected_graph(rng, n_max=8)
            k = int(rng.integers(1, 3))
            C = sorted(int(v) for v in rng.permutation(g.n)[:k])
            cset = set(C)
            nu = uniform_as_nonuniform(g, S.independent_strategy(g, C))
            bm = R.blow_up(g, C)
            back = R.collapse_strategy(bm, R.lift_strategy(bm, nu))
            assert back.colluders == nu.colluders
            honest = [t for t in range(g.n) if t not in cset]
            for v in C:
                assert set(back.broadcast[v]) == set(nu.broadcast[v])
                for u in nu.broadcast[v]:
                    if u in cset:
                        # a colluder-to-colluder announcement never reaches an
                        # honest ear; the blown-up graph does not preserve it
                        continue
                    assert (back.broadcast[v][u][honest]
                            == nu.broadcast[v][u][honest]).all()
                assert (back.forward[v][honest] == nu.forward[v][honest]).all()

    def test_lift_collapse_idempotent(self):
        # lift . collapse is the identity on the image of lift
        rng = np.random.default_rng(65)
        for _ in range(4):
            g = random_connected_graph(rng, n_max=8)
            C = sorted(int(v) for v in rng.permutation(g.n)[:2])
            nu = uniform_as_nonuniform(g, S.independent_strategy(g, C))
            bm = R.blow_up(g, C)
            once = R.lift_strategy(bm, nu)
            twice = R.lift_strategy(bm, R.collapse_strategy(bm, once))
            assert once.colluders == twice.colluders
            for v in once.colluders:
                assert (once.broadcast[v] == twice.broadcast[v]).all()
                assert (once.forward[v] == twice.forward[v]).all()

    def test_colluder_mismatch_rejected(self):
        g = cycle_graph(5)
        bm = R.blow_up(g, [0])
        with pytest.raises(ValueError):
            R.lift_strategy(bm, R.honest_nonuniform(g, [1]))
        with pytest.raises(ValueError, match="^uniform strategy colluders do not match"):
            R.collapse_strategy(bm, S.honest_strategy(bm.blown, [1]))


class TestGenuinelyNonuniform:
    def test_distinct_per_neighbour_lies(self):
        # single colluder announcing different values to different neighbours;
        # the lifted uniform strategy intercepts the same original pairs
        g = G.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        v = 0
        nu0 = R.honest_nonuniform(g, [v])
        truth = G.bfs_distances(g, v).dist
        broadcast = {v: {}}
        for i, u in enumerate(g.neighbors(v)):
            vec = truth.copy() if i % 2 == 0 else np.maximum(1, truth - 2)
            vec[v] = 0
            broadcast[v][int(u)] = vec
        nu = R.NonuniformStrategy(colluders=(v,), broadcast=broadcast,
                                  forward=nu0.forward)
        assert nonuniform_admissible(g, nu)
        bm = R.blow_up(g, [v])
        lifted = R.lift_strategy(bm, nu)
        assert check_admissible(bm.blown, lifted).admissible
        expect = nonuniform_intercepted(g, nu)
        res = intercepted_pairs(bm.blown, lifted)
        p = Fraction(sum(1 for (a, b) in expect if a < b and (b, a) in expect),
                     g.n * (g.n - 1) // 2)
        assert R.translate_fraction(g, [v], p) == res.fraction_unordered
