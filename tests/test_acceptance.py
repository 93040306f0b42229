"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Each test computes its verdict and reports through the `acceptance` fixture,
which prints `A<i> pass/FAIL: <detail>` and re-prints all lines in the
terminal summary.
"""

import itertools
import os
from fractions import Fraction
from math import comb, e

import numpy as np
import pytest

import dvintercept.kernels as kernels
from dvintercept import graph as G
from dvintercept import strategy as S
from dvintercept.cli import build_strategy, derive_seed
from dvintercept.graph import (
    erdos_renyi,
    load_edge_list,
    pref_attach,
    watts_strogatz,
)
from dvintercept.interception import intercepted_pairs
from dvintercept.kernels import INF
from dvintercept.protocol import synchronize
from dvintercept.reduction import (
    blow_up,
    collapse_strategy,
    lift_strategy,
    translate_fraction,
)
from dvintercept.selection import (
    exhaustive_opt,
    greedy_max_spds,
    shortest_path_coverage,
)

from oracles import (minimal_admissible_frontiers, random_connected_graph,
                     translate_fraction_closed_form)

MESH = os.path.join(os.path.dirname(__file__), "data", "mesh.edges")


def _column_admissible(g, colluders, values, t):
    """True when the pinned column t admits SOME delivering forwarding."""
    cmask = np.zeros(g.n, np.bool_)
    pinned = np.zeros(g.n, np.int64)
    for x, b in zip(colluders, values):
        cmask[x] = True
        pinned[x] = b
    col, _ = kernels.sync_column(g.indptr, g.indices, pinned, cmask, t)
    hops = np.full(g.n, -1, np.int64)
    reached = kernels.reach(g.indptr, g.indices, col, t, cmask, hops,
                            liberal=True)
    comp = G.component_labels(g)
    return bool(reached[comp == comp[t]].all())


def _sample_graphs(seed, count, n_max):
    rng = np.random.default_rng(seed)
    return [random_connected_graph(rng, n_max=n_max) for _ in range(count)]


class TestAcceptance:
    def test_a1_fixpoint_matches_bfs(self, acceptance):
        rng = np.random.default_rng(101)
        worst_rounds = 0
        for _ in range(50):
            n = int(rng.integers(10, 201))
            g = erdos_renyi(n, 8.0 / n, int(rng.integers(2 ** 31)))
            belief = synchronize(g, [], {})
            expect = np.vstack([kernels.bfs(g.indptr, g.indices, s) for s in range(n)])
            assert np.array_equal(belief.rho, expect)
            assert belief.rounds_to_converge <= n - 1
            worst_rounds = max(worst_rounds, belief.rounds_to_converge)
        acceptance("A1", True,
                   "50 graphs: sync fixpoint == all-pairs BFS, worst "
                   f"rounds {worst_rounds}")

    def test_a2_single_colluder_optimum(self, acceptance):
        checked = 0
        for g in _sample_graphs(102, 200, 8):
            for x in range(g.n):
                dt = kernels.bfs(g.indptr, g.indices, x)
                targets = [t for t in range(g.n) if t != x]
                _, frontiers = minimal_admissible_frontiers(g, [x], targets)
                for t, frontier in zip(targets, frontiers):
                    assert frontier == [(max(1, int(dt[t]) - 2),)], (x, t)
                    checked += 1
        acceptance("A2", True,
                   f"{checked} (graph, colluder, target) triples: brute-force "
                   "minimum == max(1, d-2)")

    def test_a3_plan_is_entrywise_minimal(self, acceptance):
        graphs = _sample_graphs(103, 200, 8)
        rng = np.random.default_rng(1031)
        cases = [(g, 2) for g in graphs] + [(g, 3) for g in graphs[:30]]
        matched = decrements = 0
        for g, size in cases:
            dist = {v: kernels.bfs(g.indptr, g.indices, v) for v in range(g.n)}
            sets = [C for C in itertools.combinations(range(g.n), size)
                    if all(dist[a][b] >= 2 for a, b in itertools.combinations(C, 2))]
            if size == 3 and len(sets) > 8:
                idx = rng.permutation(len(sets))[:8]
                sets = [sets[i] for i in idx]
            for C in sets:
                targets = [t for t in range(g.n) if t not in C]
                _, frontiers = minimal_admissible_frontiers(g, C, targets)
                for t, frontier in zip(targets, frontiers):
                    plan = S.rho_star_plan(g, C, t)
                    values = tuple(plan.entries[x].value for x in C)
                    assert frontier == [values], (C, t, frontier, values)
                    matched += 1
                    for i, x in enumerate(C):
                        if values[i] > 1:
                            lowered = values[:i] + (values[i] - 1,) + values[i + 1:]
                            assert not _column_admissible(g, C, lowered, t), (C, t, x)
                            decrements += 1
        acceptance("A3", True,
                   f"{matched} plans == brute-force minima; {decrements} "
                   "single decrements all inadmissible")

    def test_a4_builtin_strategies_admissible(self, acceptance):
        rng = np.random.default_rng(104)
        mesh = load_edge_list(MESH)
        instances = []
        for i in range(125):
            n = int(rng.integers(20, 301))
            instances.append(erdos_renyi(n, 6.0 / n, int(rng.integers(2 ** 31))))
            instances.append(watts_strogatz(n + (n % 2), 4, 0.1,
                                            int(rng.integers(2 ** 31))))
            instances.append(pref_attach(n, 2, seed=int(rng.integers(2 ** 31))))
            instances.append(mesh)
        checked = 0
        for g in instances:
            k = int(rng.integers(1, 7))
            C = sorted(int(v) for v in rng.permutation(g.n)[:k])
            builders = [S.honest_strategy, S.independent_strategy,
                        S.adjacent_strategy]
            dist = {v: kernels.bfs(g.indptr, g.indices, v) for v in C}
            if all(dist[a][b] >= 2 for a, b in itertools.combinations(C, 2)):
                builders.append(S.separated_strategy)
            for build in builders:
                verdict = S.check_admissible(g, build(g, C))
                assert verdict, (build.__name__, g.n, C, verdict.violating_pair)
                checked += 1
        acceptance("A4", True,
                   f"{len(instances)} instances over 4 graph families, "
                   f"{checked} strategies admissible")

    def test_a5_submodularity_fixture(self, acceptance):
        g = G.from_edges(7, [(a, b) for a in (0, 1) for b in range(2, 7)])

        def optimal_count(C):
            strat = (S.separated_strategy(g, C) if len(C) < 2
                     else S.adjacent_strategy(g, C))
            return intercepted_pairs(g, strat).intercepted_ordered

        gain1 = optimal_count([1])
        gain2 = optimal_count([0, 1]) - gain1
        assert gain1 == 12 and gain2 == 30
        assert gain2 > gain1  # the submodular inequality fails here

        cov = {frozenset(c): shortest_path_coverage(g, list(c))
               for r in range(8) for c in itertools.combinations(range(7), r)}
        for small in cov:
            for big in cov:
                if not (small <= big):
                    continue
                for v in range(7):
                    if v in big:
                        continue
                    lhs = cov[small | {v}] - cov[small]
                    rhs = cov[big | {v}] - cov[big]
                    assert lhs >= rhs - 1e-12, (small, big, v)
        acceptance("A5", True,
                   "ordered marginals 12 then 30 (not submodular); honest "
                   "shortest-path coverage submodular on all chains")

    def test_a6_greedy_ratio(self, acceptance):
        rng = np.random.default_rng(106)
        worst = 1.0
        for _ in range(100):
            g = random_connected_graph(rng, n_max=18)
            k = int(rng.integers(1, 4))
            k = min(k, g.n)
            greedy_val = shortest_path_coverage(g, greedy_max_spds(g, k))
            _, opt_val = exhaustive_opt(g, k)
            bound = (1.0 - 1.0 / e) * opt_val
            assert greedy_val >= bound - 1e-12, (g.n, k, greedy_val, opt_val)
            if opt_val > 0:
                worst = min(worst, greedy_val / opt_val)
        acceptance("A6", True,
                   f"100 graphs: greedy/optimal ratio >= 1-1/e (worst "
                   f"observed {worst:.3f})")

    def test_a7_reduction_consistency(self, acceptance):
        rng = np.random.default_rng(107)
        formula_disagreements = 0
        for _ in range(50):
            g = random_connected_graph(rng, n_max=10)
            k = int(rng.integers(1, 4))
            C = sorted(int(v) for v in rng.permutation(g.n)[:k])
            strat = S.independent_strategy(g, C)
            res = intercepted_pairs(g, strat)
            p = res.fraction_unordered

            bm = blow_up(g, C)
            nonuniform = _uniform_as_nonuniform(g, strat)
            lifted = lift_strategy(bm, nonuniform)
            res_p = intercepted_pairs(bm.blown, lifted)
            assert res_p.fraction_unordered == translate_fraction(g, C, p)
            deg = g.degrees()
            if (deg == deg[0]).all():
                # the closed form only applies to regular graphs
                if res_p.fraction_unordered != translate_fraction_closed_form(
                        g, C, p):
                    formula_disagreements += 1

            # identity on the announcements honest nodes can hear; columns
            # toward colluder targets and colluder-to-colluder announcements
            # never affect interception and are normalized by the lift
            back = collapse_strategy(bm, lift_strategy(bm, nonuniform))
            honest_targets = [t for t in range(g.n) if t not in C]
            for v in C:
                for u in nonuniform.broadcast[v]:
                    if u in C:
                        continue
                    assert (back.broadcast[v][u][honest_targets]
                            == nonuniform.broadcast[v][u][honest_targets]).all()
        acceptance("A7", True,
                   "50 instances: direct count == engine on the blown-up "
                   "graph; collapse(lift) restores broadcasts (the closed "
                   f"form disagrees on {formula_disagreements} regular "
                   "instances, reported only)")

    def test_a8_curve_properties(self, acceptance):
        families = {
            "erdos_renyi": erdos_renyi(1000, 0.004, 1080),
            "watts_strogatz": watts_strogatz(1000, 10, 0.04, 1081),
            "pref_attach": pref_attach(100, 2, seed=1082),
        }
        sizes = [4, 9, 18]
        names = ["honest", "independent", "separated", "adjacent"]
        details = []
        for fam, g in families.items():
            frac = {}
            for trial in range(3):
                rng = np.random.default_rng(derive_seed(108, fam, trial))
                perm = rng.permutation(g.n)
                for k in sizes:
                    C = sorted(int(v) for v in perm[:k])
                    for name in names:
                        strat, _ = build_strategy(g, name, C)
                        frac[(trial, name, k)] = float(
                            intercepted_pairs(g, strat).fraction_ordered)
            for trial in range(3):
                for name in names:
                    curve = [frac[(trial, name, k)] for k in sizes]
                    assert curve == sorted(curve), (fam, trial, name, curve)
                for k in sizes:
                    h = frac[(trial, "honest", k)]
                    i = frac[(trial, "independent", k)]
                    assert i >= h, (fam, trial, k)
                    assert frac[(trial, "separated", k)] >= i, (fam, trial, k)
                    assert frac[(trial, "adjacent", k)] >= i, (fam, trial, k)
            details.append(fam)

        g = families["pref_attach"]
        degree_order = np.lexsort((np.arange(g.n), -g.degrees()))
        for k in sizes:
            hubs = sorted(int(v) for v in degree_order[:k])
            strat, _ = build_strategy(g, "separated", hubs)
            top = float(intercepted_pairs(g, strat).fraction_ordered)
            rand = []
            for trial in range(3):
                rng = np.random.default_rng(derive_seed(108, "pref_attach", trial))
                C = sorted(int(v) for v in rng.permutation(g.n)[:k])
                strat, _ = build_strategy(g, "separated", C)
                rand.append(float(intercepted_pairs(g, strat).fraction_ordered))
            assert top >= np.mean(rand), (k, top, rand)
        acceptance("A8", True,
                   "monotone sweeps and strategy ordering on "
                   f"{', '.join(details)}; top-degree >= mean random on the "
                   "scale-free family")

    def test_a9_as_headline(self, acceptance):
        path = os.environ.get("DVINTERCEPT_AS_GRAPH")
        if not path:
            for cand in ("data/as.edges", "tests/data/as.edges"):
                if os.path.exists(cand):
                    path = cand
                    break
        if not path or not os.path.exists(path):
            acceptance("A9", True,
                       "autonomous-system edge list not present; set "
                       "DVINTERCEPT_AS_GRAPH to run", skip=True)
        g = load_edge_list(path)
        fractions = []
        for seedno in range(20):
            rng = np.random.default_rng(derive_seed(109, seedno))
            C = sorted(int(v) for v in rng.permutation(g.n)[:18])
            strat, _ = build_strategy(g, "separated", C)
            fractions.append(float(intercepted_pairs(g, strat).fraction_ordered))
        mean = float(np.mean(fractions))
        ok = abs(mean - 0.10) <= 0.03
        acceptance("A9", ok,
                   f"18 random colluders intercept mean {mean:.3f} of ordered "
                   "pairs over 20 seeds (target 0.10 +/- 0.03)")


def _uniform_as_nonuniform(g, strat):
    from dvintercept.reduction import NonuniformStrategy

    broadcast = {v: {int(u): strat.broadcast[v] for u in g.neighbors(v)}
                 for v in strat.colluders}
    forward = {v: strat.forward[v] for v in strat.colluders}
    return NonuniformStrategy(colluders=strat.colluders, broadcast=broadcast,
                              forward=forward)
