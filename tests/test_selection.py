import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvintercept.strategy as S
from dvintercept import graph as G
from dvintercept import selection as sel
from dvintercept.interception import intercepted_pairs

from oracles import (
    exhaustive_reference,
    lazy_greedy_reference,
    random_connected_graph,
    shortest_path_coverage_reference,
)


def star(n):
    return G.from_edges(n, [(0, i) for i in range(1, n)])


def complete_bipartite(m):
    return G.from_edges(m + 2, [(a, b) for a in (0, 1) for b in range(2, m + 2)])


class TestSelectionSpec:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            sel.SelectionSpec(method="betweenness", k=1)

    def test_greedy_min_needs_p(self):
        with pytest.raises(ValueError):
            sel.SelectionSpec(method="greedy_min")
        with pytest.raises(ValueError):
            sel.SelectionSpec(method="greedy_min", p=1.5)

    def test_k_required(self):
        with pytest.raises(ValueError):
            sel.SelectionSpec(method="random")

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", True],
                             ids=["float", "integral-float", "string", "bool"])
    @pytest.mark.parametrize("method", ["random", "top_degree", "greedy_max",
                                        "exhaustive"])
    def test_k_must_be_an_integer(self, method, k):
        # greedy_max took k = 2.5 for 3 picks; the others raised a bare
        # TypeError from slicing or math.comb; True passed as k = 1
        message = f"^method '{method}' requires an integer k >= 0, got {k!r}$"
        with pytest.raises(ValueError, match=message.replace(".", r"\.")):
            sel.SelectionSpec(method=method, k=k)

    @pytest.mark.parametrize("p", [True, "0.5", None, float("nan"), 1.5],
                             ids=["bool", "string", "none", "nan", "above-1"])
    def test_greedy_min_p_must_be_a_fraction(self, p):
        # True validated and ran as p = 1; "0.5" raised a bare TypeError
        message = f"greedy_min requires p in [0, 1], got {p!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sel.SelectionSpec(method="greedy_min", p=p)

    @pytest.mark.parametrize("seed", [1.5, True, "1", None],
                             ids=["float", "bool", "string", "none"])
    def test_seed_must_be_an_integer(self, seed):
        # True selected as seed 1; 1.5 validated and failed in numpy with a
        # TypeError
        with pytest.raises(ValueError,
                           match=f"^seed {re.escape(repr(seed))} is not an integer$"):
            sel.SelectionSpec(method="random", k=3, seed=seed)

    def test_numpy_scalars_pass(self):
        spec = sel.SelectionSpec(method="greedy_min", p=np.float64(1.0),
                                 seed=np.int64(3))
        assert sel.select(star(6), spec) == [0]

    def test_numpy_integer_k(self):
        spec = sel.SelectionSpec(method="greedy_max", k=np.int64(2))
        assert len(sel.select(star(6), spec)) == 2


class TestShortestPathCoverage:
    def test_p5(self):
        g = G.from_edges(5, [(i, i + 1) for i in range(4)])
        assert abs(sel.shortest_path_coverage(g, [2]) - 0.8) < 1e-12

    def test_submodular_on_all_bipartite_chains(self):
        # every chain S subset T and x outside T satisfies the diminishing
        # returns inequality for the honest coverage objective
        g = complete_bipartite(5)
        nodes = range(g.n)
        value = {}
        for r in range(g.n + 1):
            for subset in combinations(nodes, r):
                value[subset] = sel.shortest_path_coverage(g, subset)
        for Ssub in value:
            for T in value:
                if not set(Ssub) <= set(T):
                    continue
                for x in nodes:
                    if x in T:
                        continue
                    gs = value[tuple(sorted((*Ssub, x)))] - value[Ssub]
                    gt = value[tuple(sorted((*T, x)))] - value[T]
                    assert gs >= gt - 1e-9

    def test_optimal_strategy_objective_not_submodular(self):
        # the same chain inequality fails when gains are measured under
        # per-set optimal lying strategies: 12 < 30 ordered-pair units
        g = complete_bipartite(5)

        def opt(C):
            if not C:
                return 0
            try:
                strat = S.separated_strategy(g, C)
            except ValueError:
                strat = S.adjacent_strategy(g, C)
            return intercepted_pairs(g, strat).intercepted_ordered

        gain_empty = opt([1]) - opt([])
        gain_after_p = opt([0, 1]) - opt([0])
        assert gain_empty == 12
        assert gain_after_p == 30
        assert gain_empty < gain_after_p  # submodularity violated


class TestGreedyMax:
    def test_star_centre_first(self):
        assert sel.greedy_max_spds(star(8), 1) == [0]

    def test_bipartite_hubs(self):
        g = complete_bipartite(5)
        chosen = sel.greedy_max_spds(g, 2)
        assert sorted(chosen) == [0, 1]

    def test_approximation_ratio(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            g = random_connected_graph(rng, n_max=14, n_min=5)
            k = int(rng.integers(1, 4))
            greedy = sel.greedy_max_spds(g, k)
            _, opt = sel.exhaustive_opt(g, k)
            got = sel.shortest_path_coverage(g, greedy)
            assert got >= (1 - 1 / math.e) * opt - 1e-9

    def test_k_range(self):
        with pytest.raises(ValueError):
            sel.greedy_max_spds(star(4), 9)

    def test_increasing_gain_raises(self, monkeypatch):
        # a supermodular objective F(S) = |S|**2 breaks the lazy-greedy
        # invariant; the check must hold under `python -O` too, so it is not
        # an assert
        monkeypatch.setattr(sel._Coverage, "value_with",
                            lambda self, v: float((len(self.chosen) + 1) ** 2))
        with pytest.raises(RuntimeError, match="marginal gain increased"):
            sel.greedy_max_spds(star(5), 3)


class TestGreedyMin:
    def test_p_zero(self):
        nodes, value, _ = sel.greedy_min_spds(star(6), 0.0)
        assert nodes == [] and value == 0.0

    def test_star_full_coverage(self):
        nodes, value, bound = sel.greedy_min_spds(star(6), 1.0)
        assert nodes == [0] and value == 1.0
        assert bound == 1.0 + math.log(6)

    def test_size_bound(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            g = random_connected_graph(rng, n_max=12, n_min=6)
            nodes, value, _ = sel.greedy_min_spds(g, 0.5)
            assert value >= 0.5 - 1e-12
            # exhaustive optimum
            opt = None
            for r in range(g.n + 1):
                for subset in combinations(range(g.n), r):
                    if sel.shortest_path_coverage(g, subset) >= 0.5 - 1e-12:
                        opt = r
                        break
                if opt is not None:
                    break
            assert len(nodes) <= (1 + math.log(g.n)) * max(opt, 1)

    @pytest.mark.parametrize("g, p, message", [
        (star(6), -0.1, r"p must lie in \[0, 1\], got -0.1"),
        (star(6), 1.5, r"p must lie in \[0, 1\], got 1.5"),
        (star(6), True, r"p must lie in \[0, 1\], got True"),
        (star(6), "0.5", r"p must lie in \[0, 1\], got '0.5'"),
        (G.from_edges(0, []), 0.5, "unachievable coverage target on an empty graph"),
        (G.from_edges(2, []), 0.5, r"coverage target 0.5 unachievable \(max 0.0\)")],
        ids=["below-0", "above-1", "bool", "string", "empty-graph", "no-pairs"])
    def test_rejects_p(self, g, p, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sel.greedy_min_spds(g, p)


@pytest.mark.parametrize("k", [2.5, 2.0, "2"],
                         ids=["float", "integral-float", "string"])
@pytest.mark.parametrize("call", [sel.greedy_max_spds, sel.exhaustive_opt],
                         ids=["greedy_max_spds", "exhaustive_opt"])
def test_direct_calls_reject_non_integer_k(call, k):
    # greedy_max_spds took k = 2.5 for 3 picks; exhaustive_opt raised a bare
    # TypeError from math.comb
    with pytest.raises(ValueError, match=f"^k {re.escape(repr(k))} is not an integer$"):
        call(star(5), k)


class TestExhaustive:
    @pytest.mark.parametrize("k", [-1, 6])
    def test_k_range(self, k):
        with pytest.raises(ValueError, match=f"^k={k} out of range for n=5$"):
            sel.exhaustive_opt(star(5), k)

    def test_full_set(self):
        g = star(5)
        nodes, value = sel.exhaustive_opt(g, g.n)
        assert sorted(nodes) == list(range(g.n)) and value == 1.0

    def test_p5(self):
        g = G.from_edges(5, [(i, i + 1) for i in range(4)])
        nodes, value = sel.exhaustive_opt(g, 1)
        assert nodes == [2] and abs(value - 0.8) < 1e-12

    def test_bipartite_pair(self):
        g = complete_bipartite(5)
        nodes, value = sel.exhaustive_opt(g, 2)
        assert sorted(nodes) == [0, 1] and value == 1.0

    def test_budget(self):
        g = G.erdos_renyi(40, 0.2, seed=0)
        with pytest.raises(S.BudgetError):
            sel.exhaustive_opt(g, 10, budget=100)

    @pytest.mark.parametrize("budget", [True, 10.5])
    def test_budget_must_be_an_integer(self, budget):
        # budget=True ran, as a budget of 1
        with pytest.raises(ValueError, match=f"^budget {budget!r} is not an integer$"):
            sel.exhaustive_opt(G.erdos_renyi(10, 0.3, seed=0), 0, budget=budget)


class TestSelect:
    def test_top_degree_star(self):
        spec = sel.SelectionSpec(method="top_degree", k=1)
        assert sel.select(star(7), spec) == [0]

    def test_random_reproducible_and_nested(self):
        g = G.erdos_renyi(30, 0.2, seed=3)
        a = sel.select(g, sel.SelectionSpec(method="random", k=5, seed=11))
        b = sel.select(g, sel.SelectionSpec(method="random", k=5, seed=11))
        assert a == b
        bigger = sel.select(g, sel.SelectionSpec(method="random", k=9, seed=11))
        assert bigger[:5] == a

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            sel.select(star(4), sel.SelectionSpec(method="random", k=9))

    def test_k_zero(self):
        assert sel.select(star(4), sel.SelectionSpec(method="greedy_max", k=0)) == []

    def test_greedy_max_dispatch(self):
        got = sel.select(star(6), sel.SelectionSpec(method="greedy_max", k=1))
        assert got == [0]

    def test_greedy_min_dispatch(self):
        got = sel.select(star(6), sel.SelectionSpec(method="greedy_min", p=1.0))
        assert got == [0]


def two_components(rng, g):
    """g plus a second random connected component and an isolated node,
    with node ids shuffled so that components interleave."""
    h = random_connected_graph(rng, n_max=6, n_min=2)
    n = g.n + h.n + 1
    edges = list(g.edges()) + [(g.n + a, g.n + b) for a, b in h.edges()]
    perm = rng.permutation(n)
    return G.from_edges(n, [(int(perm[a]), int(perm[b])) for a, b in edges])


# the greedy_max picks of two perfbench quickstart_pa graphs (seed 0 unit 15,
# seed 99 unit 23).  Each last pick ties, as a Fraction, with a lower id (12,
# 15) whose cached gain is older; the re-evaluated node wins, once with a
# bit-equal gain and once 1.1e-16 below, inside the 1e-12 acceptance window
TIED = [
    (2486046646598687043, [0, 2, 5, 1, 13, 7, 6, 31, 23, 47]),
    (7917559865322217985, [0, 2, 6, 18, 21, 9, 5, 3, 26, 33]),
]

# degenerate graphs: n <= 2, isolated nodes, a second component
DEGENERATE = [
    G.from_edges(0, []),
    G.from_edges(1, []),
    G.from_edges(2, []),
    G.from_edges(2, [(0, 1)]),
    # a path, a triangle and the isolated nodes 2 and 6
    G.from_edges(7, [(0, 1), (3, 4), (4, 5), (3, 5)]),
]


class TestCoverageEvaluator:
    """`selection._Coverage` against the per-target loop over
    `kernels.path_cover` (`oracles.shortest_path_coverage_reference`), with
    `==`: greedy ties are decided by the last bits."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_every_prefix_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n_max=12, n_min=1)
        if rng.random() < 0.4:
            g = two_components(rng, g)
        cover = sel._Coverage(g)
        order = [int(v) for v in rng.permutation(g.n)]
        # S runs from the empty set to V
        for i, v in enumerate(order):
            assert cover.value() == shortest_path_coverage_reference(g, order[:i])
            assert cover.value_with(v) == shortest_path_coverage_reference(g, order[: i + 1])
            cover.add(v)
        assert cover.value() == shortest_path_coverage_reference(g, order)
        assert sel.shortest_path_coverage(g, order[: g.n // 2]) == \
            shortest_path_coverage_reference(g, order[: g.n // 2])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_longer_rows_match_reference(self, seed):
        # rows of 8 or more entries, where numpy's pairwise sum no longer
        # adds left to right and a stray 0.0 would move the last bits
        rng = np.random.default_rng(seed)
        g = G.pref_attach(int(rng.integers(20, 61)), int(rng.integers(1, 4)),
                          seed=int(rng.integers(2**31)))
        order = [int(v) for v in rng.permutation(g.n)]
        S, rest = order[: int(rng.integers(0, 10))], order[10:15]
        cover = sel._Coverage(g)
        assert cover.value_of(S) == shortest_path_coverage_reference(g, S)
        for v in rest:
            assert cover.value_with(v) == shortest_path_coverage_reference(g, S + [v])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_greedy_and_exhaustive_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n_max=11, n_min=1)
        if rng.random() < 0.4:
            g = two_components(rng, g)
        k = int(rng.integers(1, min(g.n, 3) + 1))
        want, _, _ = lazy_greedy_reference(g, lambda c, v: len(c) >= k)
        assert sel.greedy_max_spds(g, k) == want
        p = float(rng.random())
        want = lazy_greedy_reference(g, lambda c, v: v >= p - 1e-12)
        if want[1] < p - 1e-12:  # no pair to cover: every value is 0.0
            with pytest.raises(ValueError, match="unachievable"):
                sel.greedy_min_spds(g, p)
        else:
            assert sel.greedy_min_spds(g, p)[:2] == want[:2]
        assert sel.exhaustive_opt(g, k) == exhaustive_reference(g, k)

    @pytest.mark.parametrize("seed, picks", TIED)
    def test_exact_ties_keep_recorded_picks(self, seed, picks):
        g = G.pref_attach(50, 2, seed=seed)
        assert sel.greedy_max_spds(g, 10) == picks
        assert lazy_greedy_reference(g, lambda c, v: len(c) >= 10)[0] == picks

    @pytest.mark.parametrize("batch", [1, 8, 18, 27, 48, 75, sel._BATCH])
    def test_batches_match_reference(self, monkeypatch, batch):
        # `_BATCH` entries per batch: an m-node component's candidates run
        # in batches of max(1, batch // m^2), so components of sizes 1 to 5
        # and 30 fall on either side of a batch boundary as `batch` varies
        # (m = 3 is one batch at 27 and a batch of 2 and one of 1 at 18).
        # The seed's batched values, single values and values after a
        # prefix all equal the per-target reference
        monkeypatch.setattr(sel, "_BATCH", batch)
        rng = np.random.default_rng(batch)
        parts = [G.pref_attach(30, 2, seed=batch), G.from_edges(1, []),
                 G.from_edges(2, [(0, 1)]), G.from_edges(3, [(0, 1), (1, 2)]),
                 G.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
                 G.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])]
        edges, n = [], 0
        for h in parts:
            edges += [(n + a, n + b) for a, b in h.edges()]
            n += h.n
        perm = rng.permutation(n)
        g = G.from_edges(n, [(int(perm[a]), int(perm[b])) for a, b in edges])
        for h in [g] + DEGENERATE:
            cover = sel._Coverage(h)
            want = [shortest_path_coverage_reference(h, [v]) for v in range(h.n)]
            assert cover.seed_values() == want
            assert [cover.value_with(v) for v in range(h.n)] == want
            S = [int(v) for v in rng.permutation(h.n)[: h.n // 3]]
            cover.value_of(S)
            for v in sorted(set(range(h.n)) - set(S)):
                assert cover.value_with(v) == \
                    shortest_path_coverage_reference(h, S + [v])

    @pytest.mark.parametrize("g", DEGENERATE, ids=[f"n{g.n}m{g.m}" for g in DEGENERATE])
    def test_degenerate_inputs(self, g):
        # without edges the pair count is 0, and every value must be 0.0
        for r in range(g.n + 1):
            for S in combinations(range(g.n), r):
                assert sel.shortest_path_coverage(g, S) == \
                    shortest_path_coverage_reference(g, S)
        for k in range(g.n + 1):  # up to k = n
            assert sel.exhaustive_opt(g, k) == exhaustive_reference(g, k)
            if k:
                want, _, _ = lazy_greedy_reference(g, lambda c, v: len(c) >= k)
                assert sel.greedy_max_spds(g, k) == want

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_greedy_min_disconnected(self, p):
        g = DEGENERATE[-1]
        want = lazy_greedy_reference(g, lambda c, v: v >= p - 1e-12)
        got = sel.greedy_min_spds(g, p)
        assert got[:2] == want[:2]
        assert got[1] >= p

    def test_rejects_chosen_and_out_of_range_nodes(self):
        cover = sel._Coverage(DEGENERATE[-1])
        cover.add(4)
        with pytest.raises(ValueError, match="already chosen"):
            cover.value_with(4)
        with pytest.raises(ValueError, match="already chosen"):
            cover.add(4)
        for v in (-1, 7):
            with pytest.raises(ValueError, match="out of range"):
                cover.value_with(v)

