import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvintercept import graph as G
from dvintercept import kernels as K
from dvintercept import protocol as P
from dvintercept.graph import INF

from oracles import naive_sync, random_connected_graph


def path_graph(n):
    return G.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def all_pairs_bfs(g):
    return np.array([G.bfs_distances(g, s).dist for s in range(g.n)])


class TestSynchronize:
    def test_honest_equals_bfs(self):
        for seed in range(5):
            g = G.erdos_renyi(30, 0.15, seed=seed)
            b = P.synchronize(g, set(), {})
            assert (b.rho == all_pairs_bfs(g)).all()
            assert b.rounds_to_converge <= g.n - 1

    def test_two_hop_neighbourhood(self):
        # w adjacent to x and y, both adjacent to z: w settles on distance 2
        g = G.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        b = P.synchronize(g, set(), {})
        assert b.rho[0, 3] == 2

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_colluder_out_of_range(self, bad):
        g = path_graph(5)
        vec = np.ones(5, np.int64)
        with pytest.raises(ValueError, match=f"^colluder {bad} out of range for n=5$"):
            P.synchronize(g, {bad}, {bad: vec})
        with pytest.raises(ValueError, match=f"^colluder {bad} out of range"):
            P.validate_broadcasts(5, {bad}, {bad: vec})

    def test_pinned_colluder_row(self):
        g = path_graph(5)
        bc = np.array([2, 1, 0, 1, 1], np.int64)
        b = P.synchronize(g, {2}, {2: bc})
        assert list(b.rho[:, 4]) == [3, 2, 1, 1, 0]
        assert (b.rho[2] == bc).all()

    def test_fixpoint_below_initialization(self):
        g = G.erdos_renyi(20, 0.2, seed=8)
        bc = np.maximum(1, G.bfs_distances(g, 3).dist - 2)
        bc[3] = 0
        b = P.synchronize(g, {3}, {3: bc})
        init = np.full((g.n, g.n), INF, np.int64)
        np.fill_diagonal(init, 0)
        init[3] = bc
        assert (b.rho <= init).all()

    def test_matches_naive_iteration(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            g = G.erdos_renyi(9, 0.35, seed=int(rng.integers(1 << 30)))
            colluders = {int(rng.integers(g.n))}
            bcs = {}
            for v in colluders:
                vec = rng.integers(1, g.n + 2, g.n).astype(np.int64)
                vec[v] = 0
                bcs[v] = vec
            b = P.synchronize(g, colluders, bcs)
            expect, _ = naive_sync(g, colluders, bcs)
            assert b.rho.tolist() == expect

    def test_rejects_nonzero_self_distance(self):
        g = path_graph(3)
        with pytest.raises(P.BroadcastError) as exc:
            P.synchronize(g, {1}, {1: np.array([1, 1, 1], np.int64)})
        assert exc.value.node == 1 and exc.value.target == 1

    def test_rejects_black_hole(self):
        g = path_graph(3)
        with pytest.raises(P.BroadcastError) as exc:
            P.synchronize(g, {1}, {1: np.array([0, 0, 1], np.int64)})
        assert (exc.value.node, exc.value.target) == (1, 0)

    def test_rejects_mismatched_keys(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            P.synchronize(g, {1}, {})

    def test_rejects_misshapen_vector(self):
        with pytest.raises(ValueError,
                           match=r"^broadcast vector for node 1 has shape \(2,\)$"):
            P.validate_broadcasts(3, {1}, {1: np.array([1, 0], np.int64)})

    def test_returns_id_ordered_arrays(self):
        # rows follow the colluder ids, whatever the order given
        vecs = {2: np.array([2, 1, 0], np.int64), 0: np.array([0, 1, 2], np.int64)}
        ids, b = P.validate_broadcasts(3, (2, 0), vecs)
        assert ids == (0, 2)
        assert b.dtype == np.int64 and b.tolist() == [[0, 1, 2], [2, 1, 0]]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_convergence_bound_property(seed):
    g = G.erdos_renyi(25, 0.2, seed=seed)
    rng = np.random.default_rng(seed)
    v = int(rng.integers(g.n))
    vec = np.maximum(1, G.bfs_distances(g, v).dist - 2)
    vec[v] = 0
    b = P.synchronize(g, {v}, {v: vec})
    assert b.rounds_to_converge <= g.n - 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_valid_broadcasts_settle_within_n_minus_1_rounds(seed):
    # with valid broadcasts every column is a unit-weight Bellman-Ford from
    # pinned sources through honest nodes, so no column needs n rounds
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=14, n_min=1)
    if rng.random() < 0.3:  # a second component and an isolated node
        g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
    k = int(rng.integers(0, g.n + 1))
    colluders = {int(v) for v in rng.permutation(g.n)[:k]}
    bcs = {}
    for v in colluders:
        vec = rng.integers(1, 2 * g.n + 2, g.n).astype(np.int64)
        vec[rng.random(g.n) < 0.3] = INF
        vec[v] = 0
        bcs[v] = vec
    b = P.synchronize(g, colluders, bcs)
    assert b.rounds_to_converge <= g.n - 1


def _degenerate_sync_input(seed):
    """(g, colluders, broadcasts): every fourth input has n in {0, 1, 2}, the
    rest up to 13 nodes, 30 % of them with a second component and an
    isolated node; every fifth input makes every node a colluder.  Entries
    are INF with probability 0.2 and INF - 1 with 0.15, so a neighbour of an
    INF - 1 entry believes INF."""
    rng = np.random.default_rng(seed)
    if seed % 4 == 0:
        n = int(rng.integers(0, 3))
        g = G.from_edges(n, [(0, 1)] if n == 2 and rng.random() < 0.5 else [])
    else:
        g = random_connected_graph(rng, n_max=10, n_min=1)
        if rng.random() < 0.3:
            g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
    k = g.n if seed % 5 == 0 else int(rng.integers(0, g.n + 1))
    bcs = {}
    for v in rng.permutation(g.n)[:k].tolist():
        vec = rng.integers(1, 2 * g.n + 2, g.n).astype(np.int64)
        r = rng.random(g.n)
        vec[r < 0.2] = INF
        vec[(r >= 0.2) & (r < 0.35)] = INF - 1
        vec[v] = 0
        bcs[v] = vec
    return g, set(bcs), bcs


def test_closed_form_matches_iterations_on_degenerate_inputs():
    # rho and rounds against the full-matrix iteration and against one
    # per-column sync_column per target, colluder targets included
    for seed in range(400):
        g, colluders, bcs = _degenerate_sync_input(seed)
        b = P.synchronize(g, colluders, bcs)
        rho, rounds = naive_sync(g, colluders, bcs)
        assert b.rho.tolist() == rho, seed
        assert b.rounds_to_converge == rounds, seed
        pmask = np.zeros(g.n, np.bool_)
        pmask[list(colluders)] = True
        worst = 0
        for t in range(g.n):
            pinned = np.zeros(g.n, np.int64)
            for v in colluders:
                pinned[v] = bcs[v][t]
            col, r = K.sync_column(g.indptr, g.indices, pinned, pmask, t)
            assert b.rho[:, t].tolist() == col.tolist(), (seed, t)
            worst = max(worst, r)
        assert b.rounds_to_converge == worst, seed
