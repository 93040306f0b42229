import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from dvintercept import graph as G
from dvintercept import kernels
from dvintercept import reduction as R
from dvintercept.kernels import INF

from oracles import _components, from_edges_reference, simple_path_distances


def path_graph(n):
    return G.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def check_invariants(g):
    assert g.indices.shape[0] == g.indptr[-1]
    for u in range(g.n):
        nbrs = g.neighbors(u)
        assert (np.diff(nbrs) > 0).all(), "sorted, no duplicates"
        assert u not in nbrs, "no self loops"
        for v in nbrs:
            assert g.has_edge(int(v), u), "symmetric adjacency"


class TestFromEdgeList:
    def test_minimal_path(self):
        g = G.from_edge_list("0 1\n1 2")
        assert g.n == 3 and g.m == 2

    def test_dedup_and_self_loop(self):
        g = G.from_edge_list("a b\nb a\na a")
        assert g.n == 2 and g.m == 1
        assert g.labels == ("a", "b")

    def test_comments_and_blank_lines(self):
        g = G.from_edge_list("# header\n\nx y\n  \n# tail\ny z\n")
        assert g.n == 3 and g.m == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(G.ParseError) as exc:
            G.from_edge_list("0 1\n0 1 2\n")
        assert exc.value.line_number == 2

    def test_load_edge_list(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n1 2\n")
        assert G.load_edge_list(p).n == 3


def same_csr(a, b):
    assert a.n == b.n and a.labels == b.labels
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


class TestFromEdges:
    """The sorted-code CSR builder against the set-and-fill reference."""

    def test_degenerate_and_noisy_edge_lists(self):
        cases = [(n, []) for n in (0, 1, 2)]
        cases += [(1, [(0, 0)]), (2, [(0, 1), (1, 0), (0, 1), (1, 1)]),
                  (5, [(4, 0), (0, 4), (2, 2), (3, 1), (1, 3), (3, 1)])]
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            e = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            cases.append((n, [tuple(map(int, uv)) for uv in e]))
        for n, edges in cases:
            same_csr(G.from_edges(n, edges), from_edges_reference(n, edges))
        same_csr(G.from_edges(2, iter([(1, 0)]), labels=["a", "b"]),
                 from_edges_reference(2, [(1, 0)], labels=["a", "b"]))

    def test_out_of_range_message(self):
        for n, edges in ((3, [(0, 1), (3, 1), (-1, 0)]), (0, [(0, 0)]),
                         (2, [(1, 1), (0, -1)])):
            with pytest.raises(ValueError) as ref:
                from_edges_reference(n, edges)
            with pytest.raises(ValueError, match=r"out of range") as got:
                G.from_edges(n, edges)
            assert str(got.value) == str(ref.value)

    def test_negative_n(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            G.from_edges(-1, [])

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1, 2), (1, 2, 0)], r"edge record 0 \(0, 1, 2\) is not a pair"),
        ([(0, 1), (1, 2), [2]], r"edge record 2 \[2\] is not a pair"),
        ([(0, 1), ()], r"edge record 1 \(\) is not a pair"),
        ([0, 1], "edge record 0 0 is not a pair"),
        (np.array([[0, 1, 2], [1, 2, 0]]),
         r"edge array has shape \(2, 3\), not \(m, 2\)"),
        (np.array([0, 1, 1, 2]), r"edge array has shape \(4,\), not \(m, 2\)"),
    ])
    def test_records_must_be_pairs(self, edges, message):
        # two 3-tuples became the three edges (0,1), (2,1), (2,0); an odd
        # total raised numpy's reshape error; an m x 3 array was re-paired
        with pytest.raises(ValueError, match=f"^{message}$"):
            G.from_edges(3, edges)

    def test_empty_and_numpy_inputs_stay_accepted(self):
        assert G.from_edges(np.int64(3), []).m == 0
        assert G.from_edges(3, np.zeros((0, 2), np.int64)).m == 0
        assert G.from_edges(3, [np.array([0, 1]), [1, 2]]).m == 2

    def test_generators_and_blow_up(self, monkeypatch):
        def build():
            gs = [G.erdos_renyi(80, 0.06, seed=1), G.pref_attach(80, 3, seed=2),
                  G.watts_strogatz(60, 4, 0.3, seed=3),
                  G.from_edge_list("a b\nb a\nc c\nc d\n")]
            gs.append(R.blow_up(gs[0], [0, 5, 17, 40]).blown)
            return gs

        fast = build()
        monkeypatch.setattr(G, "from_edges", from_edges_reference)
        monkeypatch.setattr(R, "from_edges", from_edges_reference)
        for a, b in zip(fast, build()):
            same_csr(a, b)

    def test_built_graphs_are_read_only(self):
        # what a graph holds (component labels, a colluder set's distances)
        # stays valid only while its arrays cannot change
        from dvintercept.strategy import _quotient

        g = G.erdos_renyi(40, 0.1, seed=5)
        graphs = [g, G.from_edges(3, [(0, 1)]), G.from_edges(0, []),
                  G.from_edge_list("a b\nb c\n"), G.pref_attach(20, 2, seed=1),
                  G.watts_strogatz(20, 4, 0.3, seed=2),
                  G.induced_subgraph(g, [1, 2, 3, 9]),
                  _quotient(G.from_edges(3, [(0, 1), (1, 2)]), [(0, 1)])[0],
                  R.blow_up(g, [0, 5]).blown]
        for h in graphs:
            for arr in (h.indptr, h.indices):
                with pytest.raises(ValueError, match="read-only"):
                    arr[:1] = 0


class TestComponentLabels:
    def test_matches_oracle(self):
        graphs = [G.from_edges(n, []) for n in (0, 1, 2)]
        graphs += [G.from_edges(2, [(0, 1)]),
                   G.from_edges(7, [(0, 5), (5, 3), (1, 6)]),
                   G.from_edges(6, [(4, 5), (2, 3)])]
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(0, n + 1))  # sparse: several components
            graphs.append(G.from_edges(n, [(int(rng.integers(n)), int(rng.integers(n)))
                                           for _ in range(m)]))
        for g in graphs:
            labels = G.component_labels(g)
            assert labels.dtype == np.int64
            assert labels.tolist() == _components(g)


class TestBfsDistances:
    def test_path(self):
        g = path_graph(5)
        assert list(kernels.bfs(g.indptr, g.indices, 0)) == [0, 1, 2, 3, 4]

    def test_disconnected(self):
        g = G.from_edges(2, [])
        assert kernels.bfs(g.indptr, g.indices, 0).tolist() == [0, INF]

    def test_out_of_range_source(self):
        with pytest.raises(ValueError, match="source 5 out of range for n=3"):
            G.hop_distances(path_graph(3), [5])

    def test_against_path_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = G.erdos_renyi(12, 0.25, seed=int(rng.integers(1 << 30)))
            s = int(rng.integers(g.n))
            assert (list(kernels.bfs(g.indptr, g.indices, s))
                    == simple_path_distances(g, s))

    def test_triangle_inequality(self):
        g = G.erdos_renyi(20, 0.2, seed=5)
        rows = [kernels.bfs(g.indptr, g.indices, s) for s in range(g.n)]
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y, z = rng.integers(g.n, size=3)
            if rows[x][z] < INF and rows[x][y] < INF and rows[y][z] < INF:
                assert rows[x][z] <= rows[x][y] + rows[y][z]


class TestDistanceAvoiding:
    def test_cycle_long_way(self):
        g = G.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert G.distance_avoiding(g, {3}, 2, 4) == 4

    def test_cut_vertex(self):
        assert G.distance_avoiding(path_graph(3), {1}, 0, 2) == INF

    def test_endpoint_in_removed_set(self):
        with pytest.raises(ValueError):
            G.distance_avoiding(path_graph(3), {0}, 0, 2)

    def test_empty_removal_equals_bfs(self):
        g = G.erdos_renyi(10, 0.3, seed=3)
        for x in range(g.n):
            row = kernels.bfs(g.indptr, g.indices, x)
            for y in range(g.n):
                assert G.distance_avoiding(g, set(), x, y) == row[y]

    def test_against_induced_subgraph(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = G.erdos_renyi(10, 0.35, seed=int(rng.integers(1 << 30)))
            removed = set(int(v) for v in rng.permutation(g.n)[:3])
            keep = sorted(set(range(g.n)) - removed)
            remap = {v: i for i, v in enumerate(keep)}
            sub = G.from_edges(
                len(keep),
                [(remap[u], remap[v]) for u, v in g.edges()
                 if u in remap and v in remap],
            )
            x, y = keep[0], keep[-1]
            expect = kernels.bfs(sub.indptr, sub.indices, remap[x])[remap[y]]
            assert G.distance_avoiding(g, removed, x, y) == expect


def scipy_adjacency(g, removed=()):
    """scipy CSR adjacency of g with every edge touching `removed` deleted."""
    cut = np.zeros(g.n, np.bool_)
    cut[list(removed)] = True
    esrc = np.repeat(np.arange(g.n), g.degrees())
    keep = ~(cut[esrc] | cut[g.indices])
    return csr_matrix((np.ones(int(keep.sum())), (esrc[keep], g.indices[keep])),
                      shape=(g.n, g.n))


def scipy_rows(g, sources, removed=()):
    """scipy's unweighted shortest paths from `sources` once every edge
    touching `removed` is deleted, as int64 with INF where unreachable."""
    D = shortest_path(scipy_adjacency(g, removed), directed=True, unweighted=True,
                      indices=np.asarray(sources, np.int64))
    return np.where(np.isinf(D), INF, D).astype(np.int64).reshape(len(sources), g.n)


def banned_rows(g, sources, removed=(), sealed=()):
    """One `kernels.bfs` per source with `removed` and every other node of
    `sealed` banned (neither entered nor left); a removed source reaches only
    itself."""
    rows = np.full((len(sources), g.n), INF, np.int64)
    for i, x in enumerate(int(v) for v in sources):
        rows[i, x] = 0
        if x in set(int(v) for v in removed):
            continue
        banned = np.zeros(g.n, np.bool_)
        banned[list(removed)] = True
        banned[list(sealed)] = True
        banned[x] = False
        rows[i] = kernels.bfs(g.indptr, g.indices, x, banned)
    return rows


def sealed_rows(g, sources, sealed):
    """`banned_rows` with `sealed`, `narrowed`."""
    return narrowed(banned_rows(g, sources, sealed=sealed))


def narrowed(rows):
    """int64 hop distances, INF where unreached, in `hop_distances`' narrow
    dtype: the first of uint8, uint16 and uint32 whose maximum exceeds every
    finite entry, that maximum where unreached."""
    far = rows.max(initial=0, where=rows < INF)
    dtype = next(t for t in G._HOP_DTYPES if far < np.iinfo(t).max)
    return np.where(rows < INF, rows, np.iinfo(dtype).max).astype(dtype)


def sparse_graph(rng, n):
    """A graph on n nodes with about n edges: several components and
    isolated nodes."""
    return G.from_edges(n, [(int(rng.integers(n)), int(rng.integers(n)))
                            for _ in range(int(rng.integers(0, n + 1)))])


class TestHopDistances:
    """The bit-parallel BFS against scipy, `kernels.bfs` with a banned set
    and path enumeration; sealed sets go through `graph._hop_families`."""

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 257])
    def test_removed_sets_match_scipy(self, count):
        rng = np.random.default_rng(count)
        for trial in range(12):
            n = int(rng.integers(1, 50))
            g = (sparse_graph(rng, n) if trial % 2
                 else G.erdos_renyi(n, float(rng.uniform(0.05, 0.3)), seed=trial))
            sources = rng.integers(n, size=count)  # repeats included
            removed = rng.permutation(n)[: int(rng.integers(0, n))]
            D = G.hop_distances(g, sources, removed)
            assert D.dtype == np.uint8 and D.shape == (count, n)
            assert (G.as_hops(D) == scipy_rows(g, sources, removed)).all()

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 257])
    def test_sealed_sets_match_banned_bfs(self, count):
        rng = np.random.default_rng(100 + count)
        for trial in range(12):
            n = int(rng.integers(1, 50))
            g = (sparse_graph(rng, n) if trial % 2
                 else G.erdos_renyi(n, float(rng.uniform(0.05, 0.3)), seed=trial))
            sources = rng.integers(n, size=count)
            sealed = rng.permutation(n)[: int(rng.integers(0, n + 1))]
            sealed = np.concatenate([sealed, sources[: count // 2]])
            D = G._hop_families(g, [(sources, sealed)])[0]
            assert (G.as_hops(D) == banned_rows(g, sources, sealed=sealed)).all()

    def test_distinct_sources_past_one_block(self):
        g = G.erdos_renyi(400, 0.006, seed=2)  # disconnected, isolated nodes
        sources = np.random.default_rng(3).permutation(g.n)[:257]
        assert (G.as_hops(G.hop_distances(g, sources)) == scipy_rows(g, sources)).all()
        S = sources[:40]
        assert (G.as_hops(G._hop_families(g, [(S, S)])[0])
                == banned_rows(g, S, sealed=S)).all()

    def test_against_path_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = sparse_graph(rng, 9)
            D = G.as_hops(G.hop_distances(g, np.arange(g.n)))
            for s in range(g.n):
                assert D[s].tolist() == simple_path_distances(g, s)

    def test_tiny_graphs(self):
        none = np.iinfo(np.uint8).max
        for n in (0, 1, 2):
            g = G.from_edges(n, [])
            D = G.hop_distances(g, np.arange(n))
            assert D.dtype == np.uint8
            assert D.tolist() == [[0 if s == v else none for v in range(n)]
                                  for s in range(n)]
            assert G.hop_distances(g, []).shape == (0, n)
        g = G.from_edges(2, [(0, 1)])
        assert G.hop_distances(g, [0, 1]).tolist() == [[0, 1], [1, 0]]
        assert G.hop_distances(g, [0, 1], removed=[1]).tolist() == \
            [[0, none], [none, 0]]
        assert [D.tolist() for D in G._hop_families(
            g, [([0, 1], [1]), ([0, 1], [0, 1])])] == \
            [[[0, none], [1, 0]], [[0, none], [none, 0]]]

    @pytest.mark.parametrize("sources, removed, message", [
        ([0], [-1], "removed node -1 out of range for n=4"),
        ([-3], (), "source -3 out of range for n=4"),
        ([5], (), "source 5 out of range for n=4"),
        ([1.5], (), "source 1.5 is not an integer"),
        ([0], [1.5], "removed node 1.5 is not an integer"),
        ([2, 9, 1.5], [7], "source 9 out of range for n=4"),
        # True in a list of integers was read as node 1
        ([0, True], (), "source True is not an integer"),
        ([2], [0, True], "removed node True is not an integer"),
        ([np.int64(3), np.True_], (), "source True is not an integer"),
        # an int that int64 cannot hold raised an OverflowError from numpy
        ([1, 2**64], (), f"source {2**64} does not fit in int64"),
    ])
    def test_rejects_bad_ids(self, sources, removed, message):
        # the first bad source, else removed node, is named; no id wraps,
        # truncates or indexes past the graph
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            G.hop_distances(path_graph(4), sources, removed)

    def test_id_containers(self):
        # ids are read in input order from any container numpy reads, and
        # from sets and generators, which numpy does not
        g = path_graph(4)
        want = G.hop_distances(g, [2, 0])
        for ids in ((2, 0), np.array([2, 0]), np.array([[2], [0]]), [[2], [0]],
                    range(2, -1, -2), (v for v in (2, 0)), [np.int64(2), np.uint8(0)]):
            assert np.array_equal(G.hop_distances(g, ids), want), ids
        assert np.array_equal(G.hop_distances(g, 3), G.hop_distances(g, [3]))
        assert np.array_equal(G.hop_distances(g, {1, 3}), G.hop_distances(g, [1, 3]))

    def test_widens_past_254(self):
        # the longest distance on a path of 255 nodes is 254, which uint8
        # holds below its sentinel; one more node needs uint16
        for n, dtype in ((255, np.uint8), (256, np.uint16)):
            D = G.hop_distances(path_graph(n), [0, n // 2])
            assert D.dtype == dtype and int(D.max()) == n - 1
        g = G.watts_strogatz(600, 2, 0.0, seed=5)  # a ring, diameter 300
        sources = np.arange(0, g.n, 7)
        D = G.hop_distances(g, sources)
        assert D.dtype == np.uint16 and int(D.max()) == 300
        assert (G.as_hops(D) == scipy_rows(g, sources)).all()
        # cut the ring open: paths up to 598 hops, and unreached entries
        D = G.hop_distances(g, sources, removed=[300])
        assert D.dtype == np.uint16
        assert (G.as_hops(D) == scipy_rows(g, sources, [300])).all()
        sealed = [1, 450]
        assert (G.as_hops(G._hop_families(g, [(sources, sealed)])[0])
                == banned_rows(g, sources, sealed=sealed)).all()

    @pytest.mark.parametrize("words", [1, 3, G._WORDS])
    def test_families_match_their_own_calls(self, monkeypatch, words):
        # each family of one merged BFS equals `kernels.bfs` with the
        # family's sealed set banned, in `hop_distances`' dtype for those
        # distances: disconnected graphs with isolated nodes, n <= 2,
        # sealed sets holding every node, more than one word of sources, and
        # a 300-node path whose unsealed family needs uint16 while a sealed
        # one fits uint8; with `words` source words per call the families
        # also split over several calls
        monkeypatch.setattr(G, "_WORDS", words)
        rng = np.random.default_rng(words)
        graphs = [G.from_edges(n, e) for n, e in
                  ((0, []), (1, []), (2, []), (2, [(0, 1)]))]
        graphs += [G.erdos_renyi(90, 0.02, seed=s) for s in range(3)]
        graphs += [sparse_graph(rng, 40), path_graph(300)]
        for g in graphs:
            nodes = np.arange(g.n)
            families = [(nodes, ()), (nodes[:1], nodes), ([], nodes[:2]),
                        (nodes, nodes), (nodes[::3], nodes[1::5])]
            for _ in range(4):
                src = rng.integers(g.n, size=int(rng.integers(0, 70))) if g.n else []
                sealed = rng.permutation(g.n)[: int(rng.integers(0, g.n + 1))]
                families.append((src, sealed))
            if g.n == 300:
                families.append(([0, 150], [5, 160]))
            got = G._hop_families(g, families)
            assert len(got) == len(families)
            for (src, sealed), D in zip(families, got):
                want = sealed_rows(g, src, sealed)
                assert D.dtype == want.dtype and np.array_equal(D, want)
            if g.n == 300:
                assert [D.dtype for D in got[-1:] + got[:1]] == [np.uint8, np.uint16]

    def test_as_hops_widens_before_the_sentinel(self):
        D = np.array([[0, 3, 255]], np.uint8)
        assert G.as_hops(D).tolist() == [[0, 3, INF]]
        assert G.as_hops(D, np.int16, 16383).tolist() == [[0, 3, 16383]]

    @pytest.mark.parametrize("make, cpus", [
        (lambda: G.erdos_renyi(600, 0.005, seed=4), 1),
        (lambda: G.from_edges(0, []), 1),
        (lambda: G.from_edges(1, []), 1),
        (lambda: G.from_edges(2, []), 1),
        (lambda: G.from_edges(2, [(0, 1)]), 1),
        (lambda: sparse_graph(np.random.default_rng(32), 40), 1),
        (lambda: G.erdos_renyi(300, 0.006, seed=1), 1),
        (lambda: path_graph(300), 1),
        (lambda: G.watts_strogatz(600, 2, 0.0, seed=0), 1),
        (lambda: G.erdos_renyi(517, 0.008, seed=6), 1),
        (lambda: G.erdos_renyi(517, 0.008, seed=6), 2),
    ], ids=["er600", "n0", "n1", "n2", "n2-edge", "sparse40", "er300",
            "path300", "ring600", "er517-inline", "er517-pool"])
    def test_distance_blocks_cover_nodes(self, monkeypatch, make, cpus):
        # every block of D_{G-S} is scipy's rows with S's edges deleted, in
        # values and in `hop_distances`' dtype (uint16 on the path and the
        # ring), for S empty, every node, every ninth node and a random
        # third: a target in S is 0 at its own entry, unreached elsewhere;
        # the pool is open to every block size, so the CPUs pick the path
        monkeypatch.setattr(G, "_cpus", lambda: cpus)
        monkeypatch.setattr(G, "_POOL_BYTES", 0)
        g = make()
        nodes = np.arange(g.n)
        for S in ([], nodes, nodes[::9],
                  np.random.default_rng(g.n).permutation(g.n)[:g.n // 3]):
            g = make()  # holds no blocks
            blocks = list(G.distance_blocks(g, S))
            assert [T.tolist() for T, _ in blocks] == [
                nodes[lo:lo + G._BLOCK].tolist() for lo in range(0, g.n, G._BLOCK)]
            for T, D in blocks:
                want = narrowed(scipy_rows(g, T, S))
                assert D.dtype == want.dtype and np.array_equal(D, want)


class TestBitBfs:
    """`graph._bit_bfs` on its own: levels recorded as bit planes, the
    dtype picked from the last level, the result written in tiles of node
    rows; every result equals the `narrowed` scipy rows in values and
    dtype."""

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_dtype_boundary(self, n, dtype):
        # read from one end, the largest distance is n - 1: 254 fits below
        # uint8's maximum, 255 does not
        g = path_graph(n)
        D = G._bit_bfs(G._pull_lists(g), [0])
        want = narrowed(scipy_rows(g, [0]))
        assert D.dtype == want.dtype == dtype
        assert D.tolist() == [list(range(n))]

    @pytest.mark.parametrize("tile", [G._TILE, 200])
    @pytest.mark.parametrize("make", [
        lambda: G.from_edges(0, []), lambda: G.from_edges(1, []),
        lambda: G.from_edges(2, []), lambda: G.from_edges(2, [(0, 1)]),
        lambda: sparse_graph(np.random.default_rng(7), 60),
        lambda: path_graph(300),
    ], ids=["n0", "n1", "n2", "n2-edge", "isolated60", "path300"])
    def test_matches_scipy(self, monkeypatch, make, tile):
        # every node as a source (five words on the path), and random
        # sources with repeats and -1s, which start nothing; a tile of 200
        # bytes is a few node rows, so the result is written in many tiles
        # and a partial last one
        monkeypatch.setattr(G, "_TILE", tile)
        g = make()
        rng = np.random.default_rng(g.n)
        pull = G._pull_lists(g)
        every = np.arange(g.n)
        some = rng.integers(-1, g.n, size=70) if g.n else np.full(3, -1)
        for sources in (every, some, every[::-1][:65]):
            D = G._bit_bfs(pull, sources)
            reached = sources >= 0
            want = np.full((sources.size, g.n), INF, np.int64)
            want[reached] = scipy_rows(g, sources[reached])
            want = narrowed(want)
            assert D.dtype == want.dtype and np.array_equal(D, want)
        if g.n == 300:
            assert G._bit_bfs(pull, every).dtype == np.uint16

    def test_families_over_several_words(self):
        # families of 5, 3, 2, 1 and 4 words in one call, each word sealed
        # at its family's set: the unsealed path rows need uint16, the
        # sealed ones fit uint8
        for g in (path_graph(300), G.erdos_renyi(280, 0.006, seed=3)):
            nodes = np.arange(g.n)
            families = [(nodes, ()), (nodes[::2], nodes[5::40]),
                        (nodes[:70], nodes[100:]), ([3], [150]),
                        (nodes[::-1][:200], nodes[::7])]
            got = G._hop_families(g, families)
            for (src, sealed), D in zip(families, got):
                want = sealed_rows(g, src, sealed)
                assert D.dtype == want.dtype and np.array_equal(D, want)
            if g.n == 300:
                assert [D.dtype for D in got[:2]] == [np.uint16, np.uint8]


class TestGenerators:
    def test_er_degenerate(self):
        assert G.erdos_renyi(7, 0.0, seed=1).m == 0
        assert G.erdos_renyi(7, 1.0, seed=1).m == 21

    def test_er_mean_degree_band(self):
        means = []
        for seed in range(20):
            g = G.erdos_renyi(1000, 0.004, seed=seed)
            means.append(2 * g.m / g.n)
        avg = sum(means) / len(means)
        assert 3.2 <= avg <= 4.8

    def test_er_invalid(self):
        with pytest.raises(ValueError):
            G.erdos_renyi(5, 1.5, seed=0)

    def test_ws_lattice(self):
        g = G.watts_strogatz(1000, 10, 0.0, seed=4)
        assert g.m == 5000

    def test_ws_rewired_keeps_edge_count(self):
        g = G.watts_strogatz(100, 4, 0.3, seed=4)
        assert g.m == 200
        check_invariants(g)

    def test_ws_invalid(self):
        with pytest.raises(ValueError):
            G.watts_strogatz(10, 3, 0.1, seed=0)  # odd k

    def test_pref_attach_edge_count(self):
        n, m = 50, 2
        g = G.pref_attach(n, m, seed=9)
        assert g.m == m * (m + 1) // 2 + (n - m - 1) * m
        check_invariants(g)

    @pytest.mark.parametrize("make, message", [
        (lambda: G.erdos_renyi(5.0, 0.5, 1), "n 5.0 is not an integer"),
        (lambda: G.erdos_renyi(5, 0.5, 1.5), "seed 1.5 is not an integer"),
        (lambda: G.erdos_renyi(5, True, 1), "p must lie in [0, 1], got True"),
        (lambda: G.pref_attach(5.0, 2, seed=1), "n 5.0 is not an integer"),
        (lambda: G.pref_attach(5, True, seed=1), "m True is not an integer"),
        (lambda: G.watts_strogatz(6, 2.0, 0.1, 1), "k 2.0 is not an integer"),
        (lambda: G.watts_strogatz(6, 2, True, 1),
         "beta must lie in [0, 1], got True"),
    ], ids=["er-n", "er-seed", "er-p", "pa-n", "pa-m", "ws-k", "ws-beta"])
    def test_parameters_are_checked_by_name(self, make, message):
        # a float count raised a TypeError from range, a float seed one
        # from numpy, and True passed as m = 1 and as probability 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_pref_attach_invalid(self):
        with pytest.raises(ValueError):
            G.pref_attach(3, 5, seed=0)

    def test_determinism(self):
        a = G.erdos_renyi(60, 0.1, seed=42)
        b = G.erdos_renyi(60, 0.1, seed=42)
        assert (a.indptr == b.indptr).all() and (a.indices == b.indices).all()

    def test_generated_invariants(self):
        for seed in range(3):
            check_invariants(G.erdos_renyi(40, 0.15, seed=seed))
            check_invariants(G.pref_attach(40, 2, seed=seed))
            check_invariants(G.watts_strogatz(40, 4, 0.2, seed=seed))


class TestGenerateSpec:
    def test_parse(self):
        assert G.parse_generator_spec("erdos_renyi(1000, 0.004)") == (
            "erdos_renyi", (1000, 0.004))

    def test_generate_dispatch(self):
        g = G.generate("watts_strogatz(20,4,0)", seed=1)
        assert g.n == 20 and g.m == 40

    def test_default_attachment_count(self):
        g = G.generate("pref_attach(30)", seed=1)
        assert g.n == 30

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            G.generate("smallworld(3)", seed=0)

    def test_malformed_spec(self):
        with pytest.raises(ValueError):
            G.parse_generator_spec("erdos_renyi 3 0.5")

    @pytest.mark.parametrize("spec, arg", [
        ("pref_attach(1_0)", "1_0"), ("pref_attach(\uff130, 2)", "\uff130"),
        ("erdos_renyi(10, 0.1_0)", "0.1_0"), ("erdos_renyi(10, , 0.5)", ""),
        ("erdos_renyi(10, half)", "half")])
    def test_arguments_are_ascii_numbers(self, spec, arg):
        # int() read 1_0 as 10 and the full-width \uff130 as 30, float()
        # 0.1_0 as 0.1; an empty or unknown argument was float()'s bare error
        with pytest.raises(ValueError, match=re.escape(
                f"generator spec {spec!r}: argument {arg!r} is not a number")):
            G.parse_generator_spec(spec)

    def test_signed_and_real_arguments(self):
        assert G.parse_generator_spec("erdos_renyi( +12 , -1 , 1e-1, .5 )") == (
            "erdos_renyi", (12, -1, 0.1, 0.5))

    @pytest.mark.parametrize("spec, detail", [
        ("erdos_renyi(10)", "missing 1 required positional argument: 'p'"),
        ("pref_attach(20,2.5)", "m 2.5 is not an integer"),
        ("watts_strogatz(20.0,4,0.1)", "n 20.0 is not an integer"),
        ("pref_attach(20,2,3,4)", "takes from 1 to 2 positional arguments"),
        ("erdos_renyi(10,0.5,3)",
         "erdos_renyi() takes 2 positional arguments but 3 were given"),
        ("watts_strogatz(10,2,0.1,4)",
         "watts_strogatz() takes 3 positional arguments but 4 were given"),
    ])
    def test_wrong_arguments_name_the_spec(self, spec, detail):
        with pytest.raises(ValueError) as exc:
            G.generate(spec, seed=0)
        assert str(exc.value).startswith(f"generator spec {spec!r}: ")
        assert detail in str(exc.value)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 30), st.floats(0.05, 0.6))
def test_er_graph_invariants_property(seed, n, p):
    check_invariants(G.erdos_renyi(n, p, seed=seed))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_bfs_edge_lipschitz(seed):
    g = G.erdos_renyi(15, 0.25, seed=seed)
    d = kernels.bfs(g.indptr, g.indices, 0)
    for u, v in g.edges():
        if d[u] < INF and d[v] < INF:
            assert abs(int(d[u]) - int(d[v])) <= 1
