import csv
import io

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

    def test_label_map_csv(self):
        g = G.from_edge_list("left right")
        assert G.label_map_csv(g) == "token,id\nleft,0\nright,1\n"
        # a comma or a quote in a token is quoted, so each row reads back whole
        g = G.from_edge_list('a,b c\n"d" c')
        text = G.label_map_csv(g)
        assert text == 'token,id\n"a,b",0\nc,1\n"""d""",2\n'
        assert list(csv.reader(io.StringIO(text))) == [
            ["token", "id"], ["a,b", "0"], ["c", "1"], ['"d"', "2"]]

    def test_label_map_requires_ingestion(self):
        with pytest.raises(ValueError):
            G.label_map_csv(path_graph(3))

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
                  _quotient(g, [(0,), (1,)])[0], R.blow_up(g, [0, 5]).blown]
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
            assert G.is_connected(g) == (len(set(_components(g))) <= 1)


class TestBfsDistances:
    def test_path(self):
        dv = G.bfs_distances(path_graph(5), 0)
        assert list(dv.dist) == [0, 1, 2, 3, 4]

    def test_disconnected(self):
        g = G.from_edges(2, [])
        dv = G.bfs_distances(g, 0)
        assert dv.dist[0] == 0 and dv.dist[1] == INF

    def test_out_of_range_source(self):
        with pytest.raises(ValueError):
            G.bfs_distances(path_graph(3), 5)

    def test_against_path_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = G.erdos_renyi(12, 0.25, seed=int(rng.integers(1 << 30)))
            s = int(rng.integers(g.n))
            assert list(G.bfs_distances(g, s).dist) == simple_path_distances(g, s)

    def test_triangle_inequality(self):
        g = G.erdos_renyi(20, 0.2, seed=5)
        rows = [G.bfs_distances(g, s).dist for s in range(g.n)]
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
            row = G.bfs_distances(g, x).dist
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
            expect = G.bfs_distances(sub, remap[x]).dist[remap[y]]
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


def sparse_graph(rng, n):
    """A graph on n nodes with about n edges: several components and
    isolated nodes."""
    return G.from_edges(n, [(int(rng.integers(n)), int(rng.integers(n)))
                            for _ in range(int(rng.integers(0, n + 1)))])


class TestHopDistances:
    """The bit-parallel BFS against scipy, `kernels.bfs` with a banned set
    and path enumeration."""

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
            removed = rng.permutation(n)[: int(rng.integers(0, n // 3 + 1))]
            sealed = rng.permutation(n)[: int(rng.integers(0, n + 1))]
            sealed = np.concatenate([sealed, sources[: count // 2]])
            D = G.hop_distances(g, sources, removed, sealed)
            assert (G.as_hops(D) == banned_rows(g, sources, removed, sealed)).all()

    def test_distinct_sources_past_one_block(self):
        g = G.erdos_renyi(400, 0.006, seed=2)  # disconnected, isolated nodes
        sources = np.random.default_rng(3).permutation(g.n)[:257]
        assert (G.as_hops(G.hop_distances(g, sources)) == scipy_rows(g, sources)).all()
        S = sources[:40]
        assert (G.as_hops(G.hop_distances(g, S, sealed=S))
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
        assert G.hop_distances(g, [0, 1], sealed=[1]).tolist() == \
            [[0, none], [1, 0]]
        assert G.hop_distances(g, [0, 1], sealed=[0, 1]).tolist() == \
            [[0, none], [none, 0]]

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
        assert (G.as_hops(G.hop_distances(g, sources, sealed=sealed))
                == banned_rows(g, sources, sealed=sealed)).all()

    def test_as_hops_widens_before_the_sentinel(self):
        D = np.array([[0, 3, 255]], np.uint8)
        assert G.as_hops(D).tolist() == [[0, 3, INF]]
        assert G.as_hops(D, np.int16, 16383).tolist() == [[0, 3, 16383]]

    def test_distance_blocks_cover_nodes(self):
        g = G.erdos_renyi(600, 0.005, seed=4)
        removed = list(range(0, g.n, 9))
        blocks = list(G.distance_blocks(g, removed))
        assert [T.size for T, _ in blocks] == [G._BLOCK, G._BLOCK, 600 - 2 * G._BLOCK]
        assert (np.concatenate([T for T, _ in blocks]) == np.arange(g.n)).all()
        D = np.concatenate([G.as_hops(block) for _, block in blocks])
        assert (D == scipy_rows(g, np.arange(g.n), removed)).all()


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

    @pytest.mark.parametrize("spec, detail", [
        ("erdos_renyi(10)", "missing 1 required positional argument: 'p'"),
        ("pref_attach(20,2.5)", "'float' object cannot be interpreted as an integer"),
        ("watts_strogatz(20.0,4,0.1)", "'float' object cannot be interpreted"),
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
    d = G.bfs_distances(g, 0).dist
    for u, v in g.edges():
        if d[u] < INF and d[v] < INF:
            assert abs(int(d[u]) - int(d[v])) <= 1
