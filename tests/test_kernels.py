"""The numpy kernels against the slow reference implementations in oracles,
and the rule that no library module calls them."""

import ast
from pathlib import Path

import numpy as np
import pytest

import dvintercept.kernels as K
import dvintercept.strategy as S
from dvintercept import graph as G
from dvintercept.kernels import INF
from oracles import (
    deliverable,
    naive_sync,
    path_cover_oracle,
    random_connected_graph,
    routing_out_edges,
    simple_path_distances,
    simulate_strategy,
)


def _random_pinned(rng, g, n_colluders, t):
    pinned = np.full(g.n, INF, np.int64)
    pmask = np.zeros(g.n, np.bool_)
    for v in rng.permutation(g.n)[:n_colluders]:
        pmask[v] = True
        pinned[v] = 0 if v == t else int(rng.integers(1, g.n + 2))
    return pinned, pmask


def _expected_reach(out_edges, n, t, banned=None):
    # a banned target accepts no edges, so only t itself reaches it
    avoid = set() if banned is None else set(np.flatnonzero(banned).tolist())
    if t in avoid:
        return [s == t for s in range(n)]
    return [deliverable(out_edges, s, t, avoid) for s in range(n)]


class TestKernelsAgainstOracles:
    def _check_graph(self, g, rng):
        indptr, indices = g.indptr, g.indices

        src = int(rng.integers(g.n))
        banned = np.zeros(g.n, np.bool_)
        for v in rng.permutation(g.n)[: g.n // 4]:
            banned[v] = True
        banned[src] = False
        induced = G.from_edges(g.n, [(u, v) for u, v in g.edges()
                                     if not banned[u] and not banned[v]])
        assert (K.bfs(indptr, indices, src, banned).tolist()
                == simple_path_distances(induced, src))

        t = int(rng.integers(g.n))
        pinned, pmask = _random_pinned(rng, g, max(1, g.n // 5), t)
        colluders = set(np.flatnonzero(pmask).tolist())
        broadcasts = {v: np.where(np.arange(g.n) == t, pinned[v], INF)
                      for v in colluders}
        rho, _ = naive_sync(g, colluders, broadcasts)
        col, _ = K.sync_column(indptr, indices, pinned, pmask, t)
        assert col.tolist() == [row[t] for row in rho]

        hops = np.full(g.n, -1, np.int64)
        for v in colluders:
            if v != t and g.degree(v):
                hops[v] = g.neighbors(v)[0]
        strict = routing_out_edges(g, rho, colluders, hops, t)
        liberal = routing_out_edges(g, rho, colluders, hops, t, liberal=True)
        assert (K.reach(indptr, indices, col, t, pmask, hops).tolist()
                == _expected_reach(strict, g.n, t))
        assert (K.reach(indptr, indices, col, t, pmask, hops,
                        liberal=True).tolist()
                == _expected_reach(liberal, g.n, t))
        assert (K.reach(indptr, indices, col, t, pmask, hops,
                        banned=pmask).tolist()
                == _expected_reach(strict, g.n, t, banned=pmask))

        cov, count = K.path_cover(indptr, indices, t, pmask)
        expect_cov, expect_count = path_cover_oracle(g, t, colluders)
        assert count == expect_count
        assert cov == pytest.approx(float(expect_cov), abs=1e-9)

    def test_all_kernels_match_oracles(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            self._check_graph(random_connected_graph(rng, n_max=25), rng)

    def test_reach_matches_message_simulation(self):
        # lying colluder on 8-node graphs: the kernel pipeline against the
        # from-scratch message simulator
        rng = np.random.default_rng(23)
        for _ in range(5):
            g = G.erdos_renyi(8, 0.4, seed=int(rng.integers(1 << 30)))
            v = int(rng.integers(g.n))
            vec = np.maximum(1, K.bfs(g.indptr, g.indices, v) - 1)
            vec[v] = 0
            nbrs = g.neighbors(v)
            hop = int(nbrs[0]) if nbrs.size else -1
            strat = S.Strategy(
                colluders=(v,), broadcast={v: vec},
                forward={v: np.full(g.n, hop, np.int64)})
            cmask = np.zeros(g.n, np.bool_)
            cmask[v] = True
            hops = np.full(g.n, -1, np.int64)
            hops[v] = hop
            for t in range(g.n):
                if t == v:
                    continue
                pinned = np.zeros(g.n, np.int64)
                pinned[v] = vec[t]
                col, _ = K.sync_column(g.indptr, g.indices, pinned, cmask, t)
                out = simulate_strategy(g, strat, t)
                for banned in (None, cmask):
                    got = K.reach(g.indptr, g.indices, col, t, cmask, hops,
                                  banned=banned)
                    assert got.tolist() == _expected_reach(out, g.n, t, banned)


def _kernels_imports(path):
    """(line, source text) of every import in the module at `path` that
    names the kernels module."""
    text = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[-1] == "kernels" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = ((node.module or "").split(".")[-1] == "kernels"
                   or any(a.name == "kernels" for a in node.names))
        else:
            continue
        if hit:
            yield node.lineno, ast.get_source_segment(text, node)


def test_no_library_module_imports_kernels():
    # the kernels are references for the tests; a live caller in the library
    # would bring a second routing implementation back, so no module of the
    # package imports them, `__init__` included
    src = Path(K.__file__).parent
    found = [(path.relative_to(src).as_posix(), line, stmt)
             for path in sorted(src.rglob("*.py")) if path.name != "kernels.py"
             for line, stmt in _kernels_imports(path)]
    assert found == []


def test_import_guard_sees_every_import_form(tmp_path):
    forms = ["from . import kernels", "from .kernels import INF",
             "import dvintercept.kernels as K", "from dvintercept import kernels",
             "from dvintercept.kernels import bfs"]
    mod = tmp_path / "mod.py"
    mod.write_text("\n".join(forms + ["from .graph import INF"]) + "\n")
    assert [stmt for _, stmt in _kernels_imports(mod)] == forms
