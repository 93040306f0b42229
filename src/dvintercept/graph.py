"""Network topology: graph type, edge-list ingestion, generators, distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from . import kernels
from .kernels import INF


class ParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected unweighted graph in CSR form.

    Node ids are dense 0-based ints.  ``labels``, when present, maps ids back
    to the external tokens of an ingested edge list (labels[i] is node i's
    token).  Immutable after construction; all queries are pure.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    labels: tuple[str, ...] | None = None

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.shape[0]) // 2

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, i: int, j: int) -> bool:
        nbrs = self.neighbors(i)
        k = int(np.searchsorted(nbrs, j))
        return k < nbrs.shape[0] and int(nbrs[k]) == j

    def edges(self):
        """Iterate undirected edges as (u, v) with u < v."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)


def _csr(n: int, src, dst, labels=None) -> Graph:
    """Graph on n nodes with one edge per arc src[i] -> dst[i]; every arc
    must also be given reversed.  Self-loops and duplicates are dropped, and
    the sorted unique arc codes give sorted, duplicate-free adjacency lists."""
    keep = src != dst
    code = np.unique(src[keep] * n + dst[keep])
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(code // n, minlength=n), out=indptr[1:])
    return Graph(n=n, indptr=indptr, indices=code % n, labels=labels)


def from_edges(n: int, edges, labels=None) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Self-loops and duplicate edges are dropped; adjacency lists come out
    sorted and symmetric.
    """
    e = np.array([(int(u), int(v)) for u, v in edges], np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
    if bad.size:
        u, v = e[bad[0]]
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    return _csr(n, np.concatenate([e[:, 0], e[:, 1]]),
                np.concatenate([e[:, 1], e[:, 0]]),
                labels=tuple(labels) if labels is not None else None)


def from_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list.

    Tokens map to dense 0-based ids in first-appearance order.  Lines starting
    with '#' are comments; blank lines are skipped.  Duplicate edges and
    self-loops are dropped silently.
    """
    ids: dict[str, int] = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 2 tokens, got {len(tokens)}", lineno)
        pair = []
        for tok in tokens:
            if tok not in ids:
                ids[tok] = len(ids)
            pair.append(ids[tok])
        edges.append(tuple(pair))
    labels = sorted(ids, key=ids.get)
    return from_edges(len(ids), edges, labels=labels)


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_edge_list(fh.read())


def label_map_csv(g: Graph) -> str:
    """Two-column CSV token,id for an ingested graph."""
    if g.labels is None:
        raise ValueError("graph has no ingestion label map")
    lines = ["token,id"]
    lines += [f"{tok},{i}" for i, tok in enumerate(g.labels)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DistanceVector:
    """Hop distances from a single source; INF marks unreachable nodes."""

    source: int
    dist: np.ndarray


def bfs_distances(g: Graph, source: int) -> DistanceVector:
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range for n={g.n}")
    return DistanceVector(source=source, dist=kernels.bfs(g.indptr, g.indices, source))


def distance_avoiding(g: Graph, removed, x: int, y: int) -> int:
    """Distance from x to y in the subgraph induced on V minus `removed`."""
    removed = set(int(v) for v in removed)
    if x in removed or y in removed:
        raise ValueError("endpoints must not be in the removed set")
    banned = np.zeros(g.n, np.bool_)
    for v in removed:
        banned[v] = True
    dist = kernels.bfs(g.indptr, g.indices, x, banned)
    return int(dist[y])


# target ids per distance block; per-block arrays take O(n * _BLOCK) memory
_BLOCK = 256


def _adjacency(g: Graph, removed=()) -> csr_matrix:
    """scipy CSR adjacency of g with every edge touching `removed` deleted."""
    cut = np.zeros(g.n, np.bool_)
    cut[list(removed)] = True
    esrc = np.repeat(np.arange(g.n), g.degrees())
    keep = ~(cut[esrc] | cut[g.indices])
    return csr_matrix((np.ones(int(keep.sum())), (esrc[keep], g.indices[keep])),
                      shape=(g.n, g.n))


def distance_blocks(g: Graph, removed=(), nodes=None):
    """Yield (T, D) over consecutive blocks T of at most _BLOCK ids from
    `nodes` (every node by default), where D[i, s] is the hop distance between
    T[i] and s once every edge touching `removed` is deleted (float64, np.inf
    where unreachable).  The graph is undirected, so the rows D are also the
    columns D[:, T]."""
    adj = _adjacency(g, removed)
    nodes = np.arange(g.n) if nodes is None else np.asarray(nodes, np.int64)
    for lo in range(0, nodes.size, _BLOCK):
        T = nodes[lo : lo + _BLOCK]
        yield T, shortest_path(adj, directed=True, unweighted=True, indices=T)


def component_labels(g: Graph) -> np.ndarray:
    """Connected-component label per node (labels are 0..c-1, numbered in
    order of each component's lowest node id)."""
    return connected_components(_adjacency(g), directed=False)[1].astype(np.int64)


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or bool((component_labels(g) == 0).all())


# ---------------------------------------------------------------------------
# generators (seeded, deterministic: numpy PCG64)
# ---------------------------------------------------------------------------


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the C(n,2) edges present independently with prob p."""
    if n < 0 or not (0.0 <= p <= 1.0):
        raise ValueError(f"invalid erdos_renyi parameters n={n}, p={p}")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n - 1):
        mask = rng.random(n - 1 - i) < p
        for j in np.flatnonzero(mask):
            edges.append((i, i + 1 + int(j)))
    return from_edges(n, edges)


def pref_attach(n: int, m: int = 2, *, seed: int) -> Graph:
    """Preferential attachment: seed clique of m+1 nodes, then each new node
    attaches m edges with probability proportional to current degree."""
    if not (1 <= m < n):
        raise ValueError(f"invalid pref_attach parameters n={n}, m={m}")
    rng = np.random.default_rng(seed)
    edges = []
    endpoints = []  # one entry per edge endpoint => degree-proportional urn
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            edges.append((i, j))
            endpoints += [i, j]
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(int(endpoints[rng.integers(len(endpoints))]))
        for u in targets:
            edges.append((u, v))
            endpoints += [u, v]
    return from_edges(n, edges)


def watts_strogatz(n: int, k: int, beta: float, seed: int) -> Graph:
    """Ring lattice with k nearest neighbours, then each lattice edge's far
    endpoint rewired with probability beta (no self-loops or duplicates)."""
    if not (0 < k < n) or k % 2 != 0 or not (0.0 <= beta <= 1.0):
        raise ValueError(f"invalid watts_strogatz parameters n={n}, k={k}, beta={beta}")
    rng = np.random.default_rng(seed)
    edge_set = set()
    for i in range(n):
        for j in range(1, k // 2 + 1):
            a, b = i, (i + j) % n
            edge_set.add((min(a, b), max(a, b)))
    edges = sorted(edge_set)
    for a, b in edges:
        if rng.random() < beta:
            # rewire the far endpoint, avoiding self-loops and duplicates
            for _ in range(n):
                c = int(rng.integers(n))
                if c == a:
                    continue
                cand = (min(a, c), max(a, c))
                if cand in edge_set:
                    continue
                edge_set.discard((a, b))
                edge_set.add(cand)
                break
    return from_edges(n, sorted(edge_set))


GENERATORS = {
    "erdos_renyi": erdos_renyi,
    "pref_attach": pref_attach,
    "watts_strogatz": watts_strogatz,
}


def parse_generator_spec(spec: str):
    """Parse "name(arg,...)" e.g. "erdos_renyi(1000,0.004)".

    Returns (name, args tuple); numbers are ints when they look like ints.
    """
    spec = spec.strip()
    if "(" not in spec or not spec.endswith(")"):
        raise ValueError(f"malformed generator spec {spec!r}")
    name, _, rest = spec.partition("(")
    name = name.strip()
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    args = []
    body = rest[:-1].strip()
    if body:
        for part in body.split(","):
            part = part.strip()
            try:
                args.append(int(part))
            except ValueError:
                args.append(float(part))
    return name, tuple(args)


def generate(spec: str, seed: int) -> Graph:
    """Build a graph from a generator spec string with the given seed."""
    name, args = parse_generator_spec(spec)
    try:
        return GENERATORS[name](*args, seed=seed)
    except TypeError as exc:  # a missing or extra argument, or a float count
        raise ValueError(f"generator spec {spec!r}: {exc}") from None
