"""Network topology: graph type, edge-list ingestion, generators, distances."""

from __future__ import annotations

import csv
import inspect
import io
import itertools
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

INF = int(np.int64(1) << np.int64(60))  # unreached; INF + small cannot overflow


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
    token).  Immutable after construction (`_csr` makes the arrays
    read-only); all queries are pure, so a graph can hold what they compute
    (`component_labels`, `_memoized`).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    labels: tuple[str, ...] | None = None
    # component labels and the slot of the latest colluder set
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

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
    return Graph(n=n, indptr=_read_only(indptr),
                 indices=_read_only(code % n), labels=labels)


def _read_only(a):
    """a, or each array of the tuple a, made read-only."""
    if isinstance(a, tuple):
        for x in a:
            _read_only(x)
    else:
        a.flags.writeable = False
    return a


def _slot(g: Graph, S) -> dict:
    """The values g holds for the colluder set S (as `_colluder_tuple` gives
    it): the distances every build, count and check on (g, S) reads.  g
    holds one slot at a time; naming another set drops the last one's."""
    if g._memo.get("slot", (None,))[0] != S:
        g._memo["slot"] = (S, {})
    return g._memo["slot"][1]


def _memoized(g: Graph, S, key, compute):
    """compute(), made read-only and held under `key` in the slot of the
    colluder set S (`_slot`, which drops another set's values before
    compute runs)."""
    slot = _slot(g, S)
    if key not in slot:
        slot[key] = _read_only(compute())
    return slot[key]


def induced_subgraph(g: Graph, nodes) -> Graph:
    """The subgraph induced on the distinct ids `nodes`; its node i is
    nodes[i]."""
    nodes = np.asarray(nodes, np.int64)
    pos = np.full(g.n, -1, np.int64)
    pos[nodes] = np.arange(nodes.size)
    src, dst = pos[np.repeat(np.arange(g.n), g.degrees())], pos[g.indices]
    keep = (src >= 0) & (dst >= 0)
    return _csr(nodes.size, src[keep], dst[keep])


def from_edges(n: int, edges, labels=None) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Self-loops and duplicate edges are dropped; adjacency lists come out
    sorted and symmetric.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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
    """Two-column CSV token,id for an ingested graph; a token holding a
    comma or a quote is quoted, so `csv.reader` reads it back whole."""
    if g.labels is None:
        raise ValueError("graph has no ingestion label map")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [("token", "id"), *((tok, i) for i, tok in enumerate(g.labels))])
    return out.getvalue()


@dataclass(frozen=True)
class DistanceVector:
    """Hop distances from a single source; INF marks unreachable nodes."""

    source: int
    dist: np.ndarray


def _node_id(n: int, v, what: str) -> int:
    """int(v); ValueError "<what> v out of range for n=<n>" outside [0, n)."""
    v = int(v)
    if not 0 <= v < n:
        raise ValueError(f"{what} {v} out of range for n={n}")
    return v


def _colluder_tuple(n: int, S) -> tuple[int, ...]:
    """S sorted and deduplicated; ValueError naming its least id outside
    [0, n)."""
    S = tuple(sorted(set(int(v) for v in S)))
    for v in S[:1] + S[-1:]:
        _node_id(n, v, "colluder")
    return S


def bfs(indptr, indices, src, banned=None):
    """int64 hop distances from src over CSR arrays, INF where unreachable;
    banned nodes are neither entered nor left."""
    n = indptr.shape[0] - 1
    banned = np.zeros(n, np.bool_) if banned is None else banned
    esrc = np.repeat(np.arange(n), np.diff(indptr))
    ok = ~banned[esrc] & ~banned[indices]
    esrc, edst = esrc[ok], indices[ok]
    dist = np.full(n, INF, np.int64)
    frontier = np.zeros(n, np.bool_)
    frontier[src] = not banned[src]
    d = 0
    while frontier.any():
        dist[frontier] = d
        d += 1
        reached = np.zeros(n, np.bool_)
        reached[edst[frontier[esrc]]] = True
        frontier = reached & (dist == INF)
    return dist


def bfs_distances(g: Graph, source: int) -> DistanceVector:
    source = _node_id(g.n, source, "source")
    return DistanceVector(source=source, dist=bfs(g.indptr, g.indices, source))


def distance_avoiding(g: Graph, removed, x: int, y: int) -> int:
    """Distance from x to y in the subgraph induced on V minus `removed`."""
    removed = _colluder_tuple(g.n, removed)
    x, y = _node_id(g.n, x, "endpoint"), _node_id(g.n, y, "endpoint")
    if x in removed or y in removed:
        raise ValueError("endpoints must not be in the removed set")
    banned = np.zeros(g.n, np.bool_)
    banned[list(removed)] = True
    dist = bfs(g.indptr, g.indices, x, banned)
    return int(dist[y])


# target ids per distance block; per-block arrays take O(n * _BLOCK) memory
_BLOCK = 256


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(g: Graph, fn, items):
    """Yield fn(x) for each x of `items`, one per distance block of g, in
    order and lazily: fn is called on an item only as the results before it
    are consumed.

    With two or more blocks and two or more usable CPUs the calls run on a
    pool of min(blocks, CPUs) threads, at most one item per thread ahead of
    the consumer, so per-block transients are held up to threads + 1 times.
    fn reads arrays that no one writes while it runs and writes nothing
    that another call reads; most of its time is in numpy calls that
    release the GIL.  An exception from fn is raised when its result is
    reached, so results and errors come in item order.  The pool starts at
    the first item and is shut down, its pending calls cancelled, when the
    generator is exhausted or closed: no thread outlives it.  Otherwise the
    calls run inline and no thread starts."""
    workers = min(-(-g.n // _BLOCK), _cpus())
    if workers < 2:
        yield from map(fn, items)
        return
    # imported where a pool starts: a process whose passes all run inline
    # need not load it (about 7 ms, where no other module has)
    from concurrent.futures import ThreadPoolExecutor

    items = iter(items)
    pool = ThreadPoolExecutor(workers)
    try:
        ahead = deque(pool.submit(fn, x) for x in itertools.islice(items, workers))
        while ahead:
            result = ahead.popleft().result()
            ahead.extend(pool.submit(fn, x) for x in itertools.islice(items, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


# distance dtypes in widening order; each one's maximum marks unreached entries
_HOP_DTYPES = (np.uint8, np.uint16, np.uint32)


def _pull_lists(g: Graph, removed=(), sealed=()):
    """(n, starts, nbrs, mask): in a BFS level node v pulls the bits of
    nbrs[starts[v]:starts[v + 1]].  Every arc touching `removed` is dropped,
    and so is every arc into `sealed`.  `reduceat` gives a node with an
    empty run the word at its start instead of zero, so such a node's `mask`
    word is 0 (all ones otherwise); nbrs ends with one padding entry, and
    starts with its index, so that every start is in range."""
    blocked = np.zeros(g.n, np.bool_)
    blocked[list(removed)] = True
    gives = ~blocked
    blocked[list(sealed)] = True
    esrc = np.repeat(np.arange(g.n), g.degrees())
    keep = ~blocked[esrc] & gives[g.indices]
    counts = np.bincount(esrc[keep], minlength=g.n)
    starts = np.zeros(g.n + 1, np.int64)
    np.cumsum(counts, out=starts[1:])
    mask = np.where(counts > 0, ~np.uint64(0), np.uint64(0))[:, None]
    return g.n, starts, np.append(g.indices[keep], 0), mask


def _bit_bfs(pull, sources) -> np.ndarray:
    """|sources| x n hop distances over `pull` (from `_pull_lists`), all
    sources at once: node v holds bit i of its uint64 words when sources[i]
    has reached it.  One level ORs the frontier words of each node's pulled
    neighbours and keeps the bits not yet seen; every entry still unseen
    before a level gains 1, so an entry reached at level d holds d.  The
    result is uint8, widened to uint16 or uint32 when a level would reach
    the dtype's maximum, which marks the unreached entries."""
    n, starts, nbrs, mask = pull
    sources = np.asarray(sources, np.int64).reshape(-1)
    k = sources.size
    words = (k + 63) // 64
    bit = np.arange(k)
    frontier = np.zeros((n, words), "<u8")
    np.bitwise_or.at(frontier, (sources, bit >> 6),
                     np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)))
    seen = frontier.copy()
    dtypes = iter(_HOP_DTYPES)
    dist = np.zeros((n, 64 * words), next(dtypes))

    def unseen():
        # bit i of a little-endian word is column i of its row
        return np.unpackbits((~seen).view(np.uint8), axis=1, bitorder="little")

    level = 0
    while starts[-1]:  # with no arc there is no level
        # the last run is the padding entry's
        frontier = np.bitwise_or.reduceat(np.take(frontier, nbrs, axis=0),
                                          starts, axis=0)[:-1]
        frontier &= mask
        frontier &= ~seen
        if not frontier.any():
            break
        level += 1
        if level == np.iinfo(dist.dtype).max:
            dist = dist.astype(next(dtypes))
        dist += unseen()
        seen |= frontier
    dist[unseen().view(np.bool_)] = np.iinfo(dist.dtype).max
    return np.ascontiguousarray(dist[:, :k].T)


def hop_distances(g: Graph, sources, removed=(), sealed=()) -> np.ndarray:
    """D[i, v]: the hop distance from sources[i] to v once every edge
    touching `removed` is deleted, with no path entering a node of `sealed`
    other than its own source.  uint8 while every distance fits below 255,
    else uint16 or uint32; np.iinfo(D.dtype).max marks unreached entries
    (see `as_hops`)."""
    return _bit_bfs(_pull_lists(g, removed, sealed), sources)


def as_hops(D, dtype=np.int64, inf: int = INF) -> np.ndarray:
    """The hop distances D (as from `hop_distances`) in `dtype`, unreached
    entries set to `inf`.  The copy is widened before inf is written, so a
    large inf never wraps in D's narrow dtype."""
    out = D.astype(dtype)
    out[D == np.iinfo(D.dtype).max] = inf
    return out


def _honest_rows(g: Graph, C):
    """k x n: row i holds the hop distances from C's i-th member in id
    order through honest nodes only (no path enters another colluder), from
    one bit-parallel BFS with every colluder sealed.  The dtype is
    `hop_distances`' narrow one, its maximum where unreachable.  The rows
    are held, read-only, in the slot of C's set."""
    S = _colluder_tuple(g.n, C)
    return _memoized(g, S, "honest", lambda: hop_distances(g, S, sealed=S))


def distance_blocks(g: Graph, removed=()):
    """Yield (T, D) over consecutive blocks T of at most _BLOCK node ids, in
    id order, where D[i, s] is the hop distance between T[i] and s once every
    edge touching `removed` is deleted, from one bit-parallel BFS per block.
    D is `hop_distances`' narrow array: one byte per entry while the block's
    distances stay below 255, the dtype's maximum where unreachable.  The
    graph is undirected, so the rows D are also the columns D[:, T].

    Blocks are computed as they are read (`_over_blocks`).  Once a pass has
    read every block, they are held, read-only, in the slot of the set
    `removed`, so later passes and single-row reads over it run no BFS:
    n^2 bytes while the distances fit in one byte.  A pass that stops early
    leaves nothing held."""
    return _over_blocks(g, removed, lambda T, D: (T, D))


def _over_blocks(g: Graph, removed, fn):
    """Yield fn(T, D) for each block (T, D) of `distance_blocks(g,
    removed)`, in order, through `_map_blocks`: a block that is not yet
    held has its BFS run in the same call, just before fn, and the blocks
    are held once the last one is in.  fn must not write T or D."""
    S = _colluder_tuple(g.n, removed)
    held = _slot(g, S).get("blocks")
    if held is not None:
        yield from _map_blocks(g, lambda block: fn(*block), held)
        return
    pull = _pull_lists(g, S)

    def block(T):
        D = _bit_bfs(pull, T)
        return T, D, fn(T, D)

    done = []
    for T, D, out in _map_blocks(g, block, (np.arange(lo, min(lo + _BLOCK, g.n))
                                            for lo in range(0, g.n, _BLOCK))):
        done.append(_read_only((T, D)))
        yield out
    _memoized(g, S, "blocks", lambda: tuple(done))


def component_labels(g: Graph) -> np.ndarray:
    """Connected-component label per node (labels are 0..c-1, numbered in
    order of each component's lowest node id).  This is the one
    connected-components routine: one scipy pass over the stored CSR
    arrays, which are sorted and duplicate-free (`_csr`), once per graph,
    which holds the labels read-only."""
    if "labels" not in g._memo:
        adj = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr),
                         shape=(g.n, g.n))
        g._memo["labels"] = _read_only(
            connected_components(adj, directed=False)[1].astype(np.int64))
    return g._memo["labels"]


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
    fn = GENERATORS[name]
    # seed is positional in some generators, so a surplus argument would bind
    # to it and fail as "multiple values for 'seed'" without this check
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.name != "seed" and p.kind is p.POSITIONAL_OR_KEYWORD]
    if len(args) > len(params):
        required = sum(p.default is p.empty for p in params)
        takes = (str(len(params)) if required == len(params)
                 else f"from {required} to {len(params)}")
        raise ValueError(f"generator spec {spec!r}: {name}() takes {takes} "
                         f"positional arguments but {len(args)} were given")
    try:
        return fn(*args, seed=seed)
    except TypeError as exc:  # a missing or extra argument, or a float count
        raise ValueError(f"generator spec {spec!r}: {exc}") from None
