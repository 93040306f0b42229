"""Network topology: graph type, edge-list ingestion, generators, distances."""

from __future__ import annotations

import bisect
import inspect
import itertools
import numbers
import os
import re
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
    it): "rows", "blocks", "adjacent" and "count", each the output of a BFS,
    a label setting or a pass.  One set at a time; naming another drops it."""
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
    """Build a Graph from an iterable of (u, v) pairs, or an m x 2 array.

    Self-loops and duplicate edges are dropped; adjacency lists come out
    sorted and symmetric.  A non-integer n or endpoint, an array that is
    not m x 2 and a record whose length is not 2 are ValueErrors.
    """
    n = _integer(n, "n")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(edges, np.ndarray):
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edge array has shape {edges.shape}, not (m, 2)")
    else:
        edges = list(edges)
        if bad := [i for i, rec in enumerate(edges) if not _is_pair(rec)]:
            raise ValueError(f"edge record {bad[0]} {edges[bad[0]]!r} is not a pair")
        edges = itertools.chain.from_iterable(edges)
    e, fault = _integers(edges, "edge endpoint")
    if fault:
        raise fault
    e = e.reshape(-1, 2)
    bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
    if bad.size:
        u, v = e[bad[0]]
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    return _csr(n, np.concatenate([e[:, 0], e[:, 1]]),
                np.concatenate([e[:, 1], e[:, 0]]),
                labels=tuple(labels) if labels is not None else None)


def _is_pair(rec) -> bool:
    """Whether an edge record has length 2; False for one with no length."""
    try:
        return len(rec) == 2
    except TypeError:
        return False


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


# the types of an integer: int and numpy's integer scalar types, not bool
_INT_TYPES = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})


def _integer(v, what: str) -> int:
    """int(v); ValueError "<what> v is not an integer" unless v is a
    Python or numpy integer (its type is in `_INT_TYPES`)."""
    if type(v) not in _INT_TYPES:
        raise ValueError(f"{what} {v!r} is not an integer")
    return int(v)


def _int_text(text: str, what: str) -> int:
    """int(text) for an optional sign and ASCII digits, blanks around them
    allowed (int() also takes `1_0` and `３0`); else ValueError."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"{what} {text!r} is not an integer")
    return int(text)


def _real_text(text: str, what: str) -> float:
    """float(text) for ASCII text without `_`; else ValueError."""
    try:
        if text.isascii() and "_" not in text:
            return float(text)
    except ValueError:
        pass
    raise ValueError(f"{what} {text!r} is not a number")


def _fraction(p, message: str) -> None:
    """ValueError(message) unless p is a real number in [0, 1], not a bool."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0 <= p <= 1:
        raise ValueError(message)


def _integers(a, what: str):
    """(ints, fault): the entries of `a`, an array, an iterable or one
    scalar, as a flat int64 array up to the first, in input order, that is
    not an integer as for `_integer` or that int64 cannot hold, and for
    that entry x the ValueError "<what> x is not an integer" (or "does not
    fit in int64"), `what` formatted with x's position, or None.  Only a
    float array is read by value: its integral entries pass, INF included.
    An integer array costs no per-entry work, a float array one compare,
    anything else one type scan."""
    if isinstance(a, np.ndarray):
        flat, kind = a.reshape(-1), a.dtype.kind
    elif isinstance(a, (list, tuple)):
        flat, kind = a, "O"
    else:  # a scalar or a string is one entry
        flat = list(a) if np.iterable(a) and not isinstance(a, (str, bytes)) else [a]
        kind = "O"
    if kind in "iu":
        return flat.astype(np.int64, copy=False), None
    if kind == "f":
        with np.errstate(invalid="ignore"):  # NaN and infinities fail
            bad = np.flatnonzero(flat.astype(np.int64) != flat).tolist()
    elif set(map(type, flat)) <= _INT_TYPES:
        bad = []
    else:  # nested lists are read in row-major order, as numpy reads them
        flat = np.asarray(flat, object).reshape(-1)
        bad = [i for i, x in enumerate(flat) if type(x) not in _INT_TYPES]
    if not bad:
        try:
            return np.array(flat, np.int64), None
        except OverflowError:  # a Python int that int64 cannot hold
            bad = [i for i, x in enumerate(flat) if not -1 << 63 <= x < 1 << 63]
    i = bad[0]
    x = flat[i].item() if isinstance(flat[i], np.generic) else flat[i]
    why = "does not fit in int64" if type(x) in _INT_TYPES else "is not an integer"
    return np.array(flat[:i], np.int64), ValueError(f"{what.format(i)} {x!r} {why}")


def _node_ids(n: int, ids, what: str) -> np.ndarray:
    """ids as a flat int64 array; ValueError at the first id, in input
    order, that is not a node id: not an integer (`_integers`), or outside
    [0, n) ("<what> v out of range for n=<n>")."""
    a, fault = _integers(ids, what)
    # a negative id reads as at least 2^63 in uint64
    out = a.view(np.uint64) >= n
    if np.count_nonzero(out):
        raise ValueError(f"{what} {a[out.argmax()]} out of range for n={n}")
    if fault:
        raise fault
    return a


def _colluder_tuple(n: int, S) -> tuple[int, ...]:
    """S sorted and deduplicated; ValueError at its first member, in input
    order, that is not a node id (`_node_ids`)."""
    return tuple(sorted(set(_node_ids(n, S, "colluder").tolist())))


def distance_avoiding(g: Graph, removed, x: int, y: int) -> int:
    """Distance from x to y in the subgraph induced on V minus `removed`."""
    removed = _colluder_tuple(g.n, removed)
    x, y = _node_ids(g.n, [x, y], "endpoint").tolist()
    if x in removed or y in removed:
        raise ValueError("endpoints must not be in the removed set")
    return int(as_hops(hop_distances(g, [x], removed))[0, y])


# target ids per distance block; per-block arrays take O(n * _BLOCK) memory
_BLOCK = 256

# bytes of a block of D_{G-S} at one byte per entry (_BLOCK * n) from which
# `_map_blocks` runs the blocks of a pass on threads: n >= 4096, the measured
# crossover (see `_map_blocks`)
_POOL_BYTES = 1 << 20


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(g: Graph, fn, items):
    """Yield fn(x) for each x of `items`, one per distance block of g, in
    order and lazily: fn is called on an item only as the results before it
    are consumed.

    The calls run inline, and no thread starts, unless a block holds at
    least `_POOL_BYTES` (_BLOCK * n >= _POOL_BYTES) and two or more CPUs are
    usable.  Then they run on a pool of min(blocks, CPUs) threads, at most
    one item per thread ahead of the consumer, so per-block transients are
    held up to threads + 1 times.  fn reads arrays that no one writes while
    it runs and writes nothing that another call reads; most of its time is
    in numpy calls that release the GIL.  An exception from fn is raised
    when its result is reached, so results and errors come in item order.
    The pool starts at the first item and is shut down, its pending calls
    cancelled, when the generator is exhausted or closed: no thread
    outlives it.

    Below the crossover the pool costs more than it overlaps: the GIL is
    held by `np.bitwise_or.reduceat` in the BFS and handed over at every
    short numpy call, a thread started while another runs numpy takes about
    2 ms, and a fresh process pays the pool's import and more page faults.
    Medians (ms) of a cold honest count (BFS included) and a warm adjacent
    count (blocks held), 20 random colluders on pref_attach(n, 2, seed=3)
    (18 at 10^4), inline and on 2 threads, 10 alternating rounds in one
    process on 2 vCPUs:

        n        inline        pool
        1000     17 / 10      21 / 13
        2000     61 / 27      53 / 28
        3000    131 / 58     124 / 46
        3500    177 / 74     144 / 70
        4000    234 / 102    218 / 82
        4500    309 / 135    279 / 109
        5000    363 / 165    363 / 124
        5500    473 / 209    349 / 135
        6000    542 / 253    463 / 170
        10^4   1653 / 700   1202 / 459

    Over five such runs (four in one process, of 6 to 12 rounds, and one
    of 6 rounds of fresh processes), from n = 4000 up the pool's median was
    the lower in 39 of 42 cold and warm comparisons.  From 2000 to 3500 the
    pooled/inline pair medians ranged from 0.77 to 1.24, so the counts
    alone did not settle it, and at n = 2000 the benchmark's fresh-process
    ops, builds included, ran faster inline; at n = 1000 inline won.  1 MiB
    (n >= 4096) is the round budget just above that crossover.
    """
    big = _BLOCK * g.n >= _POOL_BYTES
    workers = min(-(-g.n // _BLOCK), _cpus()) if big else 1
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


def _pull_lists(g: Graph):
    """(n, starts, nbrs, mask): in a BFS level node v pulls the bits of
    nbrs[starts[v]:starts[v + 1]] and keeps those of mask[v].  starts is
    g.indptr, and nbrs ends with a padding entry at starts[n], so every
    start is in range.  `reduceat` gives an empty run the word at its
    start, so the n x 1 mask is 0 at degree-0 nodes (all ones otherwise);
    `_hop_families` widens it and seals nodes by zeroing their words."""
    mask = np.where(g.degrees() > 0, ~np.uint64(0), np.uint64(0))[:, None]
    return g.n, g.indptr, np.append(g.indices, 0), mask


# bytes of unpacked bits per tile of `_bit_bfs`' result
_TILE = 1 << 18


def _bit_bfs(pull, sources) -> np.ndarray:
    """|sources| x n hop distances over `pull` (from `_pull_lists`), all
    sources at once: node v holds bit i of its uint64 words when sources[i]
    has reached it.  One level ORs the frontier words of each node's pulled
    neighbours and keeps the bits not yet seen and not masked (`mask` is
    n x 1 or n x words).  The levels are recorded as bit planes: the
    frontier of level d is ORed into plane j for each bit j set in d, so an
    entry's planes spell the level that reached it, and an entry never
    reached has no plane bit.  A source -1 starts nothing, and its row is
    unreached.

    The dtype is the first of uint8, uint16 and uint32 whose maximum exceeds
    the last level; that maximum marks the unreached entries.  The result
    is written through tiles of node rows: per tile, one unpack per plane,
    times its bit's value, plus one of the unseen bits times the maximum,
    and the tile's transpose is copied into the result's columns."""
    n, starts, nbrs, mask = pull
    sources = np.asarray(sources, np.int64).reshape(-1)
    k = sources.size
    words = (k + 63) // 64
    bit = np.flatnonzero(sources >= 0)
    frontier = np.zeros((n, words), "<u8")
    np.bitwise_or.at(frontier, (sources[bit], bit >> 6),
                     np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)))
    seen = frontier.copy()
    planes = []
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
        if level.bit_length() > len(planes):
            planes.append(np.zeros_like(seen))
        for j, plane in enumerate(planes):
            if level >> j & 1:
                plane |= frontier
        seen |= frontier
    dtype = next(t for t in _HOP_DTYPES if level < np.iinfo(t).max)
    out = np.empty((k, n), dtype)

    def unpack(a):
        # bit i of a little-endian word is column i of its row
        return np.unpackbits(a.view(np.uint8), axis=1, bitorder="little")

    rows = max(1, _TILE // max(64 * words, 1))
    for lo in range(0, n, rows):
        at = slice(lo, lo + rows)
        tile = np.multiply(unpack(~seen[at]), np.iinfo(dtype).max, dtype=dtype)
        for j, plane in enumerate(planes):
            tile |= np.multiply(unpack(plane[at]), 1 << j, dtype=dtype)
        out[:, at] = tile[:, :k].T
    return out


def hop_distances(g: Graph, sources, removed=()) -> np.ndarray:
    """D[i, v]: the hop distance from sources[i] to v once every edge
    touching `removed` is deleted, as one `_hop_families` family sealed at
    `removed`: a removed source is isolated, so it starts nothing and is 0
    at its own entry only.  uint8 while every distance fits below 255, else
    uint16 or uint32; np.iinfo(D.dtype).max marks unreached entries (see
    `as_hops`), the dtype `_bit_bfs` picks for these distances alone
    (`_narrowest`).  On a one-block graph `strategy._set_distances` holds
    a colluder set's block, equal to this call on every node, from a
    family whose colluder rows are D_C.  ValueError names the first source,
    else removed node, that is not a node id (`_node_ids`)."""
    src = _node_ids(g.n, sources, "source")
    removed = _node_ids(g.n, removed, "removed node")
    gone = np.zeros(g.n, np.bool_)
    gone[removed] = True
    alone = gone[src]
    D = _hop_families(g, [(np.where(alone, -1, src), removed)])[0]
    D[alone, src[alone]] = 0
    return D


# source words per `_hop_families` BFS: its per-level arrays take about
# 200 bytes per node and word
_WORDS = 32


def _hop_families(g: Graph, families) -> list:
    """Per family (sources, sealed), the hop distances from each source
    over paths that enter no node of `sealed` other than their own source
    (a source -1 starts nothing and its row is unreached), from as
    few `_bit_bfs` calls as possible: the families of one call take at most
    `_WORDS` source words (a larger family runs alone).  Each family's
    sources start on a word of their own, padded with -1, and the pull mask
    is widened to one word per node and source word, 0 at the nodes its
    family seals: the one place a BFS seals a set.  A level runs while any
    family's frontier is live, so the call's dtype is the widest its
    families need; a family whose distances fit a narrower one is narrowed
    to it, the dtype it would have alone."""
    families = [(np.asarray(src, np.int64).reshape(-1),
                 np.asarray(sealed, np.int64).reshape(-1))
                for src, sealed in families]
    n, starts, nbrs, mask = _pull_lists(g)
    out, i = [], 0
    while i < len(families):
        # families i to j - 1, whose words start at lo
        lo = list(itertools.accumulate(
            (-(-src.size // 64) for src, _ in families[i:]), initial=0))
        j = i + max(1, bisect.bisect_right(lo, _WORDS) - 1)
        lo = lo[:j - i + 1]
        sources = np.full(64 * lo[-1], -1, np.int64)
        seal = np.repeat(mask, lo[-1], axis=1)
        for (src, sealed), a, b in zip(families[i:j], lo, lo[1:]):
            sources[64 * a:64 * a + src.size] = src
            seal[sealed, a:b] = 0
        D = _bit_bfs((n, starts, nbrs, seal), sources)
        for (src, _), a in zip(families[i:j], lo):
            rows = _narrowest(D[64 * a:64 * a + src.size])
            out.append(rows.copy() if j - i > 1 else rows)
        i = j
    return out


def _narrowest(D):
    """The hop distances D (the dtype's maximum where unreached) in the
    first of `_HOP_DTYPES` whose maximum exceeds every finite entry: the
    dtype a BFS over those distances alone returns."""
    if D.dtype == _HOP_DTYPES[0]:
        return D
    top = np.iinfo(D.dtype).max
    far = int(D.max(initial=0, where=D < top))
    narrow = next(t for t in _HOP_DTYPES if far < np.iinfo(t).max)
    return np.where(D < top, D, np.iinfo(narrow).max).astype(narrow)


def as_hops(D, dtype=np.int64, inf: int = INF) -> np.ndarray:
    """The hop distances D (as from `hop_distances`) in `dtype`, unreached
    entries set to `inf`.  The copy is widened before inf is written, so a
    large inf never wraps in D's narrow dtype.

    A held distance array is narrow: a colluder set's rows and D_C
    (`strategy._set_distances`) and the D_{G-S} blocks are held as
    `hop_distances` returns them; int64 with INF appears only in per-call
    slices of k or |comps| rows (a block at a time in `synchronize`)."""
    out = D.astype(dtype)
    out[D == np.iinfo(D.dtype).max] = inf
    return out


def distance_blocks(g: Graph, removed=()):
    """Yield (T, D) over consecutive blocks T of at most _BLOCK node ids, in
    id order, where D = `hop_distances(g, T, removed)`: D[i, s] is the hop
    distance between T[i] and s once every edge touching `removed` is
    deleted, one byte per entry while the block's distances stay below 255,
    the dtype's maximum where unreachable.  The graph is undirected, so the
    rows D are also the columns D[:, T].

    Blocks are computed as they are read (`_over_blocks`).  Once a pass has
    read every block, they are held, read-only, in the slot of the set
    `removed`, so later passes over it run no BFS: n^2 bytes while the
    distances fit in one byte.  A pass that stops early leaves nothing
    held.  On a graph of one block (n <= _BLOCK) the set's first reader in
    `strategy` holds its one block already (`strategy._set_distances`, from
    the BFS that gives its rows and D_C), so no pass over the set runs a
    BFS."""
    return _over_blocks(g, _colluder_tuple(g.n, removed), lambda T, D: (T, D))


def _over_blocks(g: Graph, S, fn):
    """Yield fn(T, D) for each block (T, D) of `distance_blocks(g, S)`, S a
    sorted colluder tuple, in order, through `_map_blocks`, which runs the
    calls inline unless a block holds `_POOL_BYTES`: a block that is not yet
    held has its `hop_distances` run in the same call, just before fn, and
    the blocks are held once the last one is in.  fn must not write T or D."""
    held = _slot(g, S).get("blocks")
    if held is not None:
        yield from _map_blocks(g, lambda block: fn(*block), held)
        return

    def block(T):
        D = hop_distances(g, T, S)
        return T, D, fn(T, D)

    done = []
    for T, D, out in _map_blocks(g, block, (np.arange(lo, min(lo + _BLOCK, g.n))
                                            for lo in range(0, g.n, _BLOCK))):
        done.append(_read_only((T, D)))
        yield out
    _memoized(g, S, "blocks", lambda: tuple(done))


def component_labels(g: Graph) -> np.ndarray:
    """Connected-component label per node (labels are 0..c-1, numbered in
    order of each component's lowest node id): one scipy pass over the
    stored CSR arrays, which are sorted and duplicate-free (`_csr`), once
    per graph, which holds the labels read-only."""
    if "labels" not in g._memo:
        adj = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr),
                         shape=(g.n, g.n))
        g._memo["labels"] = _read_only(
            connected_components(adj, directed=False)[1].astype(np.int64))
    return g._memo["labels"]


# ---------------------------------------------------------------------------
# generators (seeded, deterministic: numpy PCG64)
# ---------------------------------------------------------------------------


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the C(n,2) edges present independently with prob p."""
    n, seed = _integer(n, "n"), _integer(seed, "seed")
    _fraction(p, f"p must lie in [0, 1], got {p!r}")
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
    n, m, seed = _integer(n, "n"), _integer(m, "m"), _integer(seed, "seed")
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
    n, k, seed = _integer(n, "n"), _integer(k, "k"), _integer(seed, "seed")
    _fraction(beta, f"beta must lie in [0, 1], got {beta!r}")
    if not (0 < k < n) or k % 2 != 0:
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

    Returns (name, args tuple); an argument is an int when it is one as
    `_int_text` reads it, else a float (`_real_text`).
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
    what = f"generator spec {spec!r}: argument"
    for part in map(str.strip, body.split(",")) if body else ():
        try:
            args.append(_int_text(part, what))
        except ValueError:
            args.append(_real_text(part, what))
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
    except (TypeError, ValueError) as exc:  # a missing argument, a bad value
        raise ValueError(f"generator spec {spec!r}: {exc}") from None
