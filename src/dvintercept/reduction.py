"""Per-neighbour (nonuniform) broadcasts reduced to the uniform model.

Every edge incident to a colluder is subdivided once; the subdivision vertex
joins the colluder set and uniformly announces what its owning colluder would
have announced across that edge.  Honest perception is unchanged for original
targets, so which original pairs get intercepted is preserved exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .graph import Graph, _colluder_tuple, component_labels, from_edges
from .strategy import Strategy, _honest


@dataclass(frozen=True)
class NonuniformStrategy:
    """Colluders announce a possibly different vector to each neighbour.

    broadcast[v][u] is the length-n vector v announces to neighbour u;
    forward[v] is v's per-target hop (-1 undefined).
    """

    colluders: tuple[int, ...]
    broadcast: dict[int, dict[int, np.ndarray]]
    forward: dict[int, np.ndarray]


def honest_nonuniform(g: Graph, S) -> NonuniformStrategy:
    S, _, honest, hop = _honest(g, S)
    broadcast = {v: {int(u): row.copy() for u in g.neighbors(v)}
                 for v, row in zip(S, honest)}
    return NonuniformStrategy(colluders=S, broadcast=broadcast,
                              forward=dict(zip(S, hop)))


@dataclass(frozen=True)
class BlowupMap:
    """Subdivision of every edge incident to the colluder set.

    w_of maps each subdivided edge (u, v) with u < v to its new vertex id;
    edge_of is the inverse.  New ids are n, n+1, ... in sorted edge order.
    """

    original: Graph
    blown: Graph
    S: tuple[int, ...]
    w_of: dict[tuple[int, int], int]
    edge_of: dict[int, tuple[int, int]]

    @property
    def S_prime(self) -> tuple[int, ...]:
        return tuple(sorted((*self.S, *self.edge_of)))


def blow_up(g: Graph, S) -> BlowupMap:
    S = _colluder_tuple(g.n, S)
    sset = set(S)
    w_of: dict[tuple[int, int], int] = {}
    edges = []
    nxt = g.n
    for u, v in sorted(g.edges()):
        if u in sset or v in sset:
            w_of[(u, v)] = nxt
            edges.append((u, nxt))
            edges.append((nxt, v))
            nxt += 1
        else:
            edges.append((u, v))
    blown = from_edges(nxt, edges)
    edge_of = {w: e for e, w in w_of.items()}
    return BlowupMap(original=g, blown=blown, S=S, w_of=w_of, edge_of=edge_of)


def _owner_side(bm: BlowupMap, u: int, v: int):
    """For subdivided edge {u, v}, the colluder whose announcement the new
    vertex carries (lowest id when both endpoints collude) and the hearer."""
    sset = set(bm.S)
    if u in sset:
        return u, v
    return v, u


def lift_strategy(bm: BlowupMap, nonuniform: NonuniformStrategy) -> Strategy:
    """Uniform strategy on the blown-up graph simulating a nonuniform one.

    Each subdivision vertex w of edge (u, v) with colluder u announces u's
    per-neighbour vector for v on honest original targets and relays toward v
    exactly when u's declared hop crosses that edge.  Original colluders
    announce true distances (only the subdivision vertices hear them) and
    forward through the subdivision vertex of their declared hop.

    Columns whose target is itself a colluder or a subdivision vertex stay
    fully honest: those pairs are intercepted by definition, and keeping the
    lie there can break ties (subdividing the target's edges shifts honest
    perceived distances by one hop relative to the carried-over lie).
    """
    if tuple(nonuniform.colluders) != bm.S:
        raise ValueError("nonuniform strategy colluders do not match the blowup")
    n = bm.original.n
    S_prime, _, b, f = _honest(bm.blown, bm.S_prime)
    broadcast, forward = dict(zip(S_prime, b)), dict(zip(S_prime, f))
    sset = set(bm.S)
    # the original honest targets, the only columns that carry the lie
    lied = np.ones(n, np.bool_)
    lied[list(bm.S)] = False

    for v in bm.S:
        declared = np.where(lied, nonuniform.forward[v], -1)
        for t in np.flatnonzero(declared >= 0):
            hop = int(declared[t])
            forward[v][t] = bm.w_of[(min(v, hop), max(v, hop))]

    for (u, v), w in bm.w_of.items():
        owner, hearer = _owner_side(bm, u, v)
        broadcast[w][:n][lied] = nonuniform.broadcast[owner][hearer][lied]
        # toward u and v the closest hop is that endpoint.  Toward a lied
        # target w crosses the edge where a colluder endpoint's declared hop
        # does; otherwise an honest endpoint may be drawn in by the lie, and
        # w relays its traffic onward to the colluder, never back
        if hearer in sset:
            hop = np.where(nonuniform.forward[hearer] == owner, owner, -1)
        else:
            hop = np.full(n, owner, np.int64)
        hop = np.where(nonuniform.forward[owner] == hearer, hearer, hop)
        relay = lied & (hop >= 0)
        relay[hearer] = False
        forward[w][:n][relay] = hop[relay]
    return Strategy(colluders=bm.S_prime, broadcast=broadcast, forward=forward,
                    label="lifted")


def collapse_strategy(bm: BlowupMap, uniform: Strategy) -> NonuniformStrategy:
    """Contract the subdivision vertices back into per-neighbour broadcasts.

    A colluder's announcement to neighbour v is the uniform broadcast of the
    subdivision vertex on edge (u, v), restricted to original targets with
    the self entry restored to 0; forwarding hops map back through the
    contracted edge.  An edge between two colluders has one subdivision
    vertex serving both directions (announcements between colluders are
    never consulted), so both per-neighbour vectors come from it.
    """
    if tuple(uniform.colluders) != bm.S_prime:
        raise ValueError("uniform strategy colluders do not match the blowup")
    n = bm.original.n
    broadcast: dict[int, dict[int, np.ndarray]] = {v: {} for v in bm.S}
    forward: dict[int, np.ndarray] = {}
    sset = set(bm.S)
    for (u, v), w in bm.w_of.items():
        owner, hearer = _owner_side(bm, u, v)
        vec = uniform.broadcast[w][:n].copy()
        vec[owner] = 0
        broadcast[owner][hearer] = vec
        if hearer in sset:
            rev = uniform.broadcast[w][:n].copy()
            rev[hearer] = 0
            broadcast[hearer][owner] = rev
    # subdivision vertex w on edge (a, b) maps back, from v, to a + b - v
    ends = np.zeros(bm.blown.n, np.int64)
    ends[list(bm.edge_of)] = [a + b for a, b in bm.edge_of.values()]
    for v in bm.S:
        h = uniform.forward[v][:n]
        forward[v] = np.where(h >= n, ends[h] - v, h)
    return NonuniformStrategy(colluders=bm.S, broadcast=broadcast,
                              forward=forward)


def translate_fraction(g: Graph, S, p) -> Fraction:
    """Interception fraction carried across the blowup.

    p is the unordered fraction as `intercepted_pairs` reports it, over the
    pairs within one component.  A new vertex joins its edge's component,
    and all its pairs are intercepted (new vertices all collude).  So with
    n_c nodes and q_c subdivided edges in component c, P = sum C(n_c, 2),
    P' = sum C(n_c + q_c, 2) and p' = (p*P + P' - P) / P', 0 with no pair.
    """
    S = set(_colluder_tuple(g.n, S))
    comp = component_labels(g).tolist()
    q = Counter(comp[u] for u, v in g.edges() if u in S or v in S)
    sizes = Counter(comp)
    pairs = sum(comb(m, 2) for m in sizes.values())
    blown = sum(comb(m + q[c], 2) for c, m in sizes.items())
    return (Fraction(p) * pairs + blown - pairs) / blown if blown else Fraction(0)
