"""What a graph holds for its latest colluder set (`graph._memoized`): the
builders, counts and checks on one (graph, colluder set) share their BFS
results, and every result equals the one on a freshly built copy."""

import threading
from collections import Counter

import numpy as np
import pytest

import dvintercept.strategy as S
from dvintercept import graph as G
from dvintercept.interception import coverage_function, intercepted_pairs
from dvintercept.protocol import synchronize

from oracles import (adjacent_strategy_reference,
                     minimal_admissible_bruteforce_reference, random_connected_graph)

BUILDERS = (S.honest_strategy, S.independent_strategy, S.separated_strategy,
            S.adjacent_strategy)


def fresh(g):
    return G.from_edges(g.n, list(g.edges()))


def separated(C, g):
    return all(not g.has_edge(x, y) for x in C for y in C)


def results(g, C):
    """Every memoized path on (g, C): the builds, check, count, belief
    matrix and coverage, as comparable values."""
    out = []
    for build in BUILDERS:
        if build is S.separated_strategy and not separated(C, g):
            continue
        strat = build(g, C)
        out.append((strat.colluders, strat.label,
                    [(v, strat.broadcast[v].tolist(), strat.forward[v].tolist())
                     for v in strat.colluders]))
        out.append(S.check_admissible(g, strat))
        out.append(intercepted_pairs(g, strat, per_target=True))
        state = synchronize(g, strat.colluders, strat.broadcast)
        out.append((state.rho.tolist(), state.rounds_to_converge,
                    state.colluders))
    out.append(coverage_function(g, C))
    return out


def held_arrays(g):
    """Every array g holds."""
    out = [g._memo["labels"]] if "labels" in g._memo else []
    stack = list(g._memo["slot"][1].values()) if "slot" in g._memo else []
    while stack:
        x = stack.pop()
        if isinstance(x, (tuple, list)):
            stack += x
        else:
            out.append(x)
    return out


def graphs():
    rng = np.random.default_rng(16)
    out = [G.from_edges(0, []), G.from_edges(1, []), G.from_edges(2, []),
           G.from_edges(2, [(0, 1)]),
           # a path, a triangle and the isolated nodes 2 and 6
           G.from_edges(7, [(0, 1), (3, 4), (4, 5), (3, 5)])]
    for _ in range(3):
        g = random_connected_graph(rng, n_max=12)
        out.append(G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)]))
    # two blocks of targets, with a second component and an isolated node
    g = G.erdos_renyi(300, 0.012, seed=4)
    out.append(G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)]))
    return out


def colluder_sets(g, rng):
    """Two sets, one separated when the graph allows; every node when n <= 2."""
    if g.n <= 2:
        return list(range(g.n)), list(range(g.n))[:1]
    perm = [int(v) for v in rng.permutation(g.n)]
    spread, near = [], np.zeros(g.n, np.bool_)
    for v in perm[:g.n // 2]:
        if not near[v]:
            spread.append(v)
            near[v] = True
            near[g.neighbors(v)] = True
    return spread[:max(1, g.n // 20)], perm[:max(2, g.n // 3)]


@pytest.mark.parametrize("g", graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_interleaved_sets_match_fresh_graphs(g):
    # S1, S2, S1 and then, on the small graphs, every node on one graph:
    # each result equals the one on a freshly built copy, and everything the
    # graph holds is read-only
    rng = np.random.default_rng(g.n)
    S1, S2 = colluder_sets(g, rng)
    for C in (S1, S2, S1) + ((list(range(g.n)),) if g.n < 20 else ()):
        assert results(g, C) == results(fresh(g), C)
        held = held_arrays(g)
        assert held and all(not arr.flags.writeable for arr in held)
        assert g._memo["slot"][0] == tuple(sorted(C))


def test_handed_out_arrays_are_read_only():
    g = G.erdos_renyi(300, 0.012, seed=4)
    C = [3, 50, 299]
    arrays = [G.component_labels(g), G._honest_rows(g, C),
              *S._distance_rows(g, C)]
    arrays += [a for block in G.distance_blocks(g, C) for a in block]
    S.adjacent_strategy(g, C)
    arrays += g._memo["slot"][1]["plan"]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[:1] = 0


def test_stopped_pass_is_not_held_as_complete():
    # a violation toward target 0 stops the check and the count in block 0;
    # the next count on the same set must still pass over every block
    g = G.erdos_renyi(300, 0.012, seed=4)
    comp = G.component_labels(g)
    C = [int(v) for v in np.flatnonzero(comp == comp[0])[1:40:4]]
    base = S.adjacent_strategy(g, C)
    forward = {v: f.copy() for v, f in base.forward.items()}
    forward[C[0]][0] = -1  # C[0] can no longer deliver toward 0
    bad = S.Strategy(colluders=base.colluders, broadcast=base.broadcast,
                     forward=forward)
    verdict = S.check_admissible(g, bad)
    assert verdict.violating_pair[1] == 0
    with pytest.raises(ValueError, match="inadmissible"):
        intercepted_pairs(g, bad)
    assert intercepted_pairs(g, base, per_target=True) \
        == intercepted_pairs(fresh(g), base, per_target=True)
    blocks = g._memo["slot"][1]["blocks"]
    assert [T[0] for T, _ in blocks] == list(range(0, g.n, G._BLOCK))
    assert S.check_admissible(g, bad) == verdict


def counted_bfs(monkeypatch):
    """Patch `graph._bit_bfs`; return the Counter of its (pull, sources)
    calls, a pull told apart by its arc starts.  Blocks run their BFS on the
    pool's threads, so the count is taken under a lock."""
    calls, bit_bfs, lock = Counter(), G._bit_bfs, threading.Lock()

    def counted(pull, sources):
        key = pull[1].tobytes(), tuple(np.asarray(sources).tolist())
        with lock:
            calls[key] += 1
        return bit_bfs(pull, sources)

    monkeypatch.setattr(G, "_bit_bfs", counted)
    return calls


def test_sweep_cell_runs_each_bfs_once(monkeypatch):
    # four builds and four counts on one separated set: D_C, the rows of S
    # and its neighbours, and one BFS per block of D_{G-S}
    g = G.erdos_renyi(300, 0.012, seed=4)
    C = sorted(colluder_sets(g, np.random.default_rng(4))[0])
    calls = counted_bfs(monkeypatch)
    for build in BUILDERS:
        intercepted_pairs(g, build(g, C))
    blocks = -(-g.n // G._BLOCK)
    assert sum(calls.values()) == 2 + blocks
    assert set(calls.values()) == {1}
    dc = G._pull_lists(g, sealed=C)[1].tobytes(), tuple(C)
    assert calls[dc] == 1


def test_checked_adjacent_op_computes_d_c_once(monkeypatch):
    # the relay bounds of a multi-node component and the count read the same
    # D_C rows; every BFS of the build and the checked count runs once
    g = G.erdos_renyi(300, 0.012, seed=4)
    x = next(v for v in range(g.n) if g.degree(v))
    C = sorted({x, int(g.neighbors(x)[0]), 100, 200})
    calls = counted_bfs(monkeypatch)
    strat = S.adjacent_strategy(g, C)
    assert S.check_admissible(g, strat)
    intercepted_pairs(g, strat)
    assert set(calls.values()) == {1}
    assert calls[G._pull_lists(g, sealed=C)[1].tobytes(), tuple(C)] == 1


def test_rho_star_plans_share_their_rows(monkeypatch):
    g = G.erdos_renyi(120, 0.03, seed=2)
    C = colluder_sets(g, np.random.default_rng(2))[0]
    calls = counted_bfs(monkeypatch)
    plans = [S.rho_star_plan(g, C, t) for t in range(g.n) if t not in C]
    assert sum(calls.values()) == 1
    h = fresh(g)
    assert plans == [S.rho_star_plan(h, C, p.target) for p in plans]


def test_each_distance_product_has_one_producer(monkeypatch):
    # the brute force over every target of one set reads the held D_C, the
    # held rows of C and its neighbours (its search ranges) and t's row of
    # the held D_{G-S}: one sealed BFS, one rows BFS and one block, however
    # many targets
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, n_max=10, n_min=8)
    C = sorted(int(v) for v in rng.choice(g.n, 3, replace=False))
    targets = [t for t in range(g.n) if t not in C]
    near = tuple(np.flatnonzero(S._distance_rows(fresh(g), C)[0] >= 0).tolist())
    calls = counted_bfs(monkeypatch)
    frontiers = [S.minimal_admissible_bruteforce(g, C, t) for t in targets]
    sealed = G._pull_lists(g, sealed=C)[1].tobytes()
    removed = G._pull_lists(g, C)[1].tobytes()
    plain = G._pull_lists(g)[1].tobytes()
    assert calls == {(sealed, tuple(C)): 1, (plain, near): 1,
                     (removed, tuple(range(g.n))): 1}
    assert frontiers == [minimal_admissible_bruteforce_reference(g, C, t)
                         for t in targets]

    # a checked adjacent op with a multi-node component: the build reads no
    # block (its relay bound takes true distances from the held rows), so
    # every BFS in G - S is one block's, run once by the check
    g = G.erdos_renyi(300, 0.012, seed=4)
    x = next(v for v in range(g.n) if g.degree(v))
    C = sorted({x, int(g.neighbors(x)[0]), 100, 200})
    calls = counted_bfs(monkeypatch)
    strat = S.adjacent_strategy(g, C)
    assert S.check_admissible(g, strat)
    intercepted_pairs(g, strat)
    removed = G._pull_lists(g, C)[1].tobytes()
    blocks = [tuple(range(lo, min(lo + G._BLOCK, g.n)))
              for lo in range(0, g.n, G._BLOCK)]
    assert {T: count for (pull, T), count in calls.items()
            if pull == removed} == dict.fromkeys(blocks, 1)


def vectors(strat):
    return [(v, strat.broadcast[v].tolist(), strat.forward[v].tolist())
            for v in strat.colluders]


def test_adjacent_build_reads_no_distances_in_g_minus_s(monkeypatch):
    # a multi-node component on a two-block graph: the relay bound takes
    # true distances from the held rows of C and its neighbours, so the
    # build reads no block of D_{G-S} and runs no BFS in G - S
    g = G.erdos_renyi(300, 0.012, seed=4)
    x = next(v for v in range(g.n) if g.degree(v))
    C = sorted({x, int(g.neighbors(x)[0]), 100, 200})
    assert g.n > G._BLOCK and max(map(len, S.colluder_components(g, C))) > 1
    calls = counted_bfs(monkeypatch)

    def no_blocks(*args, **kwargs):
        raise AssertionError("the build read D_{G-S}")

    with monkeypatch.context() as m:
        m.setattr(S, "distance_blocks", no_blocks)
        strat = S.adjacent_strategy(g, C)
    removed = G._pull_lists(g, C)[1].tobytes()
    assert calls and not any(pull == removed for pull, _ in calls)
    assert S.check_admissible(g, strat)
    h = fresh(g)
    assert vectors(strat) == vectors(S.adjacent_strategy(h, C))
    assert vectors(strat) == vectors(adjacent_strategy_reference(h, C))
    assert intercepted_pairs(g, strat, per_target=True) \
        == intercepted_pairs(h, strat, per_target=True)


def test_one_plan_per_colluder_set(monkeypatch):
    # a separated and an adjacent build on one set run one label setting; a
    # build with a component order runs its own and leaves the held plan
    calls, plans = [], S._rho_star_plans

    def counted(*args, **kwargs):
        calls.append(kwargs.get("order"))
        return plans(*args, **kwargs)

    monkeypatch.setattr(S, "_rho_star_plans", counted)
    g = G.erdos_renyi(300, 0.012, seed=4)
    C = sorted(colluder_sets(g, np.random.default_rng(4))[0])
    sep, adj = S.separated_strategy(g, C), S.adjacent_strategy(g, C)
    assert calls == [None]
    held = g._memo["slot"][1]["plan"]
    # value, forwarding number and exit hop, as narrow as they fit
    assert [a.dtype for a in held] == [np.uint8, np.uint8, np.int16]
    assert all(a.shape == (len(C), g.n - len(C)) for a in held)
    ordered = S.adjacent_strategy(g, C, component_order=C[::-1])
    assert calls == [None, C[::-1]]
    assert g._memo["slot"][1]["plan"] is held
    assert vectors(S.adjacent_strategy(g, C)) == vectors(adj)
    assert len(calls) == 2
    h = fresh(g)
    assert vectors(sep) == vectors(S.separated_strategy(h, C))
    assert vectors(adj) == vectors(S.adjacent_strategy(h, C))
    assert vectors(ordered) == \
        vectors(S.adjacent_strategy(h, C, component_order=C[::-1]))

    # a multi-node component: the plan on the quotient is held alike
    x = next(v for v in range(g.n) if g.degree(v))
    C = sorted({x, int(g.neighbors(x)[0]), 100, 200})
    calls.clear()
    adj = S.adjacent_strategy(g, C)
    assert vectors(S.adjacent_strategy(g, C)) == vectors(adj)
    assert calls == [None]
    assert vectors(adj) == vectors(S.adjacent_strategy(fresh(g), C))
