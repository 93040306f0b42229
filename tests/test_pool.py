"""The per-block thread pool (`graph._map_blocks`): counts, checks and belief
matrices on multi-block graphs come out the same on the pool as inline,
violations are reported for the same first target, and no thread outlives
a pass.  The pool is chosen by the CPUs the process may use, so each test
sets `graph._cpus` to pick a path."""

import sys
import threading

import numpy as np
import pytest

import dvintercept.strategy as S
from dvintercept import graph as G
from dvintercept.interception import intercepted_pairs
from dvintercept.protocol import synchronize

BUILDERS = (S.honest_strategy, S.adjacent_strategy)


def fresh(g):
    return G.from_edges(g.n, list(g.edges()))


def graphs():
    # a one-node last block, three blocks, and two blocks with a second
    # component and an isolated node; n <= 2 runs inline whatever the CPUs
    g = G.erdos_renyi(300, 0.012, seed=4)
    return [G.pref_attach(257, 2, seed=5), G.erdos_renyi(517, 0.008, seed=6),
            G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)]),
            G.from_edges(1, []), G.from_edges(2, [(0, 1)])]


def colluder_sets(g):
    """A random set and, below 300 nodes (the pass is k times n^2), every
    node."""
    rng = np.random.default_rng(g.n)
    return [sorted(int(v) for v in rng.permutation(g.n)[:max(1, g.n // 25)]),
            *([list(range(g.n))] if g.n < 300 else [])]


def results(g, C):
    """The count, check and belief matrix of each build on (g, C), run in
    both orders from an empty slot: each computes the blocks once and reads
    them held once."""
    out = []
    for build in BUILDERS:
        strat = build(g, C)
        count = lambda: intercepted_pairs(g, strat, per_target=True)
        check = lambda: S.check_admissible(g, strat)

        def beliefs():
            state = synchronize(g, strat.colluders, strat.broadcast)
            return state.rho.tobytes(), state.rounds_to_converge

        for order in ((count, check, beliefs), (beliefs, check, count)):
            g._memo.pop("slot", None)
            out += [run() for run in order]
    return out


def on_cpus(monkeypatch, cpus, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(G, "_cpus", lambda: cpus)
        return fn(*args)


@pytest.mark.parametrize("g", graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_pool_matches_inline(monkeypatch, g):
    start = threading.active_count()
    for C in colluder_sets(g):
        assert on_cpus(monkeypatch, 2, results, fresh(g), C) \
            == on_cpus(monkeypatch, 1, results, fresh(g), C)
        assert threading.active_count() == start


def planted(g, C, t):
    """The honest strategy of C with a colluder x of t's component, x != t,
    dropping traffic toward t: x itself then cannot reach t."""
    base = S.honest_strategy(g, C)
    comp = G.component_labels(g)
    x = next(v for v in C if v != t and comp[v] == comp[t])
    forward = {v: f.copy() for v, f in base.forward.items()}
    forward[x][t] = -1
    return S.Strategy(colluders=base.colluders, broadcast=base.broadcast,
                      forward=forward)


def violation(g, strat):
    with pytest.raises(S.InadmissibleError) as err:
        intercepted_pairs(g, strat)
    verdict = S.check_admissible(g, strat)
    assert (verdict.violating_pair, verdict.trap_set) \
        == (err.value.pair, err.value.trapped)
    return err.value.pair, err.value.trapped


@pytest.mark.parametrize("g", graphs()[:3], ids=lambda g: f"n{g.n}m{g.m}")
def test_violations_in_first_and_last_block(monkeypatch, g):
    start = threading.active_count()
    comp = G.component_labels(g)
    C = colluder_sets(g)[0]
    last = (g.n - 1) // G._BLOCK * G._BLOCK
    for lo in (0, last):
        # a target of the block whose component holds another colluder
        t = next(t for t in range(lo, min(lo + G._BLOCK, g.n))
                 if any(v != t and comp[v] == comp[t] for v in C))
        strat = planted(g, C, t)
        pool = on_cpus(monkeypatch, 2, violation, fresh(g), strat)
        assert pool == on_cpus(monkeypatch, 1, violation, fresh(g), strat)
        assert pool[0][1] == t
        assert threading.active_count() == start


def test_threads_end_with_the_pass(monkeypatch):
    g = G.erdos_renyi(517, 0.008, seed=6)
    C = colluder_sets(g)[0]
    start = threading.active_count()
    monkeypatch.setattr(G, "_cpus", lambda: 2)
    # the pool is used, and joined once the generator is exhausted or closed
    blocks = G.distance_blocks(g, C)
    next(blocks)
    assert threading.active_count() > start
    blocks.close()
    assert threading.active_count() == start
    assert "blocks" not in G._slot(g, tuple(C))
    next(G.distance_blocks(g, C))
    assert threading.active_count() == start
    intercepted_pairs(g, S.honest_strategy(g, C))
    assert threading.active_count() == start
    # a check that stops at block 0
    t = next(t for t in range(G._BLOCK)
             if any(v != t and G.component_labels(g)[v]
                    == G.component_labels(g)[t] for v in C))
    assert not S.check_admissible(fresh(g), planted(g, C, t))
    assert threading.active_count() == start
    # one CPU, or one block: no thread starts
    for cpus, h in ((1, g), (2, G.erdos_renyi(256, 0.02, seed=1))):
        monkeypatch.setattr(G, "_cpus", lambda cpus=cpus: cpus)
        blocks = G.distance_blocks(fresh(h), C[:3])
        next(blocks)
        assert threading.active_count() == start
        blocks.close()


def test_more_workers_than_cores(monkeypatch):
    # five blocks on five threads, switching every 10 us: each block's
    # columns of the belief matrix and each count's rows come out as inline
    g = G.pref_attach(1100, 2, seed=7)
    C = colluder_sets(g)[0]
    strat = S.honest_strategy(g, C)

    def run(h):
        state = synchronize(h, C, strat.broadcast)
        return (intercepted_pairs(h, strat, per_target=True),
                state.rho.tobytes(), state.rounds_to_converge)

    inline = on_cpus(monkeypatch, 1, run, fresh(g))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            assert on_cpus(monkeypatch, 8, run, fresh(g)) == inline
    finally:
        sys.setswitchinterval(interval)
