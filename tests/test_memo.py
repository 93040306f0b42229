"""What a graph holds for its latest colluder set (`graph._memoized`): the
builders, counts and checks on one (graph, colluder set) share their BFS
results, and every result equals the one on a freshly built copy."""

import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvintercept.interception as I
import dvintercept.strategy as S
from dvintercept import cli, graph as G
from dvintercept.interception import intercepted_pairs
from dvintercept.graph import INF
from dvintercept.protocol import synchronize

from test_graph import banned_rows, path_graph
from oracles import (adjacent_strategy_reference, coverage_function,
                     intercepted_pairs_oracle, random_connected_graph)

BUILDERS = (S.honest_strategy, S.independent_strategy, S.separated_strategy,
            S.adjacent_strategy)


def fresh(g):
    return G.from_edges(g.n, list(g.edges()))


def separated(C, g):
    return all(not g.has_edge(x, y) for x in C for y in C)


def results(g, C, builders=BUILDERS, between=lambda: None):
    """Every memoized path on (g, C): per builder, in the order given, the
    build, check, count and belief matrix, then the coverage, as comparable
    values keyed by what produced them.  `between` runs after each build,
    before its check."""
    out = {}
    for build in builders:
        if build is S.separated_strategy and not separated(C, g):
            continue
        strat = build(g, C)
        between()
        state = synchronize(g, strat.colluders, strat.broadcast)
        out[build.__name__] = (
            strat.colluders, strat.label,
            [(v, strat.broadcast[v].tolist(), strat.forward[v].tolist())
             for v in strat.colluders],
            S.check_admissible(g, strat),
            intercepted_pairs(g, strat, per_target=True),
            (state.rho.tolist(), state.rounds_to_converge, state.colluders))
    out["coverage"] = coverage_function(g, C)
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


@pytest.mark.parametrize("g", graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_build_order_and_other_sets_leave_results_unchanged(g):
    # the builders reversed and with adjacent first, once on their own and
    # once with a strategy of another set built after each build, which
    # drops the set the graph holds: every build, check, count and belief
    # matrix equals the one on a freshly built copy in the default order
    rng = np.random.default_rng(g.n)
    S1, S2 = colluder_sets(g, rng)
    expect = results(fresh(g), S1)
    for order in (BUILDERS[::-1], (S.adjacent_strategy,) + BUILDERS[:3]):
        assert results(g, S1, order) == expect
        assert results(g, S1, order, lambda: S.honest_strategy(g, S2)) == expect
        assert g._memo["slot"][0] == tuple(sorted(S1))


def test_validation_leaves_the_slot_alone():
    # after a count on set A, validating a strategy of set B reads and
    # writes no slot: g still holds A's rows, blocks and count, the same
    # objects
    g = G.erdos_renyi(40, 0.1, seed=2)
    A, B = (sorted(C) for C in colluder_sets(g, np.random.default_rng(2)))
    intercepted_pairs(g, S.honest_strategy(g, A))
    held = dict(g._memo["slot"][1])
    assert {"rows", "blocks", "count"} <= set(held)
    assert S.honest_strategy(fresh(g), B).validate(g)[0] == tuple(B) != tuple(A)
    assert g._memo["slot"][0] == tuple(A)
    slot = g._memo["slot"][1]
    assert slot.keys() == held.keys()
    assert all(slot[key] is value for key, value in held.items())


def test_handed_out_arrays_are_read_only():
    g = G.erdos_renyi(300, 0.012, seed=4)
    C = [3, 50, 299]
    arrays = [G.component_labels(g),
              *S._set_distances(g, G._colluder_tuple(g.n, C))[:3]]
    arrays += [a for block in G.distance_blocks(g, C) for a in block]
    assert S.check_admissible(g, S.adjacent_strategy(g, C))
    arrays += held_arrays(g)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[:1] = 0


def test_held_rows_are_narrow():
    # the rows of C and its neighbours are held as `hop_distances` returns
    # them, read-only: one byte per entry while the distances fit a byte
    g = G.erdos_renyi(300, 0.012, seed=4)
    for C in colluder_sets(g, np.random.default_rng(4)):
        at, D = S._set_distances(g, G._colluder_tuple(g.n, C))[:2]
        near = S._near(g, C)[0]
        expect = G.hop_distances(g, near)
        assert D.dtype == expect.dtype == np.uint8
        assert np.array_equal(D, expect)
        assert D.nbytes == near.size * g.n
        assert not D.flags.writeable
        assert np.array_equal(at[near], np.arange(near.size))


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
    """Patch `graph._bit_bfs`; return the Counter of its (seal, sources)
    calls, a call's seal being the bytes of its pull mask (`seal`).  Blocks
    run their BFS on the pool's threads, so the count is taken under a
    lock."""
    calls, bit_bfs, lock = Counter(), G._bit_bfs, threading.Lock()

    def counted(pull, sources):
        key = pull[3].tobytes(), tuple(np.asarray(sources).tolist())
        with lock:
            calls[key] += 1
        return bit_bfs(pull, sources)

    monkeypatch.setattr(G, "_bit_bfs", counted)
    return calls


def seal(g, *words):
    """The bytes of the pull mask that a BFS on g receives with one column
    per entry of `words`: g's mask (`graph._pull_lists`), 0 at that entry's
    nodes."""
    mask = np.repeat(G._pull_lists(g)[3], len(words), axis=1)
    for i, nodes in enumerate(words):
        mask[list(nodes), i] = 0
    return mask.tobytes()


def blocks_bfs(g, C):
    """The keys `counted_bfs` gives the BFS of each block of D_{G-C}
    (`hop_distances(g, T, C)`): one family, the block's targets with a
    removed one as -1 (it starts nothing), sealed at C."""
    return [merged(g, ([-1 if v in C else v
                        for v in range(lo, min(lo + G._BLOCK, g.n))], C))
            for lo in range(0, g.n, G._BLOCK)]


def merged(g, *families):
    """The key `counted_bfs` gives one `graph._hop_families` call on g over
    the families (sources, sealed): the sources each padded with -1 to
    whole words, and each word sealed at its family's set."""
    sources, words = [], []
    for src, sealed in families:
        sources += list(src) + [-1] * (-len(src) % 64)
        words += [sealed] * -(-len(src) // 64)
    return seal(g, *words), tuple(int(v) for v in sources)


def set_bfs(g, C):
    """The key `counted_bfs` gives the one BFS on g for the colluder set C
    (`strategy._set_distances`): the rows of C and its neighbours and D_C
    (on a one-block graph, every node sealed at C: the block of D_{G-C},
    whose colluder rows are D_C)."""
    dc = (range(g.n) if g.n <= G._BLOCK else C, C)
    return merged(g, (S._near(g, C)[0], ()), dc)


def relay_families(g, C):
    """The families of `strategy._adjacent`'s relay rows on g: per
    component of C, the members X of the multi-node components in id order
    sealed at it; none when every component is a single colluder."""
    comps = S.colluder_components(fresh(g), C)
    X = sorted(v for comp in comps if len(comp) > 1 for v in comp)
    return [(X, comp) for comp in comps] if X else []


def test_sweep_cell_runs_each_bfs_once(monkeypatch):
    # four builds and four counts on one separated set: one BFS for the
    # rows of S and its neighbours together with D_C, and one BFS per block
    # of D_{G-S}
    g = G.erdos_renyi(300, 0.012, seed=4)
    C = sorted(colluder_sets(g, np.random.default_rng(4))[0])
    calls = counted_bfs(monkeypatch)
    for build in BUILDERS:
        intercepted_pairs(g, build(g, C))
    blocks = -(-g.n // G._BLOCK)
    assert sum(calls.values()) == 1 + blocks
    assert set(calls.values()) == {1}
    assert calls[merged(g, (S._near(g, C)[0], ()), (C, C))] == 1


def test_checked_adjacent_op_computes_d_c_once(monkeypatch):
    # the relay bounds of a multi-node component and the count read the same
    # D_C rows, computed in the build's one BFS on g with the rows of C and
    # its neighbours; the relay rows (one family per component) are a BFS
    # of the build's own; every BFS of the build and the checked count runs
    # once
    g = G.erdos_renyi(300, 0.012, seed=4)
    x = next(v for v in range(g.n) if g.degree(v))
    C = sorted({x, int(g.neighbors(x)[0]), 100, 200})
    calls = counted_bfs(monkeypatch)
    strat = S.adjacent_strategy(g, C)
    assert S.check_admissible(g, strat)
    intercepted_pairs(g, strat)
    assert set(calls.values()) == {1}
    assert calls[set_bfs(g, C)] == 1
    assert calls[merged(g, *relay_families(g, C))] == 1


def test_rho_star_plans_share_their_rows(monkeypatch):
    g = G.erdos_renyi(120, 0.03, seed=2)
    C = colluder_sets(g, np.random.default_rng(2))[0]
    calls = counted_bfs(monkeypatch)
    plans = [S.rho_star_plan(g, C, t) for t in range(g.n) if t not in C]
    assert sum(calls.values()) == 1
    h = fresh(g)
    assert plans == [S.rho_star_plan(h, C, p.target) for p in plans]


def test_each_distance_product_has_one_producer(monkeypatch):
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
    removed = {key[0] for key in blocks_bfs(g, C)}
    assert {key: count for key, count in calls.items()
            if key[0] in removed} == dict.fromkeys(blocks_bfs(g, C), 1)


@pytest.mark.parametrize("g", graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_first_check_count_or_sync_runs_one_set_bfs(monkeypatch, g):
    # a check, a count, a synchronization or an honest build, each the first
    # call on a set that the graph holds nothing for, makes one
    # `graph._hop_families` call on g for the set (its rows and D_C, and on
    # a one-block graph its block of D_{G-S}; one BFS while they fit
    # `graph._WORDS` words), one BFS per block of D_{G-S} on a larger graph
    # for all but the build, and no BFS of the colluder subgraph: it
    # computes no components; the D_C it holds equals one BFS per colluder
    # with the other colluders banned.  An adjacent build then makes one
    # further call on g, with the relay families when the set has a
    # multi-node component, and a second build makes none
    rng = np.random.default_rng(g.n)
    hop_families = S._hop_families
    for C in map(sorted, colluder_sets(g, rng)):
        strat = S.adjacent_strategy(fresh(g), C)
        relay = [(list(X), tuple(comp)) for X, comp in relay_families(g, C)]
        for first, passes in ((lambda h: S.check_admissible(h, strat), True),
                              (lambda h: intercepted_pairs(h, strat), True),
                              (lambda h: synchronize(h, strat.colluders,
                                                     strat.broadcast), True),
                              (lambda h: S.honest_strategy(h, C), False)):
            # per `_hop_families` call: on h, its BFS calls and its families
            h, made = fresh(g), []

            def counted(graph, families):
                before = sum(calls.values())
                out = hop_families(graph, families)
                made.append((graph is h, sum(calls.values()) - before,
                             [(np.ravel(X).tolist(), tuple(np.ravel(sealed).tolist()))
                              for X, sealed in families]))
                return out

            with monkeypatch.context() as m:
                calls = counted_bfs(m)
                m.setattr(S, "_hop_families", counted)
                first(h)
                assert [on_h for on_h, _, _ in made] == [True]
                if len(set_bfs(h, C)[1]) <= 64 * G._WORDS:
                    assert made[0][1] == calls[set_bfs(h, C)] == 1
                blocks = blocks_bfs(h, C) if passes and g.n > G._BLOCK else []
                assert all(calls[key] == 1 for key in blocks)
                assert sum(calls.values()) == made[0][1] + len(blocks)
                for expect in ([relay] if relay else [], []):
                    made.clear()
                    S.adjacent_strategy(h, C)
                    assert [fams for on_h, _, fams in made if on_h] == expect
            assert (G.as_hops(S._set_distances(h, G._colluder_tuple(h.n, C))[2])
                    == banned_rows(h, C, sealed=C)).all()


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
        m.setattr(S, "_over_blocks", no_blocks)
        strat = S.adjacent_strategy(g, C)
    # a BFS in G - S seals C in each of its words
    removed = {seal(g, *[C] * words) for words in range(1, G._WORDS + 1)}
    assert calls and not any(pull in removed for pull, _ in calls)
    assert S.check_admissible(g, strat)
    h = fresh(g)
    assert vectors(strat) == vectors(S.adjacent_strategy(h, C))
    assert vectors(strat) == vectors(adjacent_strategy_reference(h, C))
    assert intercepted_pairs(g, strat, per_target=True) \
        == intercepted_pairs(h, strat, per_target=True)


def test_one_plan_per_colluder_set(monkeypatch):
    # a separated and an adjacent build on one set run one label setting,
    # the second reading the held adjacent arrays
    calls, plans = [], S._rho_star_plans

    def counted(*args, **kwargs):
        calls.append(args[1])
        return plans(*args, **kwargs)

    monkeypatch.setattr(S, "_rho_star_plans", counted)
    g = G.erdos_renyi(300, 0.012, seed=4)
    C = sorted(colluder_sets(g, np.random.default_rng(4))[0])
    sep, adj = S.separated_strategy(g, C), S.adjacent_strategy(g, C)
    assert vectors(S.adjacent_strategy(g, C)) == vectors(adj)
    assert len(calls) == 1
    h = fresh(g)
    assert vectors(sep) == vectors(S.separated_strategy(h, C))
    assert vectors(adj) == vectors(S.adjacent_strategy(h, C))

    # a multi-node component: its adjacent arrays are held alike
    x = next(v for v in range(g.n) if g.degree(v))
    C = sorted({x, int(g.neighbors(x)[0]), 100, 200})
    calls.clear()
    adj = S.adjacent_strategy(g, C)
    assert vectors(S.adjacent_strategy(g, C)) == vectors(adj)
    assert len(calls) == 1
    assert vectors(adj) == vectors(S.adjacent_strategy(fresh(g), C))


def test_separated_quotient_is_g():
    # with every component a single colluder contraction changes nothing:
    # the quotient is g itself, and its ids are g's
    g = G.erdos_renyi(300, 0.012, seed=4)
    C = sorted(colluder_sets(g, np.random.default_rng(4))[0])
    gq, qid, honest_of, comp_qid = S._quotient(g, S.colluder_components(g, C))
    assert gq is g and len(C) > 1
    assert qid.tolist() == list(range(g.n)) and comp_qid == C
    assert honest_of.tolist() == [-1 if v in C else v for v in range(g.n)]


@pytest.mark.parametrize("n, p", [(120, 0.03), (300, 0.012)])
def test_quotient_bfs_runs_only_its_rows(monkeypatch, n, p):
    # a multi-node set's quotient plan reads only the quotient's rows of the
    # contracted set and its neighbours, and their closest hops: the one
    # BFS on the quotient receives those sources, padded to whole words,
    # and no D_C or block family
    g = G.erdos_renyi(n, p, seed=4)
    x = next(v for v in range(g.n) if g.degree(v))
    C = sorted({x, int(g.neighbors(x)[0]), 50, 100})
    gq, _, _, comp_qid = S._quotient(g, S.colluder_components(g, C))
    assert gq.n < g.n
    received, bit_bfs = [], G._bit_bfs

    def counted(pull, sources):
        if pull[0] == gq.n:
            received.append(tuple(np.asarray(sources).tolist()))
        return bit_bfs(pull, sources)

    monkeypatch.setattr(G, "_bit_bfs", counted)
    strat = S.adjacent_strategy(g, C)
    near = S._near(gq, comp_qid)[0].tolist()
    assert received == [tuple(near + [-1] * (-len(near) % 64))]
    assert vectors(strat) == vectors(adjacent_strategy_reference(fresh(g), C))


def one_block_graphs():
    """graphs() of one block, the 255- and 256-node paths and a ring."""
    return ([g for g in graphs() if g.n <= G._BLOCK] + [path_graph(255), path_graph(256)]
            + [G.watts_strogatz(256, 2, 0.0, seed=0)])


@pytest.mark.parametrize("g", one_block_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
def test_one_block_set_products_equal_separate_calls(g):
    # on a graph of one block the set's one BFS gives its rows, D_C and
    # block of D_{G-S}: each equals a `hop_distances` or
    # one-family `_hop_families` call of its own in values and dtype, for S
    # empty, every node, the drawn sets and an end of the path (whose D_C
    # reaches 255, uint16, while its block stays uint8); a colluder
    # target's row of the block is 0 at itself, unreached elsewhere
    sets = [[], list(range(g.n)), *colluder_sets(g, np.random.default_rng(g.n))]
    for C in sets + ([[0], [0, 1, 2]] if g.n > 200 else []):
        h = fresh(g)
        at, D, dc, hops = S._set_distances(h, G._colluder_tuple(h.n, C))
        ids = np.asarray(sorted(set(C)), np.int64)
        near = S._near(h, C)[0]
        blocks = h._memo["slot"][1]["blocks"]
        want = [G.hop_distances(g, near), G._hop_families(g, [(ids, ids)])[0]]
        got = [D, dc]
        if g.n:
            (T, block), = blocks
            assert T.tolist() == list(range(g.n))
            want.append(G.hop_distances(g, T, C))
            got.append(block)
            top = np.iinfo(block.dtype).max
            for c in ids:
                assert block[c].tolist() == [0 if v == c else top for v in range(g.n)]
        else:
            assert blocks == ()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(hops, S._closest_hops(g, (at, D), ids))
        if g.n == 256 and C == [0] and g.m == 255:
            assert [dc.dtype, block.dtype] == [np.uint16, np.uint8]


def test_adjacent_build_on_a_separated_set_reads_the_honest_products(monkeypatch):
    # the plan reads the quotient's rows and closest hops from the set's
    # slot in g, which the honest build filled: no BFS and no closest hops
    g = G.erdos_renyi(300, 0.012, seed=4)
    C = sorted(colluder_sets(g, np.random.default_rng(4))[0])
    S.honest_strategy(g, C)
    calls, hops, closest_hops = counted_bfs(monkeypatch), [], S._closest_hops

    def counted_hops(h, rows, V):
        hops.append(V)
        return closest_hops(h, rows, V)

    monkeypatch.setattr(S, "_closest_hops", counted_hops)
    strat = S.adjacent_strategy(g, C)
    assert not calls and not hops
    assert vectors(strat) == vectors(S.adjacent_strategy(fresh(g), C))


def test_sweep_cell_computes_each_set_product_once(monkeypatch):
    # the four strategies of a CLI cell, built and counted: the slot holds
    # exactly the four products that cost a BFS, a label setting or a pass
    # (the set's distances in g: its rows, D_C and the colluders' closest
    # hops from one `_closest_hops` on g; the D_{G-S} blocks; the adjacent
    # arrays; the last count), and the strategy and interception modules
    # compute theirs once, but for the held count, which each distinct
    # strategy computes.  The colluder components are the adjacent build's
    # alone: one BFS of the colluder subgraph, none for a separated set, and
    # no scipy labelling.  The BFS calls: one on g for the rows and D_C,
    # one per block, and for a multi-node set one of the colluder subgraph,
    # one of the quotient and one on g for the relay rows, held nowhere
    computed, work = Counter(), Counter()
    memoized, closest_hops, labels = S._memoized, S._closest_hops, S.component_labels

    def counted_memo(h, C, key, compute):
        def counted():
            computed[key] += h is g  # not the subgraphs of a component
            return compute()
        return memoized(h, C, key, counted)

    def counted_hops(h, rows, V):
        work["closest_hops"] += h is g and np.array_equal(np.ravel(V), C)
        return closest_hops(h, rows, V)

    def counted_labels(h):
        work["labelling"] += h is not g
        return labels(h)

    monkeypatch.setattr(S, "_memoized", counted_memo)
    monkeypatch.setattr(I, "_memoized", counted_memo)
    monkeypatch.setattr(S, "_closest_hops", counted_hops)
    monkeypatch.setattr(S, "component_labels", counted_labels)
    g = G.erdos_renyi(300, 0.012, seed=4)
    x = next(v for v in range(g.n) if g.degree(v))
    blocks = -(-g.n // G._BLOCK)
    for multi, C in enumerate([
            sorted(colluder_sets(g, np.random.default_rng(4))[0]),
            sorted({x, int(g.neighbors(x)[0]), 100, 200})]):
        computed.clear()
        work.clear()
        with monkeypatch.context() as m:
            calls = counted_bfs(m)
            for name in cli._STRATEGIES:
                strat, _ = cli.build_strategy(g, name, C)
                intercepted_pairs(g, strat)
        assert work == Counter(closest_hops=1)
        assert set(calls.values()) == {1}
        assert sum(calls.values()) == 1 + blocks + 3 * multi
        assert calls[set_bfs(g, C)] == 1
        # the held count is computed for honest, independent and the first
        # of the separated/adjacent pair, and read for the second
        assert computed == Counter(rows=1, adjacent=1, count=3)
        held = g._memo["slot"][1]
        assert set(held) == {"rows", "blocks", "adjacent", "count"}
        assert held["rows"][3].dtype == np.int16


def counted_passes(monkeypatch):
    """Patch the pass's `_over_blocks`; return the Counter of its entries
    ("passes") and of the block function's calls ("blocks")."""
    calls, over_blocks, lock = Counter(), S._over_blocks, threading.Lock()

    def counted(g, removed, fn):
        calls["passes"] += 1

        def block(T, D):
            with lock:
                calls["blocks"] += 1
            return fn(T, D)

        return over_blocks(g, removed, block)

    monkeypatch.setattr(S, "_over_blocks", counted)
    return calls


def fraction_pair(res):
    return res.fraction_ordered, res.fraction_unordered


@pytest.mark.parametrize("n, p", [(120, 0.03), (300, 0.012)])
def test_sweep_cell_runs_three_passes(monkeypatch, n, p):
    # a CLI cell's four strategies, in either order, on a one-block and a
    # two-block graph and on a separated and a multi-node set: the separated
    # and adjacent strategies have equal arrays, so the second of them is
    # read from the held count; every result equals the one of a count
    # alone on a fresh graph
    # (honest and independent strategies are equal too, and counted once,
    # when no colluder has a target at distance 2 or more, so the sets are
    # drawn from the largest component)
    g = G.erdos_renyi(n, p, seed=4)
    comp = G.component_labels(g)
    big = np.flatnonzero(comp == np.bincount(comp).argmax())
    spread = []
    for v in big.tolist():
        if all(not g.has_edge(v, u) for u in spread):
            spread.append(v)
    x, y = big[0], g.neighbors(big[0])[0]
    blocks = -(-g.n // G._BLOCK)
    for C in (spread[::7][:6], sorted({int(x), int(y), *big[[20, 40]].tolist()})):
        expect = {}
        for name in cli._STRATEGIES:
            h = fresh(g)
            expect[name] = intercepted_pairs(h, cli.build_strategy(h, name, C)[0])
        for names in (cli._STRATEGIES, [*cli._STRATEGIES][::-1]):
            h = fresh(g)
            with monkeypatch.context() as m:
                calls = counted_passes(m)
                got = {name: intercepted_pairs(h, cli.build_strategy(h, name, C)[0])
                       for name in names}
            assert calls == Counter(passes=3, blocks=3 * blocks)
            assert got == expect
        assert expect["separated"] == expect["adjacent"]


def edited(strat, broadcast=None, forward=None):
    """A strategy with copies of strat's vectors, one entry of each given
    (colluder, target, value) written."""
    b = {v: a.copy() for v, a in strat.broadcast.items()}
    f = {v: a.copy() for v, a in strat.forward.items()}
    for vectors, entry in ((b, broadcast), (f, forward)):
        if entry is not None:
            v, t, value = entry
            vectors[v][t] = value
    return S.Strategy(strat.colluders, b, f, strat.label)


def outcome(g, strat):
    """The per-target count, or the violation (pair, trapped) it raises."""
    try:
        return intercepted_pairs(g, strat, per_target=True)
    except S.InadmissibleError as e:
        return e.pair, e.trapped


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_edited_strategy_is_recounted(seed):
    # after a held count, a strategy differing in one broadcast entry or
    # one hop, or the counted strategy edited in place, runs a pass of its
    # own: its outcome equals a fresh graph's, and an admissible one's count
    # equals the oracle's
    # (a second component and an isolated node hold INF broadcasts, half
    # of the edits are of one, and the count does not read them: only the
    # pass it runs tells the recount)
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=11, n_min=4)
    C = sorted(int(v) for v in rng.choice(g.n, int(rng.integers(1, 4)),
                                          replace=False))
    g = G.from_edges(g.n + 3, list(g.edges()) + [(g.n, g.n + 1)])
    base = S.adjacent_strategy(g, C)
    v = C[int(rng.integers(len(C)))]
    far = base.broadcast[v] >= INF
    t = int(rng.choice(np.flatnonzero(far if rng.random() < 0.5 else
                                      np.arange(g.n) != v)))
    raised = int(base.broadcast[v][t]) + 1 if base.broadcast[v][t] < INF else 1
    hops = [-1, *g.neighbors(v).tolist()]
    hops.remove(int(base.forward[v][t]))
    hop = int(rng.choice(hops))
    with pytest.MonkeyPatch.context() as m:
        calls = counted_passes(m)
        held = outcome(g, base)
        assert outcome(g, edited(base)) == held
        assert calls["passes"] == 1
        for strat in (edited(base, broadcast=(v, t, raised)),
                      edited(base, forward=(v, t, hop)), base):
            if strat is base:
                base.broadcast[v][t] = raised
                base.forward[v][t] = hop
            before = calls["passes"]
            got = outcome(g, strat)
            assert calls["passes"] == before + 1
            assert got == outcome(fresh(g), strat)
            if isinstance(got, I.InterceptionResult):
                pairs = intercepted_pairs_oracle(g, strat)
                assert got.intercepted_ordered == len(pairs)
                assert got.per_target_counts == {
                    u: (sum(1 for (_, w) in pairs if w == u),
                        got.per_target_counts[u][1]) for u in range(g.n)}


def test_interleaved_sets_recount(monkeypatch):
    # S1, S2, S1: naming S2 drops S1's held count with its slot, so the
    # last count runs a pass; the results equal fresh graphs'
    g = G.erdos_renyi(300, 0.012, seed=4)
    S1, S2 = (sorted(C) for C in colluder_sets(g, np.random.default_rng(4)))
    expect = [outcome(fresh(g), S.adjacent_strategy(g, C)) for C in (S1, S2, S1)]
    calls = counted_passes(monkeypatch)
    assert [outcome(g, S.adjacent_strategy(g, C)) for C in (S1, S2, S1)] == expect
    assert calls["passes"] == 3
    assert outcome(g, S.adjacent_strategy(g, S1)) == expect[0]
    assert calls["passes"] == 3


def test_per_target_from_the_held_count(monkeypatch):
    g = G.erdos_renyi(300, 0.012, seed=4)
    C = sorted(colluder_sets(g, np.random.default_rng(4))[0])
    expect = intercepted_pairs(fresh(g), S.adjacent_strategy(g, C),
                               per_target=True)
    calls = counted_passes(monkeypatch)
    plain = intercepted_pairs(g, S.separated_strategy(g, C))
    per_target = intercepted_pairs(g, S.adjacent_strategy(g, C), per_target=True)
    assert calls["passes"] == 1
    assert per_target == expect
    assert replace(per_target, per_target_counts=None) == plain


def test_inadmissible_strategy_is_not_held():
    # a violation toward target 0 raises the same error on each call, and
    # the slot holds no count after it, also where one was held before
    g = G.erdos_renyi(300, 0.012, seed=4)
    comp = G.component_labels(g)
    C = [int(v) for v in np.flatnonzero(comp == comp[0])[1:40:4]]
    base = S.adjacent_strategy(g, C)
    bad = edited(base, forward=(C[0], 0, -1))
    intercepted_pairs(g, base)
    assert "count" in g._memo["slot"][1]
    errors = []
    for _ in range(2):
        with pytest.raises(S.InadmissibleError) as e:
            intercepted_pairs(g, bad)
        errors.append((e.value.pair, e.value.trapped))
        assert "count" not in g._memo["slot"][1]
    assert errors[0] == errors[1] and errors[0][0][1] == 0
    h = fresh(g)
    verdict = S.check_admissible(h, bad)
    assert (verdict.violating_pair, verdict.trap_set) == errors[0]
