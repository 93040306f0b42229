"""The benchmark's workloads: seeded inputs, the timed op, and output checks.

A workload's inputs are a fixed list of *units*, each a short list of ops
(the strategies on one colluder set, or one quick-start graph).  A run makes
whole passes over every unit, so its work does not depend on how fast the
code is.
All inputs derive from the workload seed through `sub_seed`; the library only
receives the generated graphs and sets.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from dvintercept import cli, graph as graphmod, interception, selection

STRATEGIES = ("honest", "independent", "separated", "adjacent")

# Sizes are chosen so that one pass over the units takes about PASS_SECONDS on
# the numpy backend of a 2-CPU machine; see README.md for how they relate to
# the A8 shapes in ROADMAP.md.  SMOKE keeps every code path at a size that runs
# in about a second.
PASS_SECONDS = 30
FULL = {
    "sweep_er": {"n": 250, "p": 0.016, "ks": [4, 9, 18], "units": 8},
    "quickstart_pa": {"n": 50, "m": 2, "k": 10, "units": 26},
    "scale_pa2000": {"n": 2000, "m": 2, "k": 20, "units": 2},
}
SMOKE = {
    "sweep_er": {"n": 40, "p": 0.08, "ks": [2, 3, 4], "units": 1},
    "quickstart_pa": {"n": 16, "m": 2, "k": 3, "units": 2},
    "scale_pa2000": {"n": 60, "m": 2, "k": 4, "units": 1},
}
WORKLOADS = tuple(FULL)


def sub_seed(seed: int, *parts) -> int:
    """Deterministic 63-bit seed for one role of one workload."""
    digest = hashlib.sha256(":".join(map(str, (seed, *parts))).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Cell:
    """One op: a graph, a colluder set (empty for the quick start, which
    selects its own) and a strategy name."""

    graph: int
    colluders: tuple[int, ...]
    strategy: str


@dataclass
class Inputs:
    graphs: list            # dvintercept Graph objects
    units: list             # list of list[Cell]
    # per graph index: component label per node, filled by check_op, so that
    # the checker's own work stays out of the timed set-up
    comps: dict = field(default_factory=dict)


def _components(g) -> np.ndarray:
    adj = csr_matrix((np.ones(g.indices.shape[0]), g.indices, g.indptr), shape=(g.n, g.n))
    return connected_components(adj, directed=False)[1]


def _separated_set(g, order, k: int) -> tuple[int, ...]:
    """First k nodes of `order` with no two adjacent (distance >= 2)."""
    taken = np.zeros(g.n, bool)
    near = np.zeros(g.n, bool)
    for v in order:
        if not near[v]:
            taken[v] = True
            near[v] = True
            near[g.indices[g.indptr[v]:g.indptr[v + 1]]] = True
            if taken.sum() == k:
                break
    return tuple(int(v) for v in np.flatnonzero(taken))


def edge_list_path(name: str, workdir: str) -> str:
    return os.path.join(workdir, f"{name}.edges")


def prepare(name: str, p: dict, seed: int, workdir: str) -> None:
    """Untimed work before set-up: write the edge-list file that
    scale_pa2000's set-up ingests, with shuffled lines and string node ids."""
    if name != "scale_pa2000":
        return
    g0 = graphmod.pref_attach(p["n"], p["m"], seed=sub_seed(seed, name, "graph"))
    rng = np.random.default_rng(sub_seed(seed, name, "file"))
    edges = list(g0.edges())
    with open(edge_list_path(name, workdir), "w", encoding="utf-8") as fh:
        fh.write(f"# pref_attach({p['n']}, {p['m']}) seed {seed}\n")
        for i in rng.permutation(len(edges)):
            u, v = edges[i]
            fh.write(f"as{u} as{v}\n")


def setup(name: str, p: dict, seed: int, workdir: str) -> Inputs:
    """Generate (or ingest the file `prepare` wrote) the graphs and draw the
    colluder sets."""
    graphs, units = [], []
    if name == "sweep_er":
        for u in range(p["units"]):
            g = graphmod.erdos_renyi(p["n"], p["p"], seed=sub_seed(seed, name, "graph", u))
            graphs.append(g)
            order = np.random.default_rng(sub_seed(seed, name, "set", u)).permutation(g.n)
            full = set(_separated_set(g, order, max(p["ks"])))
            # nested prefixes of one draw, in draw order, as the CLI sweeps do
            drawn = [v for v in order if v in full]
            units.append([Cell(u, tuple(sorted(int(v) for v in drawn[:k])), s)
                          for k in p["ks"] for s in STRATEGIES])
    elif name == "quickstart_pa":
        for u in range(p["units"]):
            graphs.append(graphmod.pref_attach(p["n"], p["m"],
                                               seed=sub_seed(seed, name, "graph", u)))
            units.append([Cell(u, (), "adjacent")])
    elif name == "scale_pa2000":
        g = graphmod.load_edge_list(edge_list_path(name, workdir))
        graphs.append(g)
        for u in range(p["units"]):
            order = np.random.default_rng(sub_seed(seed, name, "set", u)).permutation(g.n)
            S = _separated_set(g, order, p["k"])
            units.append([Cell(0, S, s) for s in ("honest", "separated")])
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Inputs(graphs=graphs, units=units)


def run_op(name: str, p: dict, inputs: Inputs, cell: Cell) -> dict:
    """The timed op.  Library functions are looked up at call time, so a
    traced run sees them through its wrappers."""
    g = inputs.graphs[cell.graph]
    out = {}
    S = cell.colluders
    if name == "quickstart_pa":
        S = selection.select(g, selection.SelectionSpec(method="greedy_max", k=p["k"]))
        out["selected"] = [int(v) for v in S]
    strat, label = cli.build_strategy(g, cell.strategy, S)
    res = interception.intercepted_pairs(g, strat)
    out.update(label=label, intercepted_ordered=res.intercepted_ordered,
               total_ordered=res.total_ordered,
               intercepted_unordered=res.intercepted_unordered,
               total_unordered=res.total_unordered)
    return out


def expected_label(strategy: str) -> str:
    return "adjacent_general" if strategy == "adjacent" else strategy


def check_op(name: str, p: dict, inputs: Inputs, cell: Cell, out: dict) -> list[str]:
    """Invariants every correct result satisfies, for any seed."""
    errors = []
    if out["label"] != expected_label(cell.strategy):
        errors.append(f"label {out['label']!r}")
    S = cell.colluders
    if name == "quickstart_pa":
        S = tuple(out["selected"])
        if len(set(S)) != p["k"] or not all(0 <= v < inputs.graphs[cell.graph].n for v in S):
            errors.append(f"selected {S}")
    if cell.graph not in inputs.comps:
        inputs.comps[cell.graph] = _components(inputs.graphs[cell.graph])
    comp = inputs.comps[cell.graph]
    sizes = np.bincount(comp).astype(np.int64)
    honest = sizes - np.bincount(comp[list(S)], minlength=sizes.size) if S else sizes
    total = int((sizes * (sizes - 1)).sum())
    # pairs with a colluder endpoint are always intercepted
    touching = total - int((honest * (honest - 1)).sum())
    io, iu = out["intercepted_ordered"], out["intercepted_unordered"]
    if out["total_ordered"] != total or out["total_unordered"] * 2 != total:
        errors.append(f"totals {out['total_ordered']}/{out['total_unordered']} != {total}")
    if not (touching <= io <= total and touching // 2 <= iu and 2 * iu <= io):
        errors.append(f"intercepted {io}/{iu} outside [{touching}, {total}]")
    return errors


def check_unit(name: str, unit: list, outs: list) -> list[tuple[int, str]]:
    """Cross-op invariants within one unit, as (cell index, message): on a
    separated set the adjacent construction reproduces the separated optimum
    exactly."""
    if name != "sweep_er":
        return []
    separated = {c.colluders: o for c, o in zip(unit, outs)
                 if c.strategy == "separated" and o is not None}
    errors = []
    for ci, (c, o) in enumerate(zip(unit, outs)):
        other = separated.get(c.colluders)
        if c.strategy == "adjacent" and o is not None and other is not None \
                and o["intercepted_ordered"] != other["intercepted_ordered"]:
            errors.append((ci, f"k={len(c.colluders)}: adjacent != separated"))
    return errors
