"""Config-driven experiment runner: build a graph, pick colluder sets, apply
lying strategies across a sweep of set sizes, and emit interception curves
as CSV plus a per-cell summary."""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from dataclasses import dataclass

from . import graph as graphmod
from .graph import Graph, load_edge_list
from .interception import intercepted_pairs
from .selection import SelectionSpec, select
from .strategy import (
    BudgetError,
    Strategy,
    adjacent_strategy,
    honest_strategy,
    independent_strategy,
    separated_strategy,
)

CSV_HEADER = ("graph,n,m,selection,strategy,k,trial,seed,"
              "fraction_ordered,fraction_unordered,runtime_ms")

_SELECT_METHODS = ("random", "top_degree", "greedy_max", "exhaustive")
_STRATEGIES = ("honest", "independent", "separated", "adjacent")
_METRICS = ("ordered", "unordered")

_DEFAULTS = {
    "select": "random",
    "strategy": "separated",
    "trials": "5",
    "seed": "0",
    "metric": "ordered",
}

_KEYS = ("graph", "generate", "select", "strategy", "k", "trials", "seed",
         "metric", "out")


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists every violation."""


@dataclass(frozen=True)
class ExperimentConfig:
    graph_path: str | None
    generate: str | None
    select: tuple[str, ...]
    strategies: tuple[str, ...]
    sweep: tuple[str, ...]  # counts ("18") or percentages ("2%")
    trials: int
    master_seed: int
    metric: str
    out: str | None


def _parse_kv(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected `key = value`")
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    if errors:
        raise ConfigError("; ".join(errors))
    return out


def build_config(mapping: dict[str, str]) -> ExperimentConfig:
    """Validate raw key/value settings, fill defaults, report all violations."""
    errors = []
    for key in mapping:
        if key not in _KEYS:
            errors.append(f"unknown key {key!r}")
    merged = {**_DEFAULTS, **{k: v for k, v in mapping.items() if k in _KEYS}}

    graph_path = merged.get("graph")
    generate = merged.get("generate")
    if bool(graph_path) == bool(generate):
        errors.append("exactly one of `graph` and `generate` is required")

    methods = tuple(s.strip() for s in merged["select"].split(",") if s.strip())
    for m in methods:
        if m == "greedy_min":
            errors.append("select: greedy_min picks its own size; it cannot sweep k")
        elif m not in _SELECT_METHODS:
            errors.append(f"select: unknown method {m!r}")
    strategies = tuple(s.strip() for s in merged["strategy"].split(",") if s.strip())
    for s in strategies:
        if s not in _STRATEGIES:
            errors.append(f"strategy: unknown name {s!r}")

    sweep = tuple(s.strip() for s in merged.get("k", "").split(",") if s.strip())
    if not sweep:
        errors.append("k: at least one sweep value is required")
    for tok in sweep:
        try:
            value = float(tok[:-1]) if tok.endswith("%") else int(tok)
        except ValueError:
            errors.append(f"k: malformed sweep value {tok!r} "
                          "(a count is an integer, a percentage ends in %)")
            continue
        if not math.isfinite(value):
            errors.append(f"k: percentage {tok!r} is not finite")
        elif value < 0:
            errors.append(f"k: negative sweep value {tok!r}")

    trials = master_seed = 0
    try:
        trials = int(merged["trials"])
        if trials < 1:
            errors.append("trials: must be >= 1")
    except ValueError:
        errors.append(f"trials: not an integer ({merged['trials']!r})")
    try:
        master_seed = int(merged["seed"])
    except ValueError:
        errors.append(f"seed: not an integer ({merged['seed']!r})")

    metric = merged["metric"]
    if metric not in _METRICS:
        errors.append(f"metric: must be one of {_METRICS}")

    if errors:
        raise ConfigError("; ".join(errors))
    return ExperimentConfig(
        graph_path=graph_path, generate=generate, select=methods,
        strategies=strategies, sweep=sweep, trials=trials,
        master_seed=master_seed, metric=metric, out=merged.get("out"),
    )


def parse_config(text: str) -> ExperimentConfig:
    return build_config(_parse_kv(text))


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    if cfg.graph_path:
        lines.append(f"graph = {cfg.graph_path}")
    if cfg.generate:
        lines.append(f"generate = {cfg.generate}")
    lines.append(f"select = {','.join(cfg.select)}")
    lines.append(f"strategy = {','.join(cfg.strategies)}")
    lines.append(f"k = {','.join(cfg.sweep)}")
    lines.append(f"trials = {cfg.trials}")
    lines.append(f"seed = {cfg.master_seed}")
    lines.append(f"metric = {cfg.metric}")
    if cfg.out:
        lines.append(f"out = {cfg.out}")
    return "\n".join(lines) + "\n"


def derive_seed(master: int, *parts) -> int:
    """Deterministic 63-bit sub-seed from the master seed and a role tag."""
    tag = ":".join([str(master), *map(str, parts)])
    digest = hashlib.sha256(tag.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _resolve_sweep(sweep, n: int) -> list[int]:
    sizes = []
    for tok in sweep:
        if tok.endswith("%"):
            k = round(n * float(tok[:-1]) / 100.0)
        else:
            k = int(tok)
        if k > n:
            raise ConfigError(f"sweep value {tok!r} exceeds n={n}")
        sizes.append(k)
    return sizes


def build_strategy(g: Graph, name: str, S) -> tuple[Strategy, str]:
    """Instantiate a named strategy; `separated` degrades to the adjacent
    generalization when the set has members at distance < 2 (annotated)."""
    if name == "honest":
        return honest_strategy(g, S), "honest"
    if name == "independent":
        return independent_strategy(g, S), "independent"
    if name == "adjacent":
        return adjacent_strategy(g, S), "adjacent_general"
    if name == "separated":
        try:
            return separated_strategy(g, S), "separated"
        except ValueError:
            return adjacent_strategy(g, S), "separated->adjacent_general"
    raise ConfigError(f"unknown strategy {name!r}")


def _load_graph(cfg: ExperimentConfig) -> tuple[Graph, str]:
    if cfg.graph_path:
        return load_edge_list(cfg.graph_path), cfg.graph_path
    seed = derive_seed(cfg.master_seed, "graph")
    return graphmod.generate(cfg.generate, seed), cfg.generate.replace(",", ";")


def run_experiment(cfg: ExperimentConfig):
    """Execute the full sweep.  Returns (csv text, summary text).

    Per (method, trial) a selection seed is derived from the master seed, so
    every strategy in a trial shares the same colluder set and sweep sizes
    take nested prefixes of one selection order.  Exhaustive optima are not
    nested, so `exhaustive` runs one search per size.
    """
    g, graph_name = _load_graph(cfg)
    sizes = _resolve_sweep(cfg.sweep, g.n)
    kmax = max(sizes)
    rows = []
    for method in cfg.select:
        for trial in range(cfg.trials):
            seed = derive_seed(cfg.master_seed, method, trial)
            picks = {k: select(g, SelectionSpec(method=method, k=k, seed=seed))
                     for k in (sizes if method == "exhaustive" else [kmax])}
            for k in sizes:
                S = picks.get(k, picks[kmax])[:k]
                for name in cfg.strategies:
                    start = time.perf_counter()
                    strat, label = build_strategy(g, name, S)
                    res = intercepted_pairs(g, strat)
                    ms = (time.perf_counter() - start) * 1000.0
                    rows.append((
                        graph_name, g.n, g.m, method, label, k, trial, seed,
                        float(res.fraction_ordered),
                        float(res.fraction_unordered), ms,
                    ))
    rows.sort(key=lambda r: (r[3], r[4], r[5], r[6]))
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]},{r[5]},{r[6]},"
                     f"{r[7]},{r[8]:.6f},{r[9]:.6f},{r[10]:.3f}")
    csv_text = "\n".join(lines) + "\n"

    idx = 8 if cfg.metric == "ordered" else 9
    cells: dict[tuple, list[float]] = {}
    for r in rows:
        cells.setdefault((r[3], r[4], r[5]), []).append(r[idx])
    slines = [f"# summary (metric={cfg.metric}): selection strategy k mean std"]
    for (method, label, k), vals in sorted(cells.items()):
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        slines.append(f"{method} {label} {k} {mean:.6f} {var ** 0.5:.6f}")
    return csv_text, "\n".join(slines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dvintercept",
        description="interception experiments on distance-vector routing networks",
    )
    parser.add_argument("--config", help="key = value config file (overrides flags)")
    parser.add_argument("--graph", help="edge-list file path")
    parser.add_argument("--generate", help="generator spec, e.g. erdos_renyi(1000,0.004)")
    parser.add_argument("--select", help="comma-separated selection methods")
    parser.add_argument("--strategy", help="comma-separated strategy names")
    parser.add_argument("--k", help="comma-separated sweep sizes (counts or 'N%%')")
    parser.add_argument("--trials", help="trials per cell")
    parser.add_argument("--seed", help="master seed")
    parser.add_argument("--metric", choices=_METRICS, help="summary metric")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    args = parser.parse_args(argv)

    try:
        mapping = {k: v for k, v in vars(args).items()
                   if k != "config" and v is not None}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                mapping.update(_parse_kv(fh.read()))
        cfg = build_config(mapping)
        csv_text, summary = run_experiment(cfg)
    except (BudgetError, ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(summary, end="")
    else:
        print(csv_text, end="")
        print(summary, end="", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
