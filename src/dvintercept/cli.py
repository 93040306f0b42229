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
from .graph import Graph, _int_text, _real_text, load_edge_list
from .interception import intercepted_pairs
from .selection import _METHODS, SelectionSpec, select
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

# each setting is the config key and the flag --key: key -> (default, or
# None for one that is unset until given; help)
_SETTINGS = {
    "graph": (None, "edge-list file path"),
    "generate": (None, "generator spec, e.g. erdos_renyi(1000,0.004)"),
    "select": ("random", "comma-separated selection methods"),
    "strategy": ("separated", "comma-separated strategy names"),
    "k": (None, "comma-separated sweep sizes (counts or 'N%%')"),
    "trials": ("5", "trials per cell"),
    "seed": ("0", "master seed"),
    "metric": ("ordered", "summary metric: ordered or unordered"),
    "out": (None, "CSV output path (default: stdout)"),
}

# strategy name -> (builder, CSV label)
_STRATEGIES = {
    "honest": (honest_strategy, "honest"),
    "independent": (independent_strategy, "independent"),
    "separated": (separated_strategy, "separated"),
    "adjacent": (adjacent_strategy, "adjacent_general"),
}
_METRICS = ("ordered", "unordered")


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
    """Parse `key = value` lines; '#' starts a comment.  ConfigError lists
    every line that is not `key = value` and every key that repeats."""
    out: dict[str, str] = {}
    where: dict[str, int] = {}  # key -> line that set it
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected `key = value`")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key in where:
            errors.append(f"line {lineno}: key {key!r} repeats line {where[key]}")
            continue
        where[key] = lineno
        out[key] = value.strip()
    if errors:
        raise ConfigError("; ".join(errors))
    return out


def _names(key: str, value: str, what: str, errors: list) -> tuple[str, ...]:
    """The comma-separated entries of `value`; a violation in `errors` when
    there is none or one repeats, since each would repeat its rows."""
    names = tuple(s.strip() for s in value.split(",") if s.strip())
    if not names:
        errors.append(f"{key}: at least one {what} is required")
    for name in sorted({s for s in names if names.count(s) > 1}):
        errors.append(f"{key}: {what} {name!r} is repeated")
    return names


def _sweep_value(tok: str) -> tuple[float, bool]:
    """(number, whether it is a percentage) of a sweep value: a count
    (`graph._int_text`), or the float text before a final % (`_real_text`)."""
    if tok.endswith("%"):
        return _real_text(tok[:-1], "k:"), True
    return _int_text(tok, "k:"), False


def build_config(mapping: dict[str, str]) -> ExperimentConfig:
    """Validate raw key/value settings, fill defaults, report all violations."""
    errors = [f"unknown key {key!r}" for key in mapping if key not in _SETTINGS]
    merged = {key: mapping.get(key, default)
              for key, (default, _) in _SETTINGS.items()}

    graph_path = merged["graph"]
    generate = merged["generate"]
    if bool(graph_path) == bool(generate):
        errors.append("exactly one of `graph` and `generate` is required")

    methods = _names("select", merged["select"], "method", errors)
    for m in methods:
        if m == "greedy_min":
            errors.append("select: greedy_min picks its own size; it cannot sweep k")
        elif m not in _METHODS:
            errors.append(f"select: unknown method {m!r}")
    strategies = _names("strategy", merged["strategy"], "name", errors)
    for s in strategies:
        if s not in _STRATEGIES:
            errors.append(f"strategy: unknown name {s!r}")

    sweep = _names("k", merged["k"] or "", "sweep value", errors)
    for tok in sweep:
        try:
            value, _ = _sweep_value(tok)
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
        trials = _int_text(merged["trials"], "trials:")
        if trials < 1:
            errors.append("trials: must be >= 1")
    except ValueError as exc:
        errors.append(str(exc))
    try:
        master_seed = _int_text(merged["seed"], "seed:")
    except ValueError as exc:
        errors.append(str(exc))

    metric = merged["metric"]
    if metric not in _METRICS:
        errors.append(f"metric: must be one of {_METRICS}")

    if errors:
        raise ConfigError("; ".join(errors))
    return ExperimentConfig(
        graph_path=graph_path, generate=generate, select=methods,
        strategies=strategies, sweep=sweep, trials=trials,
        master_seed=master_seed, metric=metric, out=merged["out"],
    )


def parse_config(text: str) -> ExperimentConfig:
    return build_config(_parse_kv(text))


def derive_seed(master: int, *parts) -> int:
    """Deterministic 63-bit sub-seed from the master seed and a role tag."""
    tag = ":".join([str(master), *map(str, parts)])
    digest = hashlib.sha256(tag.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _resolve_sweep(sweep, n: int) -> list[int]:
    """The set size of each sweep value at n; ConfigError at the first that
    exceeds n or gives the size of an earlier one, whose rows it would
    repeat."""
    sizes: dict[int, str] = {}  # size -> the value that gave it
    for tok in sweep:
        value, percent = _sweep_value(tok)
        k = round(n * value / 100.0) if percent else value
        if k > n:
            raise ConfigError(f"sweep value {tok!r} exceeds n={n}")
        if k in sizes:
            raise ConfigError(f"sweep values {sizes[k]!r} and {tok!r} both "
                              f"give k={k} at n={n}")
        sizes[k] = tok
    return list(sizes)


def build_strategy(g: Graph, name: str, S) -> tuple[Strategy, str]:
    """Instantiate a named strategy; `separated` degrades to the adjacent
    generalization when the set has members at distance < 2 (annotated)."""
    if name not in _STRATEGIES:
        raise ConfigError(f"unknown strategy {name!r}")
    build, label = _STRATEGIES[name]
    try:
        return build(g, S), label
    except ValueError:
        if name != "separated":
            raise
        return adjacent_strategy(g, S), "separated->adjacent_general"


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
    for key, (default, text) in _SETTINGS.items():
        parser.add_argument(f"--{key}", help=text if default is None
                            else f"{text} (default: {default})")
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
