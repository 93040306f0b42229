"""Span recorder for traced benchmark runs.

The tracer wraps library functions at the name their callers look up (a
module attribute such as ``kernels.sync_column`` or the name a module imported
with ``from .graph import distance_avoiding``), so no library code changes.
Each call becomes one span ``[name, start, end, parent, op]``, held in memory
and written out when the run ends.  Counters that only the return value shows
(sync rounds, reached nodes) are accumulated by per-function hooks.

Memory is sampled, not traced: tracemalloc would slow the wrapped calls about
threefold, so a thread reads the resident set size every 2 ms instead.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks_mb: dict[str, float] = defaultdict(float)
        self.op = -1  # -1 outside the timed ops, else the index of the running op
        self.rss = RssSampler()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name: str):
        """Context manager recording one span around the benchmark's own code."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                           self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx][START] = start
        self.spans[idx][END] = end

    def wrap(self, name, fn, after=None, memory: str | None = None):
        """Return `fn` wrapped in a span.  `name` is a string or a function of
        the call's arguments; `after(tracer, args, kwargs, result)` updates
        counters; `memory` names the key for the peak resident-set growth
        inside the call."""
        def wrapper(*args, **kwargs):
            idx = self._open(name(*args, **kwargs) if callable(name) else name)
            base = self.rss.begin() if memory else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory:
                    grown = self.rss.end(base)
                    self.peaks_mb[memory] = max(self.peaks_mb[memory], grown)
                self._close(idx, start, end)
            if after is not None and self.op >= 0:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name, after=None, memory=None) -> None:
        """Replace `module.attr` by a traced wrapper.  A missing attribute
        raises, so a renamed patch point fails the run instead of reading as
        zero calls."""
        fn = getattr(module, attr)
        self._patched.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn, after, memory))

    def unpatch(self) -> None:
        """Restore every patched function and stop the memory sampler."""
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
        self.rss.stop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP]}) + "\n")

    def totals(self):
        """Per span name over the timed ops: (calls, self seconds, inclusive
        seconds).  A span's self time is its duration minus the durations of
        its direct children, which nest strictly because only the main thread
        records spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(self.spans):
            if s[OP] < 0:
                continue
            dur = s[END] - s[START]
            row = out[s[NAME]]
            row[0] += 1
            row[1] += dur - child[i]
            row[2] += dur
        return out


class RssSampler:
    """Samples this process's resident set size on a thread; `begin` and `end`
    bracket one call and give the peak growth over the size at its start."""

    def __init__(self, interval: float = 0.002):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._interval = interval
        self._lock = threading.Lock()
        self._peak = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def read(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self._page

    def _loop(self) -> None:
        while not self._done.wait(self._interval):
            r = self.read()
            with self._lock:
                self._peak = max(self._peak, r)

    def begin(self) -> int:
        base = self.read()
        with self._lock:
            self._peak = base
        return base

    def end(self, base: int) -> float:
        r = self.read()
        with self._lock:
            peak = max(self._peak, r)
        return (peak - base) / 2**20

    def stop(self) -> None:
        self._done.set()
        self._thread.join(timeout=5)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.start, time.perf_counter())
        return False


def _sync_counts(tracer, args, kwargs, result):
    rounds = int(result[1])
    tracer.counters["kernels.sync_column.rounds"] += rounds
    # computed, not measured: each round scans every directed edge once,
    # plus the final round that detects the fixpoint
    tracer.counters["kernels.sync_column.edge_visits"] += (rounds + 1) * len(args[1])


def _reach_counts(tracer, args, kwargs, result):
    tracer.counters["kernels.reach.reached"] += int(result.sum())


def _select_counts(tracer, args, kwargs, result):
    tracer.counters["selection.n"] += args[0].n
    tracer.counters["selection.k"] += len(result)


def install(tracer: Tracer) -> None:
    """Patch every traced library function where its callers look it up."""
    from dvintercept import (cli, graph, interception, kernels, protocol,
                             selection, strategy)

    for k in ("bfs", "path_cover"):
        tracer.patch(kernels, k, f"kernels.{k}")
    tracer.patch(kernels, "sync_column", "kernels.sync_column", _sync_counts)
    tracer.patch(kernels, "reach", "kernels.reach", _reach_counts)
    tracer.patch(strategy, "distance_avoiding", "graph.distance_avoiding")
    for mod in (strategy, interception):
        tracer.patch(mod, "component_labels", "graph.component_labels")
    tracer.patch(strategy, "rho_star_plan", "strategy.rho_star_plan")
    tracer.patch(interception, "check_admissible", "strategy.check_admissible")
    tracer.patch(protocol, "validate_broadcasts", "protocol.validate_broadcasts")
    tracer.patch(cli, "build_strategy", lambda g, name, S: f"strategy.build.{name}",
                 memory="strategy.peak_mb")
    tracer.patch(interception, "intercepted_pairs", "interception.intercepted_pairs",
                 memory="interception.peak_mb")
    tracer.patch(selection, "shortest_path_coverage", "selection.coverage")
    tracer.patch(selection, "select", "selection.greedy", _select_counts)
    for gen in ("erdos_renyi", "watts_strogatz", "pref_attach"):
        tracer.patch(graph, gen, "graph.generate")
    tracer.patch(graph, "load_edge_list", "graph.ingest")


# (metric name, unit) of every per-layer metric a traced run reports
PER_LAYER = (
    [(f"kernels.{k}.{x}", "count" if x == "calls" else "s")
     for k in ("sync_column", "reach", "bfs", "path_cover") for x in ("calls", "s")]
    + [("kernels.sync_column.rounds", "count"),
       ("kernels.sync_column.edge_visits", "count.computed"),
       ("kernels.reach.reached", "count")]
    + [(f"strategy.build.{b}.s", "s")
       for b in ("honest", "independent", "separated", "adjacent")]
    + [(f"{k}.{x}", "count" if x == "calls" else "s")
       for k in ("graph.distance_avoiding", "strategy.rho_star_plan",
                 "strategy.check_admissible", "selection.coverage",
                 "graph.component_labels")
       for x in ("calls", "s")]
    + [("protocol.validate_broadcasts.s", "s"),
       ("interception.count_s", "s"),
       ("selection.greedy_s", "s"),
       ("selection.reeval_per_pick", "evals/pick"),
       ("interception.peak_mb", "MB"),
       ("strategy.peak_mb", "MB"),
       ("graph.generate_s", "s"),
       ("graph.ingest_s", "s"),
       ("trace.ops_per_kref", "1/kref")]
)


def layer_metrics(tracer: Tracer, ops: int, setups: int, ops_per_kref: float) -> dict:
    """Per-layer metrics of a traced run.  Counts and times are per completed
    op; generate and ingest times are per set-up; peaks are maxima."""
    tot = tracer.totals()
    zero = (0, 0.0, 0.0)
    per = 1.0 / max(ops, 1)
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tot.get(base, zero)[0] * per
        elif field == "s":
            values[name] = tot.get(base, zero)[1] * per
    for key in ("kernels.sync_column.rounds", "kernels.sync_column.edge_visits",
                "kernels.reach.reached"):
        values[key] = tracer.counters[key] * per

    spans = tracer.spans
    # inclusive intercepted_pairs time minus its admissibility-check children
    check_in_count = sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "strategy.check_admissible" and s[OP] >= 0 and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "interception.intercepted_pairs")
    values["interception.count_s"] = (
        tot.get("interception.intercepted_pairs", zero)[2] - check_in_count) * per
    values["selection.greedy_s"] = tot.get("selection.greedy", zero)[2] * per
    picks = tracer.counters["selection.k"]
    values["selection.reeval_per_pick"] = (
        (tot.get("selection.coverage", zero)[0] - tracer.counters["selection.n"]) / picks
        if picks else 0.0)
    values["interception.peak_mb"] = tracer.peaks_mb["interception.peak_mb"]
    values["strategy.peak_mb"] = tracer.peaks_mb["strategy.peak_mb"]
    for span_name, key in (("graph.generate", "graph.generate_s"),
                           ("graph.ingest", "graph.ingest_s")):
        values[key] = sum(s[END] - s[START] for s in spans
                          if s[NAME] == span_name and s[OP] < 0) / max(setups, 1)
    values["trace.ops_per_kref"] = ops_per_kref
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def self_time_table(tracer: Tracer, ops: int) -> list[str]:
    """Per span name: calls, self and inclusive seconds per op, and the self
    share of the total op time, sorted by self time."""
    tot = tracer.totals()
    op_total = tot.get("op", (0, 0.0, 0.0))[2] or 1.0
    per = 1.0 / max(ops, 1)
    lines = [f"{'span':34s} {'calls/op':>10s} {'self s/op':>10s} "
             f"{'incl s/op':>10s} {'self %':>7s}"]
    for name, (calls, self_s, incl) in sorted(tot.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:34s} {calls * per:10.1f} {self_s * per:10.4f} "
                     f"{incl * per:10.4f} {100.0 * self_s / op_total:6.1f}%")
    return lines
