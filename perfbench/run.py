#!/usr/bin/env python3
"""Benchmark of the dvintercept library: three seeded workloads, end-to-end
metrics from untraced runs, per-layer metrics from traced runs.

Usage (from the repository root):

    python3 perfbench/run.py                      # every workload, one after
                                                  # another, untraced then traced
    python3 perfbench/run.py --workload sweep_er --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --record --seed 0    # re-record expected outputs
    python3 perfbench/run.py --smoke --seconds 1  # tiny sizes, for the tests

A single-workload run prints one line per metric, an ``env`` line, and, as
its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the numpy import to take effect
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
OUT = os.path.join(HERE, "out")  # spans, results and scale_pa2000's edge list
DEFAULT_SEED = 0  # expected.json also records the held-out seed 99
SETUP_REPEATS = 3
END_TO_END = (("setup_s", "s"), ("ops_per_kref", "1/kref"), ("op_ref.p50", "ref"),
              ("peak_rss_mb", "MB"))


class Reference:
    """A fixed computation timed before and after every op.  The speed of a
    shared host drifts by 20-40 % over tens of seconds, on every CPU at once;
    an op's time divided by the reference's time, measured on the same CPU
    around it, cancels that drift and keeps what the code costs.  The mix of
    an integer loop and small numpy sorts resembles an op's, and must never
    change: the benchmark's numbers are in its units."""

    def __init__(self):
        import numpy

        self._np = numpy
        self._a = numpy.random.default_rng(0).random(5000)

    def _once(self) -> int:
        s = 0
        for i in range(20000):
            s += i * i
        for _ in range(20):
            self._np.sort(self._a)
        return s

    def time(self, op_s: float) -> float:
        """Median of the reference's timings over about 2 % of the op's time
        and at least three, so that one interrupt does not count and a long
        op is weighed by a steady figure."""
        times = []
        while len(times) < 3 or sum(times) < 0.02 * op_s:
            t = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - t)
        return statistics.median(times)


def _import_library():
    """Import the library from this checkout's `src`, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dvintercept", "__init__.py")):
        raise SystemExit(f"error: no dvintercept sources under {src}")
    sys.path.insert(0, src)
    import dvintercept

    if not os.path.abspath(dvintercept.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: dvintercept imported from {dvintercept.__file__}")
    import tracing
    import workloads

    return workloads, tracing


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    from dvintercept import kernels

    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": have_numba,
        "backend": kernels.backend(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def load_expected(workload: str, params: dict, seed: int):
    """Recorded outputs per unit and op, or None when this workload, size and
    seed have no record."""
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            entry = json.load(fh).get(workload)
    except FileNotFoundError:
        return None
    if not entry or entry["params"] != params:
        return None
    return entry["seeds"].get(str(seed))


def save_expected(workload: str, params: dict, seed: int, outs) -> None:
    data = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            data = json.load(fh)
    entry = data.get(workload)
    if not entry or entry["params"] != params:
        entry = {"params": params, "seeds": {}}
    entry["seeds"][str(seed)] = outs
    data[workload] = entry
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_one(args, W, T, import_s: float) -> dict:
    """Set up and measure one workload in this process."""
    params = (W.SMOKE if args.smoke else W.FULL)[args.workload]
    os.makedirs(OUT, exist_ok=True)
    W.prepare(args.workload, params, args.seed, OUT)
    tracer = T.Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    if tracer:
        T.install(tracer)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            with span("setup"):
                inputs = W.setup(args.workload, params, args.seed, OUT)
            setup_times.append(time.perf_counter() - t)
        expected = None if args.record else load_expected(
            args.workload, params, args.seed)

        # fixed work, so that a faster commit measures the same ops: whole
        # passes over every unit, as many as fit --seconds at the nominal pass
        # length
        passes = 1 if args.record else max(1, round(args.seconds / W.PASS_SECONDS))
        reference = Reference()
        ref_before = reference.time(0.0)
        op_times, ref_times, failures, outs_by_unit = [], [], [], {}
        attempted = 0
        for ui, unit in list(enumerate(inputs.units)) * passes:
            outs = []
            for ci, cell in enumerate(unit):
                if tracer:
                    tracer.op = attempted
                attempted += 1
                t = time.perf_counter()
                try:
                    with span("op"):
                        out = W.run_op(args.workload, params, inputs, cell)
                except Exception as exc:  # a raising op fails; the run goes on
                    op_times.append(None)
                    outs.append(None)
                    failures.append([attempted - 1, ui, ci,
                                     [f"{type(exc).__name__}: {exc}"]])
                    continue
                op_times.append(time.perf_counter() - t)
                # the drift during a long op is closer to the mean of the
                # reference before and after it than to either one
                ref_after = reference.time(op_times[-1])
                ref_times.append((ref_before + ref_after) / 2)
                ref_before = ref_after
                outs.append(out)
                errors = W.check_op(args.workload, params, inputs, cell, out)
                # with no record for this seed, a repeated unit must
                # repeat its outputs
                want = expected[ui][ci] if expected else outs_by_unit.get(ui, outs)[ci]
                if out != want:
                    errors.append(f"output {out} != expected {want}")
                if errors:
                    failures.append([attempted - 1, ui, ci, errors])
            first = attempted - len(unit)
            for ci, err in W.check_unit(args.workload, unit, outs):
                failures.append([first + ci, ui, ci, [err]])
            outs_by_unit.setdefault(ui, outs)
    finally:
        if tracer:
            tracer.op = -1
            tracer.unpatch()

    done = [t for t in op_times if t is not None]
    failed = len({f[0] for f in failures})
    # op cost in reference runs: op time over the reference time around it
    cost = [t / r for t, r in zip(done, ref_times)]
    ops_per_kref = 1000.0 * len(cost) / sum(cost) if cost else 0.0
    wall = {"wall.ops_per_s": len(done) / sum(done) if done else 0.0,
            "wall.op_s.p50": statistics.median(done) if done else 0.0,
            "reference_s.p50": statistics.median(ref_times) if ref_times else 0.0}
    if args.trace:
        metrics = T.layer_metrics(tracer, len(done), SETUP_REPEATS, ops_per_kref)
        table = T.self_time_table(tracer, len(done))
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.jsonl"))
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_kref": ops_per_kref,
            "op_ref.p50": statistics.median(cost) if cost else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        table = []
    if args.record and not failures:
        save_expected(args.workload, params, args.seed,
                      [outs_by_unit[i] for i in range(len(inputs.units))])
    return {"env": environment(), "attempted": attempted, "failed": failed,
            "failures": failures[:20], "samples": len(done), "metrics": metrics,
            "wall": wall, "table": table}


def print_result(res: dict) -> None:
    for line in res["table"]:
        print(line)
    for f in res["failures"]:
        print(f"FAILED op {f[0]} (unit {f[1]}, cell {f[2]}): {'; '.join(f[3])}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"{name:38s} {m['value']:.6g} {m['unit']}")
    print(f"{'op.samples':38s} {res['samples']} count")
    for name, value in res["wall"].items():
        print(f"{name:38s} {value:.6g} {'1/s' if name.endswith('per_s') else 's'}")
    print(f"{'failed_frac':38s} {res['failed'] / res['attempted']:.6g} ratio")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))


def run_all(args, workloads) -> int:
    """Run every workload in its own fresh process, one after another,
    untraced then traced, and print a summary with the tracing overhead."""
    summary, ok, attempted, failed = {}, True, 0, 0
    for w in workloads:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            print(f"== {w} trace={trace}")
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                raise SystemExit(f"error: {w} trace={trace} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
            ok &= last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            summary.setdefault(w, {})[f"env.trace{trace}"] = env
            for name, m in last["metrics"].items():
                summary[w][name] = m
            summary[w][f"failed_frac.trace{trace}"] = {
                "value": last["failed"] / last["attempted"], "unit": "ratio"}
    print(f"\n{'workload':14s} {'setup_s':>8s} {'ops/kref':>8s} {'op_ref.p50':>10s} "
          f"{'rss MB':>7s} {'failed':>7s} {'traced':>8s} {'overhead':>9s}")
    for w, m in summary.items():
        plain, traced = m["ops_per_kref"]["value"], m["trace.ops_per_kref"]["value"]
        m["trace.overhead"] = {"value": (plain - traced) / plain if plain else 0.0,
                               "unit": "ratio"}
        print(f"{w:14s} {m['setup_s']['value']:8.3f} {plain:8.3f} "
              f"{m['op_ref.p50']['value']:10.2f} {m['peak_rss_mb']['value']:7.1f} "
              f"{m['failed_frac.trace0']['value']:7.3f} {traced:8.3f} "
              f"{100 * m['trace.overhead']['value']:8.1f}%")
    with open(os.path.join(OUT, "results.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": summary},
                  fh, indent=1)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {f"{w}.{k}": v for w, m in summary.items()
                                  for k, v in m.items() if not k.startswith("env.")}}))
    return 0


def main(argv=None) -> int:
    W, T = _import_library()
    import_s = time.perf_counter() - _T0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--record", action="store_true",
                        help="run every unit once and record its outputs")
    args = parser.parse_args(argv)
    if args.record:
        names = W.WORKLOADS if args.workload == "all" else (args.workload,)
        for w in names:
            args.workload = w
            res = run_one(args, W, T, import_s)
            print_result(res)
            if res["failures"]:
                return 1
        return 0
    if args.workload == "all":
        return run_all(args, W.WORKLOADS)
    print_result(run_one(args, W, T, import_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
