"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
from workloads import FULL, WORKLOADS  # noqa: E402


def _copy(tmp_path, with_sources=True):
    """A checkout in tmp_path holding the benchmark (and the library sources),
    so that a test's outputs and edits stay out of the repository."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp_path


def _run(checkout, *args, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=checkout, timeout=timeout)


def _last(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_smoke_emits_every_metric_with_its_unit(tmp_path):
    result = _last(_run(_copy(tmp_path), "--smoke", "--seconds", "1"))
    assert result["correct"] and result["failed"] == 0
    contract = _contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    metrics = result["metrics"]
    for w in WORKLOADS:
        for m in contract["end_to_end"] + contract["per_layer"]:
            assert metrics[f"{w}.{m['name']}"]["unit"] == m["unit"], (w, m)
        assert f"{w}.failed_frac.trace0" in metrics
        assert f"{w}.trace.overhead" in metrics
        assert metrics[f"{w}.setup_s"]["value"] > 0
        assert metrics[f"{w}.ops_per_kref"]["value"] > 0


def test_single_run_prints_exactly_the_contract_metrics(tmp_path):
    contract = _contract()
    checkout = _copy(tmp_path)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _last(_run(checkout, "--smoke", "--workload", "quickstart_pa",
                            "--seed", "3", "--seconds", "1", "--trace", str(trace)))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in contract[key]}
        assert result["attempted"] >= 1


def test_corrupted_expected_value_counts_as_failed(tmp_path):
    checkout = _copy(tmp_path)
    expected = checkout / "perfbench" / "expected.json"
    common = ("--smoke", "--workload", "sweep_er", "--seed", "0")
    assert _run(checkout, "--record", *common).returncode == 0
    clean = _last(_run(checkout, "--seconds", "1", *common))
    assert clean["failed"] == 0 and clean["correct"]

    data = json.loads(expected.read_text())
    data["sweep_er"]["seeds"]["0"][0][1]["intercepted_ordered"] += 1
    expected.write_text(json.dumps(data))
    proc = _run(checkout, "--seconds", "1", *common)
    bad = _last(proc)
    assert bad["failed"] > 0 and not bad["correct"]
    frac = [line for line in proc.stdout.splitlines() if line.startswith("failed_frac")]
    assert float(frac[0].split()[1]) > 0


def test_committed_expectations_cover_default_and_heldout_seeds():
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    for w in WORKLOADS:
        assert data[w]["params"] == FULL[w]
        seeds = data[w]["seeds"]
        assert {"0", "99"} <= set(seeds)
        for outs in seeds.values():
            assert len(outs) == FULL[w]["units"]


def test_fails_without_library_sources(tmp_path):
    proc = _run(_copy(tmp_path, with_sources=False), "--workload", "sweep_er",
                "--seed", "1", "--seconds", "1", "--trace", "0", timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
