"""The traced benchmark run patches library functions by name; a renamed
patch point must fail here, not only in a traced run."""

import importlib.util
from pathlib import Path

import dvintercept.strategy as S

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_patch_points_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = S.rho_star_plan
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert S.rho_star_plan is not original
    finally:
        tracer.unpatch()
    assert S.rho_star_plan is original
