"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Each workload runs once at a tiny size, untraced and traced.  The tests
check that every metric ``BENCHMARK.json`` declares gets a value, that
the output checks pass, and that a traced run's per-layer self times
are not negative and do not add up to more than its traced wall time.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402

run._check_source()

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: Workload sizes small enough for a smoke test (one journey each);
#: paper_runs needs enough heartbeats to fill its apps' rate windows.
SCALE = {"paper_runs": 0.4}


@pytest.fixture(scope="module")
def probe():
    probe = speed.SpeedProbe().start()
    yield probe
    probe.stop()


def _measure(workload, trace, probe):
    result, detail = run.measure(
        workload,
        seed=3,
        seconds=0.0,
        trace=trace,
        probe=probe,
        scale=SCALE.get(workload, 0.1),
    )
    assert detail["problems"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    # ``run.measure`` looks up a value for every declared metric.
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    return result, detail


def test_benchmark_json_names_the_workloads():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_emits_the_end_to_end_metrics(workload, probe):
    result, detail = _measure(workload, False, probe)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert detail["provenance"]["seed"] == 3
    assert detail["provenance"]["size"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_self_times_fit_in_wall(workload, probe):
    result, detail = _measure(workload, True, probe)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in run.LAYERS:
        assert metrics[f"layer.{layer}.self_s"] >= 0.0, layer
    # ``other`` is the traced wall time no span covers: negative when
    # the layers' self times add up to more than the journeys took.
    assert metrics["layer.other.self_s"] >= -1e-6 * metrics["trace.wall_s"]
    assert metrics["trace.spans"] > 0
    assert metrics["sim.step.calls"] > 0
    table = detail["self_time_table"]
    assert {row["layer"] for row in table} == set(run.LAYERS) | {"other"}


def test_traced_spans_restore_the_originals():
    import spans
    from repro.sim.engine import Simulation

    original = Simulation.__dict__["step"]
    tracer = spans.install()
    assert Simulation.__dict__["step"] is not original
    tracer.uninstall()
    assert Simulation.__dict__["step"] is original


def test_self_time_excludes_children():
    import spans

    tracer = spans.Tracer()
    clock = iter([0.0, 1.0, 3.0, 4.0]).__next__
    spans._clock, saved = clock, spans._clock
    try:
        inner = tracer.timed("b.inner", lambda: None)
        outer = tracer.timed("a.outer", inner)
        outer()
    finally:
        spans._clock = saved
    stats = tracer.spans().stats([(0.0, 10.0)])
    assert stats["a.outer"]["total"] == 4.0
    assert stats["a.outer"]["self"] == 2.0
    assert stats["b.inner"]["self"] == 2.0
    assert stats["a.outer"]["root"] == 4.0
    assert stats["b.inner"]["root"] == 0.0
