"""Telemetry overhead: the observation layer must be near-free.

Runs the same Figure 5.1-style HARS-E run with telemetry off and on and
asserts the tentpole's two acceptance properties:

* **identity** — metrics *and* traces are bit-identical with the
  telemetry hub attached (observation only, zero result drift);
* **overhead** — the instrumented run costs at most 10 % extra
  wall-clock (best-of-``REPEATS`` timing, same
  harness as ``bench_kernel_overhead``).

Also prints a short summary of what the registry actually collected, via
the shared :func:`conftest.export_telemetry` helper.
"""

import dataclasses
import time

from conftest import bench_units, export_telemetry, run_once

from repro.core.calibration import calibrate
from repro.experiments.runner import (
    RunConfig,
    RunShape,
    measure_max_rate,
    run,
)
from repro.platform.spec import odroid_xu3
from repro.telemetry import flatten_snapshot

#: Timed repetitions per configuration (best-of, to shed scheduler noise).
REPEATS = 3

#: Acceptance ceiling: instrumented / plain wall-clock.
MAX_OVERHEAD = 1.10


def _snapshot(outcome):
    """Everything observable from a run, in comparable form."""
    return (
        dataclasses.asdict(outcome.metrics),
        tuple(
            (name, outcome.trace.points(name))
            for name in sorted(outcome.trace.app_names)
        ),
    )


def _timed_run(shape, config):
    best = float("inf")
    outcome = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        outcome = run("hars-e", shape, config)
        best = min(best, time.perf_counter() - start)
    return outcome, best


def _compare(units):
    spec = odroid_xu3()
    shape = RunShape(benchmark="swaptions", n_units=units)
    # Warm the shared memoizations (baseline max-rate, calibration) so
    # neither configuration pays them inside the timed region.
    measure_max_rate(spec, shape)
    calibrate(spec)
    off_config = RunConfig(spec=spec)
    on_config = off_config.with_(telemetry=True)
    run("hars-e", shape, off_config)  # warmup (imports, allocs)
    run("hars-e", shape, on_config)
    off_outcome, off_s = _timed_run(shape, off_config)
    on_outcome, on_s = _timed_run(shape, on_config)
    return off_outcome, off_s, on_outcome, on_s


def test_telemetry_overhead(benchmark):
    units = bench_units() or 400
    off_outcome, off_s, on_outcome, on_s = run_once(
        benchmark, _compare, units
    )
    overhead = on_s / off_s
    print()
    print(
        f"HARS-E swaptions x{units}: "
        f"off {off_s:.2f}s, on {on_s:.2f}s, overhead {overhead:.3f}x"
    )
    flat = flatten_snapshot(on_outcome.telemetry.registry.snapshot())
    print(f"registry: {len(flat)} samples collected")
    print(export_telemetry(on_outcome, "summary"))
    # Telemetry is observation-only: bit-identical metrics AND traces,
    # not approximately equal.
    assert off_outcome.telemetry is None
    assert _snapshot(on_outcome) == _snapshot(off_outcome)
    # And it must be collected — a free no-op registry would also pass
    # the identity check.
    assert flat[("heartbeats_total", (("app", "swaptions"),))] == units
    assert overhead <= MAX_OVERHEAD, (
        f"telemetry must cost <= {MAX_OVERHEAD:.0%} of the plain run, "
        f"got {overhead:.3f}x"
    )
