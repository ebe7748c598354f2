"""Kernel identity gate: the native-size HARS-E run against its golden digest.

The simulator has one tick path and one planner path.  This benchmark
runs the Figure 5.1-style HARS-E swaptions run at native size (400
heartbeats) and asserts that its metrics and trace hash to the digest
recorded in ``tests/golden/digests.json`` — byte for byte, not
approximately — then prints the best-of wall time.

With ``REPRO_BENCH_UNITS`` set to another size there is no recorded
digest; the run is then checked for determinism instead (two runs, one
digest).
"""

import dataclasses
import time

from conftest import bench_units, run_once

from repro.core.calibration import calibrate
from repro.experiments.runner import RunConfig, measure_max_rate, run
from repro.platform.spec import odroid_xu3
from tests.golden import KERNEL_OVERHEAD_SHAPE, load_golden, outcome_digest

#: Timed repetitions (best-of, to shed scheduler noise).
REPEATS = 3

#: The golden entry recorded for the native-size run.
GOLDEN_NAME = "hars-e-swaptions-x400"


def _timed_digests(shape):
    spec = odroid_xu3()
    # Warm the shared memoizations (baseline max-rate, calibration) so
    # the timed region holds the run alone.
    measure_max_rate(spec, shape)
    calibrate(spec)
    config = RunConfig(spec=spec)
    run("hars-e", shape, config)  # warmup (imports, allocs)
    best = float("inf")
    digests = set()
    for _ in range(REPEATS):
        start = time.perf_counter()
        outcome = run("hars-e", shape, config)
        best = min(best, time.perf_counter() - start)
        digests.add(outcome_digest(outcome))
    return digests, best


def test_kernel_overhead(benchmark):
    units = bench_units() or KERNEL_OVERHEAD_SHAPE.n_units
    shape = dataclasses.replace(KERNEL_OVERHEAD_SHAPE, n_units=units)
    digests, best_s = run_once(benchmark, _timed_digests, shape)
    print()
    print(f"HARS-E swaptions x{units}: {best_s:.2f}s (best of {REPEATS})")
    assert len(digests) == 1, "repeated runs produced different bytes"
    if units == KERNEL_OVERHEAD_SHAPE.n_units:
        assert digests == {load_golden()[GOLDEN_NAME]}
