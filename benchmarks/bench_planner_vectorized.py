"""Vectorized planner speedup: batched Algorithm 2 vs the scalar sweep.

The tensorized backend (:mod:`repro.kernel.batchplan`) must be a pure
speedup: same selected states, same ``SearchResult`` counters, same
floats — just argmax over precomputed state-space tensors instead of a
Python loop of estimator calls per candidate.  This benchmark replays
the same multi-app planning workload through both backends —

* **scalar**: :func:`repro.core.search.get_next_sys_state` per request,
  through a warm cached estimation layer (the pre-refactor Plan stage);
* **vector**: :meth:`repro.kernel.batchplan.PlanService.plan_many` over
  the same requests, tensors warm;

— asserts every result pair is equal (dataclass equality over
``SearchResult``, i.e. bit-identical floats), requires the vector
backend to be at least **10x** faster, and writes the measured numbers
to ``BENCH_planner.json`` at the repo root for tracking.
"""

import json
import pathlib
import random
import time

from conftest import run_once

from repro.core.calibration import calibrate
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import SearchSpace
from repro.core.search import get_next_sys_state
from repro.core.state import from_indices
from repro.heartbeats.targets import PerformanceTarget
from repro.kernel.batchplan import PlanRequest, PlanService
from repro.kernel.estimation import EstimationLayer
from repro.platform.spec import odroid_xu3

#: Timed repetitions per backend (best-of, to shed scheduler noise).
REPEATS = 3
#: Concurrent applications per planning round (an MP-HARS-sized mix).
N_APPS = 8
#: Planning rounds replayed per timed pass.
N_ROUNDS = 25
#: The HARS-E adaptation box.
SPACE = SearchSpace(m=4, n=4, d=7)

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_planner.json"
)


def _workload(spec):
    """A deterministic multi-app planning trace: per round, one request
    per app with pseudo-random current state, observed rate, and target."""
    rng = random.Random(20150608)  # the paper's DAC year, fixed forever
    rounds = []
    for _ in range(N_ROUNDS):
        requests = []
        for _ in range(N_APPS):
            while True:
                c_big = rng.randint(0, spec.big.n_cores)
                c_little = rng.randint(0, spec.little.n_cores)
                if c_big or c_little:
                    break
            current = from_indices(
                spec,
                c_big,
                c_little,
                rng.randrange(len(spec.big.frequencies_mhz)),
                rng.randrange(len(spec.little.frequencies_mhz)),
            )
            avg = rng.uniform(0.5, 30.0)
            requests.append(
                dict(
                    current=current,
                    observed_rate=rng.uniform(0.1, 40.0),
                    n_threads=rng.choice([2, 4, 8]),
                    target=PerformanceTarget(0.9 * avg, avg, 1.1 * avg),
                    space=SPACE,
                )
            )
        rounds.append(requests)
    return rounds


def _scalar_pass(spec, layer, rounds):
    results = []
    for requests in rounds:
        for req in requests:
            results.append(
                get_next_sys_state(
                    spec=spec,
                    perf_estimator=layer.perf,
                    power_estimator=layer.power,
                    **req,
                )
            )
    return results


def _vector_pass(spec, layer, rounds):
    service = PlanService()
    results = []
    for requests in rounds:
        results.extend(
            service.plan_many(
                [
                    PlanRequest(spec=spec, estimation=layer, **req)
                    for req in requests
                ]
            )
        )
    return results


def _timed(fn, *args):
    best = float("inf")
    results = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        results = fn(*args)
        best = min(best, time.perf_counter() - start)
    return results, best


def _compare():
    spec = odroid_xu3()
    power = calibrate(spec)
    perf = PerformanceEstimator()
    rounds = _workload(spec)
    scalar_layer = EstimationLayer(perf, power)
    vector_layer = EstimationLayer(perf, power)
    # Warm both backends outside the timed region: the scalar layer's
    # per-state memo and the vector layer's tensors — steady-state Plan
    # phases run warm in both worlds.
    _scalar_pass(spec, scalar_layer, rounds[:1])
    _vector_pass(spec, vector_layer, rounds[:1])
    scalar_results, scalar_s = _timed(_scalar_pass, spec, scalar_layer, rounds)
    vector_results, vector_s = _timed(_vector_pass, spec, vector_layer, rounds)
    return scalar_results, scalar_s, vector_results, vector_s


def test_planner_vectorized(benchmark):
    scalar_results, scalar_s, vector_results, vector_s = run_once(
        benchmark, _compare
    )
    n_plans = N_APPS * N_ROUNDS
    speedup = scalar_s / vector_s
    parity = scalar_results == vector_results
    print()
    print(
        f"planner x{n_plans} ({N_APPS} apps x {N_ROUNDS} rounds): "
        f"scalar {scalar_s * 1e3:.1f}ms, vector {vector_s * 1e3:.1f}ms, "
        f"speedup {speedup:.1f}x, "
        f"parity {'bit-identical' if parity else 'MISMATCH'}"
    )
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "benchmark": "bench_planner_vectorized",
                "n_apps": N_APPS,
                "n_rounds": N_ROUNDS,
                "n_plans": n_plans,
                "space": {"m": SPACE.m, "n": SPACE.n, "d": SPACE.d},
                "scalar_s": round(scalar_s, 6),
                "vector_s": round(vector_s, 6),
                "speedup": round(speedup, 2),
                "parity": "bit-identical" if parity else "mismatch",
            },
            indent=2,
        )
        + "\n"
    )
    # The backends must agree on every single plan — full dataclass
    # equality (states, floats, and counters), not approx.
    assert parity
    assert speedup >= 10.0, (
        f"vectorized planner must be >= 10x over the scalar sweep, "
        f"got {speedup:.1f}x"
    )
