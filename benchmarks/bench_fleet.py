"""Fleet serving at scale: the router frontier.

Runs the :mod:`repro.fleet` cluster at native scale (200 nodes, 100k
requests — override with ``REPRO_FLEET_NODES`` / ``REPRO_FLEET_REQUESTS``
for the CI smoke profile) :data:`REPEATS` times per routing policy,
alternating the router order between repetitions, on one CPU (as
``perfbench/run.py`` pins itself; the original affinity is restored
afterwards).  Every repetition of a router must give the same result.

Result gate — the **frontier**: Hurry-up routing (``deadline-risk``)
must beat round-robin on P99 at equal-or-better energy: the whole point
of steering deadline-risk requests onto the big cores.  Every run must
drain the trace.

Writes throughput (the median wall time, with its min–max) and the
P99-vs-energy frontier for all three routers to ``BENCH_fleet.json`` at
the repo root for tracking.
"""

import json
import os
import pathlib
import statistics
import time

from repro.fleet import FleetConfig, ROUTERS, run_fleet

from provenance import provenance

#: Native scale (the ISSUE's acceptance run); CI smoke overrides via env.
NATIVE_NODES = 200
NATIVE_REQUESTS = 100_000

#: Timed runs per router.
REPEATS = 3

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_fleet.json"
)


def _fleet_scale():
    nodes = int(os.environ.get("REPRO_FLEET_NODES") or NATIVE_NODES)
    requests = int(os.environ.get("REPRO_FLEET_REQUESTS") or NATIVE_REQUESTS)
    return nodes, requests


def _run(router, config):
    start = time.perf_counter()
    result = run_fleet(router, config)
    wall_s = time.perf_counter() - start
    return result, wall_s


def _sweep(config):
    """``{router: (result, [wall_s per repetition])}``, pinned to one
    CPU; odd repetitions run the routers in reverse order."""
    names = sorted(ROUTERS)
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    results, walls = {}, {name: [] for name in names}
    try:
        for repeat in range(REPEATS):
            for name in names if repeat % 2 == 0 else names[::-1]:
                result, wall_s = _run(name, config)
                if name in results:
                    assert result.summary() == results[name].summary(), name
                results[name] = result
                walls[name].append(wall_s)
    finally:
        os.sched_setaffinity(0, affinity)
    return {name: (results[name], walls[name]) for name in names}


def test_fleet_routers(benchmark):
    nodes, requests = _fleet_scale()
    config = FleetConfig(nodes=nodes, requests=requests)

    runs = benchmark.pedantic(_sweep, args=(config,), rounds=1, iterations=1)

    print()
    rows = {}
    for name in sorted(runs):
        result, walls = runs[name]
        wall_s = statistics.median(walls)
        rows[name] = {
            "p50_ms": round(result.p50_s * 1e3, 3),
            "p95_ms": round(result.p95_s * 1e3, 3),
            "p99_ms": round(result.p99_s * 1e3, 3),
            "miss_ratio": round(result.miss_ratio, 6),
            "energy_j": round(result.energy_j, 3),
            "avg_power_w": round(result.avg_power_w, 3),
            "completed": result.completed,
            "unserved": result.unserved,
            "hot_lane_completed": result.lane_completed.get("hot", 0),
            "wall_s": round(wall_s, 3),
            "wall_s_min": round(min(walls), 3),
            "wall_s_max": round(max(walls), 3),
            "requests_per_wall_s": round(result.completed / wall_s, 1),
        }
        print(
            f"{name:>13}: p99={result.p99_s * 1e3:7.1f}ms "
            f"miss={result.miss_ratio:6.3%} "
            f"energy={result.energy_j:10.1f}J "
            f"wall={wall_s:6.1f}s [{min(walls):.1f}-{max(walls):.1f}] "
            f"({result.completed / wall_s:8.0f} req/s)"
        )

    rr = runs["round-robin"][0]
    dr = runs["deadline-risk"][0]
    RESULTS_PATH.write_text(
        json.dumps(
            {
                "benchmark": "bench_fleet",
                **provenance(),
                "nodes": nodes,
                "requests": requests,
                "trace": config.trace,
                "deadline_ms": round(config.deadline_s * 1e3, 1),
                "repeats": REPEATS,
                "routers": rows,
                "frontier": {
                    "p99_improvement": round(1.0 - dr.p99_s / rr.p99_s, 4),
                    "energy_ratio": round(dr.energy_j / rr.energy_j, 4),
                },
            },
            indent=2,
        )
        + "\n"
    )

    # The Hurry-up frontier: better tail at no extra energy.
    assert dr.p99_s < rr.p99_s
    assert dr.energy_j <= rr.energy_j
    # Every run must actually drain the trace.
    for name, (result, _) in runs.items():
        assert result.completed == requests, name
