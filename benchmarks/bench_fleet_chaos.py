"""Fleet resilience under a crash wave: failover value + chaos gates.

Runs the :mod:`repro.fleet` cluster at native scale (100 nodes, 20k
requests — override with ``REPRO_FLEET_NODES`` / ``REPRO_FLEET_REQUESTS``
for the CI smoke profile) through three arms around a 10 % crash wave:

* **baseline**  — no chaos, no resilience layer (PR 7 behaviour);
* **failover**  — crash wave + failover routing + per-attempt retry;
* **ablation**  — same crash wave with ``failover=False``: routers keep
  feeding dead nodes and stranded requests are lost outright.

Result gates (all hard asserts):

* **zero-chaos identity** — a fully disabled ``FleetFaultConfig`` is
  bit-identical to the baseline (``summary()`` equality, no tolerances);
* **failover value** — the failover arm serves the whole trace with a
  miss ratio within 2x the no-fault baseline (small floor for tiny CI
  traces), while the ablation arm loses stranded requests outright;
* **requeue latency** — crash-stranded requests land on a survivor
  within two cluster ticks.

Writes the arm comparison, per-cause unserved accounting, and the
post-wave SLO recovery time to ``BENCH_fleet_chaos.json`` at the repo
root for tracking.
"""

import dataclasses
import json
import os
import pathlib
import time

from repro.fleet import FleetConfig, FleetFaultConfig, ResilienceConfig
from repro.fleet.chaos import crash_wave
from repro.fleet.cluster import FleetCluster
from repro.fleet.slo import recovery_time_s

from provenance import provenance

#: Native scale; CI smoke overrides via env.
NATIVE_NODES = 100
NATIVE_REQUESTS = 20_000

#: The chaos scenario: this fraction of the fleet crashes at WAVE_AT_S.
WAVE_FRACTION = 0.10
WAVE_AT_S = 5.0

#: Miss-ratio slack: failover must stay within 2x baseline, with a
#: small absolute floor so tiny CI traces (a handful of misses) pass.
MISS_FACTOR = 2.0
MISS_FLOOR = 0.02

RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_fleet_chaos.json"
)


def _fleet_scale():
    nodes = int(os.environ.get("REPRO_FLEET_NODES") or NATIVE_NODES)
    requests = int(os.environ.get("REPRO_FLEET_REQUESTS") or NATIVE_REQUESTS)
    return nodes, requests


def _run(config, router="deadline-risk"):
    cluster = FleetCluster(config, router=router)
    start = time.perf_counter()
    result = cluster.run()
    wall_s = time.perf_counter() - start
    return result, cluster.completion_log, wall_s


def _row(result, wall_s):
    return {
        "completed": result.completed,
        "unserved": result.unserved,
        "unserved_causes": dict(sorted(result.unserved_causes.items())),
        "miss_ratio": round(result.miss_ratio, 6),
        "p99_ms": round(result.p99_s * 1e3, 3),
        "energy_j": round(result.energy_j, 3),
        "resilience": dict(sorted(result.resilience.items())),
        "wall_s": round(wall_s, 3),
    }


def test_fleet_chaos(benchmark):
    nodes, requests = _fleet_scale()
    base = FleetConfig(nodes=nodes, requests=requests)
    wave = FleetFaultConfig(
        schedule=crash_wave(nodes, WAVE_FRACTION, WAVE_AT_S)
    )
    failover_config = dataclasses.replace(
        base,
        chaos=wave,
        resilience=ResilienceConfig(attempt_timeout_s=1.0),
    )
    ablation_config = dataclasses.replace(
        base, chaos=wave, resilience=ResilienceConfig(failover=False)
    )

    def _arms():
        return {
            "baseline": _run(base),
            "failover": _run(failover_config),
            "ablation": _run(ablation_config),
        }

    arms = benchmark.pedantic(_arms, rounds=1, iterations=1)
    baseline, _, _ = arms["baseline"]
    failover, failover_log, _ = arms["failover"]
    ablation, _, _ = arms["ablation"]

    # Gate 1: a disabled chaos config must be invisible, bit for bit.
    chaosless, _, _ = _run(
        dataclasses.replace(base, chaos=FleetFaultConfig())
    )
    zero_chaos_identical = chaosless.summary() == baseline.summary()

    recovery_s = recovery_time_s(
        failover_log, WAVE_AT_S, window=min(100, requests // 10)
    )
    miss_bound = max(MISS_FACTOR * baseline.miss_ratio, MISS_FLOOR)
    lost = ablation.unserved_causes["lost_to_crash_then_requeued"]

    print()
    for name in ("baseline", "failover", "ablation"):
        result, _, wall_s = arms[name]
        print(
            f"{name:>9}: completed={result.completed}/{requests} "
            f"miss={result.miss_ratio:6.3%} "
            f"p99={result.p99_s * 1e3:7.1f}ms "
            f"wall={wall_s:6.1f}s"
        )
    print(
        f"wave: {len(wave.schedule)} nodes at t={WAVE_AT_S}s | "
        f"requeued={failover.resilience['requeued']} "
        f"(<= {failover.resilience['max_requeue_ticks']} ticks) | "
        f"ablation lost={lost} | "
        f"recovery={'n/a' if recovery_s is None else f'{recovery_s:.2f}s'}"
    )
    print(
        f"zero-chaos identity: "
        f"{'bit-identical' if zero_chaos_identical else 'MISMATCH'}"
    )

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "benchmark": "bench_fleet_chaos",
                **provenance(),
                "nodes": nodes,
                "requests": requests,
                "wave": {
                    "fraction": WAVE_FRACTION,
                    "at_s": WAVE_AT_S,
                    "nodes_crashed": len(wave.schedule),
                },
                "arms": {
                    name: _row(arms[name][0], arms[name][2])
                    for name in sorted(arms)
                },
                "gates": {
                    "zero_chaos_bit_identical": zero_chaos_identical,
                    "miss_ratio_bound": round(miss_bound, 6),
                    "ablation_lost": lost,
                },
                "recovery_time_s": (
                    None if recovery_s is None else round(recovery_s, 3)
                ),
            },
            indent=2,
        )
        + "\n"
    )

    # Gate 1: a disabled chaos layer changes nothing.
    assert zero_chaos_identical
    # Gate 2: failover keeps the fleet whole; the ablation does not.
    assert failover.completed == requests
    assert failover.miss_ratio <= miss_bound
    assert lost > 0
    assert ablation.completed < requests
    # Gate 3: stranded work lands on survivors within two ticks.
    assert failover.resilience["requeued"] > 0
    assert failover.resilience["max_requeue_ticks"] <= 2
    # Baseline sanity: the no-fault arm drains the trace.
    assert baseline.completed == requests
