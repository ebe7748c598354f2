"""Least-loaded against deadline-risk on the ``fleet_serving`` shape.

Usage: ``python3 perfbench/router_gap.py [--seed N] [--seconds S]``

``BENCH_fleet.json`` recorded least-loaded at 160 s and deadline-risk
at 76 s for one 200-node, 100k-request run each.  This script runs the
``fleet_serving`` shape under both routers, untraced (the benchmark's
contention-corrected ``wall_s``) and traced, and prints the two
per-layer tables side by side as Markdown, ready for ``NOTES.md``.
"""

import argparse
import os
import sys

import run
import speed

ROUTERS = ("deadline-risk", "least-loaded")

#: Per-layer metrics worth comparing between the two routers.
ROWS = (
    "trace.wall_s",
    "fleet.route.calls",
    "fleet.route.us_per_call",
    "fleet.est_wait.calls",
    "layer.fleet.self_s",
    "fleet.node_step.self_s",
    "fleet.cluster.self_s",
    "fleet.slo_percentile.total_s",
    "layer.sim.self_s",
    "layer.kernel.self_s",
    "kernel.tensor_build.calls",
    "kernel.tensor_build.total_s",
    "kernel.batchplan.calls",
    "mphars.cycle.calls",
    "layer.sched.self_s",
    "layer.workloads.self_s",
    "layer.heartbeats.self_s",
    "layer.other.self_s",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    run._check_source()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import journeys

    probe = speed.SpeedProbe().start()
    results = {}
    try:
        for router in ROUTERS:
            workload = journeys.FleetServing(args.seed, router=router)
            untraced, _, _, _ = run.end_to_end(workload, args.seconds, probe, 0.0)
            values, _, _, _ = run.traced(workload, args.seconds, probe)
            values["wall_s"] = untraced["wall_s"]
            results[router] = values
    finally:
        probe.stop()
    size = workload.size
    print(
        f"fleet_serving shape: {size['nodes']} nodes, {size['requests']} "
        f"requests, seed {args.seed}; wall_s untraced (corrected), the rest "
        "per traced journey\n"
    )
    print("| metric | " + " | ".join(ROUTERS) + " |")
    print("|---|" + "---|" * len(ROUTERS))
    for name in ("wall_s",) + ROWS:
        cells = []
        for router in ROUTERS:
            value = results[router][name]
            cells.append(f"{value:.0f}" if value >= 1000 else f"{value:.4g}")
        print(f"| {name} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
