"""Command-line interface: ``hars-repro <experiment> [--quick]``.

Regenerates the paper's tables and figures from the terminal::

    hars-repro table3.1
    hars-repro fig5.1 [--quick]
    hars-repro fig5.2 [--quick]
    hars-repro fig5.3 [--quick]
    hars-repro fig5.4 [--quick]
    hars-repro fig5.5-7 [--quick]
    hars-repro telemetry [--quick] [--format summary|jsonl|prometheus|csv]
    hars-repro fleet [--nodes N] [--requests N] [--router NAME]
                     [--crash-frac F [--crash-at S] [--no-failover]]
                     [--retry-timeout S]
    hars-repro all [--quick]

Adaptation Control Plane commands (see :mod:`repro.acp.cli`)::

    hars-repro serve --socket /tmp/acp.sock [--http PORT] [--state-dir D]
    hars-repro attach --endpoint unix:///tmp/acp.sock --version VERSION
                      --bench B1[,B2...] [--units N]
    hars-repro sessions --endpoint ENDPOINT
    hars-repro swap-policy --endpoint ENDPOINT SESSION POLICY

``--quick`` scales the workloads down (~80 heartbeats per benchmark) for
a fast sanity pass; omit it for the native-input sizes used in
EXPERIMENTS.md.  ``fleet`` runs the request-driven serving scenario
(:mod:`repro.fleet`) and is excluded from ``all`` — a native fleet run
steps hundreds of node simulations.  A configuration the library
rejects prints ``hars-repro: error: …`` and exits with status 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.experiments.fig5_1 import run_fig5_1
from repro.experiments.fig5_2 import gain_compression, run_fig5_2
from repro.experiments.fig5_3 import run_fig5_3
from repro.experiments.fig5_4 import run_fig5_4
from repro.experiments.fig5_5_7 import run_fig5_5_7
from repro.experiments.serialize import (
    behaviour_to_dict,
    comparison_to_dict,
    dump_json,
    multi_comparison_to_dict,
    sweep_to_dict,
)
from repro.experiments.table3_1 import build_table, render_table

#: Heartbeat count per benchmark in --quick mode.
QUICK_UNITS = 80

_EXPERIMENTS = (
    "table3.1",
    "fig5.1",
    "fig5.2",
    "fig5.3",
    "fig5.4",
    "fig5.5-7",
    "accuracy",
    "telemetry",
    "fleet",
    "all",
)

#: Experiments ``all`` skips: the fleet scenario steps hundreds of node
#: simulations and is run explicitly instead.
_NOT_IN_ALL = ("fleet",)

#: Export formats the ``telemetry`` experiment understands.
TELEMETRY_FORMATS = ("summary", "jsonl", "prometheus", "csv")


def _run_table3_1(_: Optional[int], __: Optional[List[str]]):
    print("Table 3.1 — thread assignment (C_B = C_L = 4, r = 1.5)")
    print(render_table(build_table()))
    return None


def _run_fig5_1(n_units: Optional[int], benchmarks: Optional[List[str]]):
    comparison = run_fig5_1(n_units=n_units, benchmarks=benchmarks)
    print(comparison.render())
    return comparison_to_dict(comparison)


def _run_fig5_2(n_units: Optional[int], benchmarks: Optional[List[str]]):
    default = run_fig5_1(n_units=n_units, benchmarks=benchmarks)
    high = run_fig5_2(n_units=n_units, benchmarks=benchmarks)
    print(high.render())
    print("\nGain compression vs default target (values < 1 expected):")
    for version, ratio in gain_compression(default, high).items():
        print(f"  {version}: {ratio:.2f}")
    return comparison_to_dict(high)


def _run_fig5_3(n_units: Optional[int], benchmarks: Optional[List[str]]):
    sweep = run_fig5_3(n_units=n_units, benchmarks=benchmarks)
    print(sweep.render())
    for target in sorted(sweep.efficiency):
        print(f"knee at target {target:.0%}: d = {sweep.knee(target)}")
    return sweep_to_dict(sweep)


def _run_fig5_4(n_units: Optional[int], _: Optional[List[str]]):
    comparison = run_fig5_4(n_units=n_units)
    print(comparison.render())
    return multi_comparison_to_dict(comparison)


def _run_fig5_5_7(n_units: Optional[int], _: Optional[List[str]]):
    runs = run_fig5_5_7(n_units=n_units)
    for version, run in runs.items():
        print(run.render())
        print()
    return {
        "kind": "behaviour-runs",
        "runs": {v: behaviour_to_dict(r) for v, r in runs.items()},
    }


def _run_accuracy(n_units: Optional[int], benchmarks: Optional[List[str]]):
    """Estimator validation: measured vs predicted over a state sample."""
    from repro.core.calibration import calibrate
    from repro.core.perf_estimator import PerformanceEstimator
    from repro.experiments.accuracy import evaluate_accuracy
    from repro.platform.spec import odroid_xu3
    from repro.workloads.parsec import BENCHMARKS, make_benchmark, resolve_name

    spec = odroid_xu3()
    names = [resolve_name(b) for b in benchmarks] if benchmarks else list(BENCHMARKS)
    units = n_units or 30
    payload = {}
    for name in names:
        report = evaluate_accuracy(
            spec,
            lambda: make_benchmark(name, n_units=units),
            name,
            PerformanceEstimator(),
            calibrate(spec),
            probe_units=units,
        )
        print(report.render())
        print()
        payload[name] = {
            "rate_mape": report.rate_mape,
            "power_mape": report.power_mape,
        }
    return {"kind": "estimator-accuracy", "mape": payload}


def _run_telemetry(
    n_units: Optional[int],
    benchmarks: Optional[List[str]],
    fmt: str = "summary",
    power_cap_w: Optional[float] = None,
):
    """One instrumented HARS-E run, exported in the chosen format.

    The run itself is a standard Figure 5.1-style single-application run
    (first ``--bench`` entry, default swaptions); the output is its full
    metrics-registry snapshot through one of the
    :mod:`repro.telemetry.exporters`.  ``--power-cap`` additionally
    attaches the guardrail layer with a run-wide budget, so the snapshot
    carries the trip counters and throttle stats.
    """
    from repro.experiments.runner import RunConfig, RunShape, run
    from repro.guardrails import GuardrailConfig
    from repro.telemetry import exporters
    from repro.workloads.parsec import resolve_name

    name = resolve_name(benchmarks[0]) if benchmarks else "swaptions"
    shape = RunShape(benchmark=name, n_units=n_units)
    guardrails = (
        GuardrailConfig(power_cap_w=power_cap_w)
        if power_cap_w is not None
        else None
    )
    outcome = run(
        "hars-e", shape, RunConfig(telemetry=True, guardrails=guardrails)
    )
    snapshot = outcome.telemetry.registry.snapshot()
    renderers = {
        "summary": exporters.summary_table,
        "jsonl": exporters.snapshot_to_jsonl,
        "prometheus": exporters.snapshot_to_prometheus,
        "csv": exporters.snapshot_to_csv,
    }
    print(renderers[fmt](snapshot).rstrip("\n"))
    return {"kind": "telemetry-snapshot", "snapshot": snapshot}


def _run_fleet(
    router: str = "deadline-risk",
    nodes: int = 50,
    requests: int = 10_000,
    trace: str = "poisson",
    seed: int = 0,
    crash_frac: float = 0.0,
    crash_at: float = 5.0,
    failover: bool = True,
    retry_timeout: float = 0.0,
):
    """One fleet serving run; prints the SLO/energy summary line."""
    from repro.experiments.runner import RunConfig, run
    from repro.fleet import (
        FleetConfig,
        FleetFaultConfig,
        ROUTERS,
        ResilienceConfig,
        crash_wave,
    )

    names = list(ROUTERS) if router == "all" else [router]
    chaos = None
    if crash_frac > 0:
        chaos = FleetFaultConfig(
            schedule=crash_wave(nodes, crash_frac, crash_at), seed=seed
        )
    resilience = None
    if not failover or retry_timeout > 0:
        resilience = ResilienceConfig(
            failover=failover,
            attempt_timeout_s=retry_timeout if retry_timeout > 0 else None,
        )
    config = RunConfig(
        fleet=FleetConfig(
            nodes=nodes,
            requests=requests,
            trace=trace,
            seed=seed,
            chaos=chaos,
            resilience=resilience,
        )
    )
    payload = {}
    for name in names:
        result = run(name, config=config)
        payload[name] = result.summary()
        print(
            f"{name:>13}: p50={result.p50_s * 1e3:7.1f} ms  "
            f"p95={result.p95_s * 1e3:7.1f} ms  "
            f"p99={result.p99_s * 1e3:7.1f} ms  "
            f"miss={result.miss_ratio:6.3%}  "
            f"energy={result.energy_j:9.1f} J  "
            f"completed={result.completed}/{result.requests}"
        )
        if chaos is not None or resilience is not None:
            counts = result.resilience
            print(
                f"{'':>13}  crashes={counts['crashes']}  "
                f"restarts={counts['restarts']}  "
                f"evictions={counts['evictions']}  "
                f"requeued={counts['requeued']}  "
                f"retries={counts['retries']}  "
                f"unserved={dict(sorted(result.unserved_causes.items()))}"
            )
    return {"kind": "fleet-serving", "runs": payload}


_RUNNERS = {
    "table3.1": _run_table3_1,
    "fig5.1": _run_fig5_1,
    "fig5.2": _run_fig5_2,
    "fig5.3": _run_fig5_3,
    "fig5.4": _run_fig5_4,
    "accuracy": _run_accuracy,
    "fig5.5-7": _run_fig5_5_7,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("serve", "attach", "sessions", "swap-policy"):
        # Control-plane operator commands live in their own parser
        # (their flags share nothing with the experiment runners).
        from repro.acp.cli import main as acp_main

        return acp_main(argv)
    parser = argparse.ArgumentParser(
        prog="hars-repro",
        description="Regenerate the HARS paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=_EXPERIMENTS)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"scale benchmarks to {QUICK_UNITS} heartbeats",
    )
    parser.add_argument(
        "--units",
        type=int,
        default=None,
        help="explicit heartbeat count per benchmark",
    )
    parser.add_argument(
        "--bench",
        default=None,
        help="comma-separated benchmark subset for fig5.1/5.2/5.3 "
        "(names or codes, e.g. BL,swaptions)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the experiment's results as JSON",
    )
    parser.add_argument(
        "--format",
        choices=TELEMETRY_FORMATS,
        default="summary",
        help="export format for the telemetry experiment",
    )
    parser.add_argument(
        "--power-cap",
        type=float,
        default=None,
        metavar="WATTS",
        help="telemetry experiment only: attach the guardrail layer "
        "with this run-wide power budget",
    )
    fleet_group = parser.add_argument_group("fleet experiment")
    fleet_group.add_argument(
        "--nodes", type=int, default=50, help="fleet size (default 50)"
    )
    fleet_group.add_argument(
        "--requests",
        type=int,
        default=10_000,
        help="requests in the arrival trace (default 10000)",
    )
    fleet_group.add_argument(
        "--router",
        default="deadline-risk",
        help="routing policy, or 'all' to compare every router "
        "(round-robin, least-loaded, deadline-risk)",
    )
    fleet_group.add_argument(
        "--trace",
        default="poisson",
        help="arrival trace shape: poisson, diurnal, or burst",
    )
    fleet_group.add_argument(
        "--seed", type=int, default=0, help="arrival-trace RNG seed"
    )
    fleet_group.add_argument(
        "--crash-frac",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="crash this fraction of the fleet in one wave (0 = no chaos)",
    )
    fleet_group.add_argument(
        "--crash-at",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="simulated time of the crash wave (default 5.0)",
    )
    fleet_group.add_argument(
        "--no-failover",
        action="store_true",
        help="disable health-checked failover routing (chaos ablation)",
    )
    fleet_group.add_argument(
        "--retry-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-attempt timeout enabling capped retry (0 = off)",
    )
    args = parser.parse_args(argv)
    # _run_fleet only acts on values > 0, so a negative one would
    # silently switch chaos or retries off.
    for flag, value in (
        ("--crash-frac", args.crash_frac),
        ("--retry-timeout", args.retry_timeout),
    ):
        if value < 0:
            parser.error(f"{flag} must be >= 0, got {value}")
    n_units = args.units if args.units is not None else (
        QUICK_UNITS if args.quick else None
    )
    benchmarks = args.bench.split(",") if args.bench else None
    names = (
        [n for n in _EXPERIMENTS if n != "all" and n not in _NOT_IN_ALL]
        if args.experiment == "all"
        else [args.experiment]
    )
    payloads = {}
    try:
        for name in names:
            print(f"=== {name} ===")
            if name == "telemetry":
                payload = _run_telemetry(
                    n_units,
                    benchmarks,
                    fmt=args.format,
                    power_cap_w=args.power_cap,
                )
            elif name == "fleet":
                payload = _run_fleet(
                    router=args.router,
                    nodes=args.nodes,
                    requests=args.requests,
                    trace=args.trace,
                    seed=args.seed,
                    crash_frac=args.crash_frac,
                    crash_at=args.crash_at,
                    failover=not args.no_failover,
                    retry_timeout=args.retry_timeout,
                )
            else:
                payload = _RUNNERS[name](n_units, benchmarks)
            if payload is not None:
                payloads[name] = payload
            print()
    except ConfigurationError as exc:
        print(f"hars-repro: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        dump_json(
            payloads if len(payloads) != 1 else next(iter(payloads.values())),
            args.json,
        )
        print(f"results written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
