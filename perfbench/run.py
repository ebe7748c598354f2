"""The repo benchmark: one workload, one seed, one run.

Usage::

    python3 perfbench/run.py --workload paper_runs --seed 1 --seconds 20 --trace 0

Workloads: ``paper_runs``, ``fleet_serving``, ``fleet_chaos``,
``acp_control`` (see ``NOTES.md``).  The run pins itself to one CPU,
repeats the workload's journey until ``--seconds`` of host time are
spent and reports medians of contention-corrected host times
(:mod:`speed`).
With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it first times some untraced journeys, then wraps each
layer's entry points in spans and reports the per-layer metrics, the
per-layer self-time table and the tracing overhead.

Output: one JSON line of details (provenance, sizes, checks, tables),
then, as the last line, ``{"correct", "attempted", "failed", "metrics"}``.
Both are also appended to ``.perfbench_out/results.jsonl``.  The exit
status is 0 whenever a result is printed; a run that cannot start (no
``src/`` next to this directory) exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import speed

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("paper_runs", "fleet_serving", "fleet_chaos", "acp_control")

#: Cold set-ups timed per run: ``import repro``, and the workload's own
#: set-up when it sets up once per process.
SETUP_REPEATS = 3
#: Share of a traced run spent on untraced journeys (the overhead base).
UNTRACED_SHARE = 0.4

#: The layers of ``src/repro`` the traced run attributes time to, in
#: report order.  A span's layer is the part of its name before the dot.
LAYERS = (
    "sim",
    "sched",
    "workloads",
    "kernel",
    "core",
    "mphars",
    "heartbeats",
    "fleet",
    "acp",
    "experiments",
)


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit of one list of ``BENCHMARK.json``:
    ``end_to_end`` (untraced runs) or ``per_layer`` (traced runs)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def _check_source() -> None:
    """The benchmark builds nothing: it imports ``src/repro`` as is."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC} — run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _fresh_import_s(probe) -> float:
    """Corrected time ``import repro`` takes in a fresh interpreter.

    A process imports ``repro`` once, so more samples of that set-up
    cost need more interpreters; the child times its own import.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t)"
    )
    start = clock()
    child = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return probe.corrected(float(child.stdout), (start, clock()))


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def repeat(workload, seconds: float, traced: bool = False) -> List:
    """Journeys until ``seconds`` of host time are spent (at least one;
    none is started that would likely overrun the budget)."""
    journeys = []
    begin = clock()
    while True:
        gc.collect()
        journeys.append(workload.journey(traced))
        spent = clock() - begin
        if spent + spent / len(journeys) > seconds:
            return journeys


def _checks(journeys) -> List[str]:
    problems = [p for j in journeys for p in j.problems]
    fingerprints = sorted({j.fingerprint for j in journeys})
    if len(fingerprints) > 1:
        problems.append(
            f"simulated results diverged across repeats: {fingerprints}"
        )
    return problems


def _peak_rss_mb(workload) -> float:
    """Peak resident set of the process that ran the workload: this one,
    or for acp_control the daemon (the largest waited-for child)."""
    who = (
        resource.RUSAGE_CHILDREN
        if workload.name == "acp_control"
        else resource.RUSAGE_SELF
    )
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, seconds: float, probe, import_s: float):
    """Untraced run: every end-to-end metric, plus the run details.

    Host times are contention-corrected (:mod:`speed`); the raw ones
    are kept in the details.
    """
    setups: List[Tuple[float, Tuple[float, float]]] = []
    if workload.prepares:
        setups = [workload.prepare() for _ in range(SETUP_REPEATS)]
    journeys = repeat(workload, seconds)
    if not workload.prepares:
        setups = [(j.setup_s, j.setup_window) for j in journeys]
    corrected = [
        [probe.corrected(seconds, window) for seconds, window in j.parts]
        for j in journeys
    ]
    # Every journey of a run repeats the same simulated work, so the
    # journey's time is the sum of its parts' medians over the run.
    wall = sum(_median(part) for part in zip(*corrected))
    first = journeys[0]
    values = {
        "setup_s": import_s
        + _median([probe.corrected(s, window) for s, window in setups]),
        "wall_s": wall,
        "sim_s_per_s": first.sim_s / wall,
        "requests_per_s": first.served / wall,
        "peak_rss_mb": _peak_rss_mb(workload),
        "perf_per_watt": first.perf_per_watt,
        "energy_j": first.energy_j,
    }
    detail = {
        "journeys": len(journeys),
        "import_s": import_s,
        "raw_setup_s": [s for s, _ in setups],
        "raw_wall_s": [j.wall_s for j in journeys],
        "corrected_wall_s": [sum(parts) for parts in corrected],
        "fingerprint": first.fingerprint,
        "journey": first.detail,
    }
    rpc = [s for j in journeys for s in j.rpc_s]
    if rpc:
        detail["rpc"] = _rpc_summary(rpc)
    return values, declared_units("end_to_end"), journeys, detail


def _rpc_summary(rpc_s: List[float]) -> Dict[str, float]:
    return {
        "samples": len(rpc_s),
        "p50_ms": _percentile(rpc_s, 50) * 1e3,
        "p99_ms": _percentile(rpc_s, 99) * 1e3,
    }


def _add_stats(into: Dict[str, Dict[str, float]], more) -> None:
    for name, row in more.items():
        target = into.setdefault(name, defaultdict(float))
        for key, value in row.items():
            target[key] += value


def traced(workload, seconds: float, probe):
    """Traced run: untraced journeys (overhead base), then traced ones;
    per-layer metrics averaged per traced journey."""
    import spans

    if workload.prepares:
        workload.prepare()
    untraced = repeat(workload, seconds * UNTRACED_SHARE)
    tracer = spans.install()
    try:
        setup_windows = []
        if workload.prepares:
            setup_windows.append(workload.prepare()[1])
        tracer.estimation_counts()  # drop layers built during set-up
        before = dict(tracer.counts)
        journeys = repeat(workload, seconds * (1 - UNTRACED_SHARE), True)
    finally:
        tracer.uninstall()
    counts = defaultdict(float)
    for name, value in tracer.counts.items():
        counts[name] += value - before.get(name, 0.0)
    for name, value in tracer.estimation_counts().items():
        counts[name] += value
    local = tracer.spans()
    windows = [j.window for j in journeys]
    stats: Dict[str, Dict[str, float]] = {}
    _add_stats(stats, local.stats(windows))
    setup_stats: Dict[str, Dict[str, float]] = {}
    _add_stats(
        setup_stats,
        local.stats(setup_windows + [j.setup_window for j in journeys]),
    )
    remote_root_s = 0.0
    for journey in journeys:
        path = journey.detail.get("daemon_spans")
        if not path:
            continue
        remote, remote_counts = spans.SpanSet.load(path)
        os.remove(path)
        remote_stats = remote.stats([journey.window])
        remote_root_s += sum(row["root"] for row in remote_stats.values())
        _add_stats(stats, remote_stats)
        _add_stats(setup_stats, remote.stats([journey.setup_window]))
        for name, value in remote_counts.items():
            counts[name] += value
    if "acp.exchange" in stats:
        # The daemon's spans ran inside the client's exchange calls.
        stats["acp.exchange"]["self"] -= remote_root_s
    values, table = layer_metrics(
        stats, setup_stats, counts, journeys, untraced, len(setup_windows), probe
    )
    detail = {
        "journeys": len(journeys),
        "untraced_journeys": len(untraced),
        "spans_recorded": len(local),
        "self_time_table": table,
        "spans_per_journey": {
            name: {k: v / len(journeys) for k, v in sorted(row.items())}
            for name, row in sorted(stats.items())
        },
        "fingerprint": journeys[0].fingerprint,
    }
    from journeys import OUT

    OUT.mkdir(exist_ok=True)
    local.save(str(OUT / f"{workload.name}-spans.npz"), dict(counts))
    checked = untraced + journeys
    return values, declared_units("per_layer"), checked, detail


def layer_metrics(
    stats, setup_stats, counts, journeys, untraced, setups, probe
):
    """Per-layer metrics per traced journey, and the self-time table.

    Span times are raw host seconds (they must add up to the traced
    journeys' raw wall time); the tracing overhead compares
    contention-corrected medians, like the end-to-end metrics.
    """
    n = len(journeys)

    def value(name: str, key: str, source=stats, per: float = n) -> float:
        return source.get(name, {}).get(key, 0.0) / max(per, 1)

    def us_per_call(name: str) -> float:
        calls = value(name, "calls", per=1)
        return value(name, "total", per=1) / calls * 1e6 if calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    setup_n = setups + n
    wall = sum(j.wall_s for j in journeys) / n
    layers = {
        layer: sum(
            row["self"] for name, row in stats.items()
            if name.split(".")[0] == layer
        ) / n
        for layer in LAYERS
    }
    other = wall - sum(layers.values())
    resilience = journeys[0].detail.get("resilience", {})
    rpc = _rpc_summary([s for j in untraced for s in j.rpc_s]) if any(
        j.rpc_s for j in untraced
    ) else {"samples": 0, "p50_ms": 0.0, "p99_ms": 0.0}
    v = {
        "sim.step.calls": value("sim.step", "calls"),
        "sim.step.self_s": value("sim.step", "self"),
        "sim.step.us_per_call": us_per_call("sim.step"),
        "sched.place.total_s": value("sched.place", "total"),
        "sched.place.us_per_call": us_per_call("sched.place"),
        "workloads.advance.calls": value("workloads.advance", "calls"),
        "workloads.advance.total_s": value("workloads.advance", "total"),
        "kernel.publish.calls": value("kernel.publish", "calls"),
        "kernel.publish.self_s": value("kernel.publish", "self"),
        "kernel.mape.calls": value("kernel.mape", "calls"),
        "kernel.mape.self_s": value("kernel.mape", "self"),
        "kernel.plan.total_s": value("kernel.plan", "total"),
        "kernel.execute.total_s": value("kernel.execute", "total"),
        "core.search.calls": value("core.search", "calls"),
        "core.search.total_s": value("core.search", "total"),
        "core.calibrate.total_s": value(
            "core.calibrate", "total", setup_stats, setup_n
        ),
        "kernel.batchplan.calls": value("kernel.batchplan", "calls"),
        "kernel.batchplan.total_s": value("kernel.batchplan", "total"),
        "kernel.batchplan.apps_per_batch": ratio(
            counts["kernel.batch_apps"], counts["kernel.batches"]
        ),
        "kernel.tensor_build.calls": value("kernel.tensor_build", "calls"),
        "kernel.tensor_build.total_s": value("kernel.tensor_build", "total"),
        "kernel.estimate.hit_ratio": ratio(
            counts["estimate_hits"], counts["estimate_lookups"]
        ),
        "mphars.cycle.calls": value("mphars.cycle", "calls"),
        "mphars.cycle.total_s": value("mphars.cycle", "total"),
        "heartbeats.timed_rate.calls": value("heartbeats.timed_rate", "calls"),
        "heartbeats.timed_rate.total_s": value(
            "heartbeats.timed_rate", "total"
        ),
        "fleet.route.calls": value("fleet.route", "calls"),
        "fleet.route.us_per_call": us_per_call("fleet.route"),
        "fleet.est_wait.calls": counts["fleet.est_wait"] / n,
        "fleet.node_step.self_s": value("fleet.node_step", "self"),
        "fleet.slo_percentile.calls": value("fleet.slo_percentile", "calls"),
        "fleet.slo_percentile.total_s": value("fleet.slo_percentile", "total"),
        "fleet.routable.total_s": value("fleet.routable", "total"),
        "fleet.supervise.total_s": value("fleet.supervise", "total"),
        "fleet.hedge_win_ratio": ratio(
            resilience.get("hedge_wins", 0), resilience.get("hedges", 0)
        ),
        "fleet.retries": float(resilience.get("retries", 0)),
        "fleet.cluster.self_s": value("fleet.cluster", "self"),
        "fleet.sim_p99_ms": journeys[0].detail.get("sim_p99_ms", 0.0),
        "fleet.miss_ratio": journeys[0].detail.get("miss_ratio", 0.0),
        "acp.encode.calls": value("acp.encode", "calls"),
        "acp.encode.total_s": value("acp.encode", "total"),
        "acp.decode.calls": value("acp.decode", "calls"),
        "acp.decode.total_s": value("acp.decode", "total"),
        "acp.exchange.total_s": value("acp.exchange", "total"),
        "acp.transport.self_s": value("acp.exchange", "self"),
        "acp.handle.self_s": value("acp.handle", "self"),
        "acp.advance.total_s": value("acp.advance", "total"),
        "acp.events.frames": float(journeys[0].detail.get("event_frames", 0)),
        "acp.rpc.samples": float(rpc["samples"]),
        "acp.rpc_p50_ms": rpc["p50_ms"],
        "acp.rpc_p99_ms": rpc["p99_ms"],
        "experiments.max_rate.total_s": value(
            "experiments.max_rate", "total", setup_stats, setup_n
        ),
        "trace.spans": sum(row["calls"] for row in stats.values()) / n,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": _median([j.wall_s for j in untraced]),
        "trace.overhead_ratio": _median(
            [probe.corrected(j.wall_s, j.window) for j in journeys]
        )
        / _median([probe.corrected(j.wall_s, j.window) for j in untraced]),
    }
    for layer, self_s in layers.items():
        v[f"layer.{layer}.self_s"] = self_s
    v["layer.other.self_s"] = other
    table = [
        {"layer": layer, "self_s": self_s, "share": self_s / wall}
        for layer, self_s in sorted(
            list(layers.items()) + [("other", other)],
            key=lambda item: -item[1],
        )
    ]
    return v, table


def provenance(workload, seed: int) -> Dict[str, object]:
    """Who measured what: interpreter, libraries, code identity, host."""
    import numpy

    import repro

    sources = sorted((SRC / "repro").rglob("*.py"))
    code = hashlib.sha256()
    for path in sources:
        code.update(str(path.relative_to(SRC)).encode())
        code.update(path.read_bytes())
    commit: Optional[str] = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = found.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "commit": commit,
        "src_sha256": code.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": seed,
        "size": workload.size,
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    probe: "speed.SpeedProbe",
    import_s: float = 0.0,
    scale: float = 1.0,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One benchmark run; returns (result, detail).  ``import_s`` is the
    corrected time ``import repro`` took; ``scale`` shrinks the workload
    for smoke tests."""
    import journeys

    workload = journeys.WORKLOADS[name](seed, scale=scale)
    if trace:
        values, units, checked, detail = traced(workload, seconds, probe)
    else:
        values, units, checked, detail = end_to_end(
            workload, seconds, probe, import_s
        )
    problems = _checks(checked)
    detail["problems"] = problems
    detail["provenance"] = provenance(workload, seed)
    result = {
        "correct": not problems,
        "attempted": sum(j.attempted for j in checked),
        "failed": sum(j.failed for j in checked),
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }
    return result, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_source()
    # One CPU for this process, its probe thread and the ACP daemon it
    # starts: the probe then samples the CPU the work runs on, and the
    # client/daemon ping-pong does not bounce between CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = speed.SpeedProbe().start()
    try:
        start = clock()
        import repro  # noqa: F401  (timed: part of every set-up)

        imports = [probe.corrected(clock() - start, (start, clock()))]
        imports += [_fresh_import_s(probe) for _ in range(SETUP_REPEATS - 1)]
        import_s = _median(imports)
        result, detail = measure(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            probe,
            import_s,
        )
    finally:
        probe.stop()
    from journeys import OUT

    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({"detail": detail, "result": result}) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
