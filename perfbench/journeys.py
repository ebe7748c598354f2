"""The four benchmark workloads, each a repeatable journey through the
public API of ``repro``.

Every workload is built from the run's seed alone and driven from one
thread in a closed loop: the next call is made only after the previous
one returned.  A journey returns a :class:`Journey` record with its host
timings, the simulator's own results, and the outcome of its output
checks.  Sizes are chosen so one journey takes a few host seconds; see
``NOTES.md`` for why each workload exists and what it stresses.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.acp.client import AcpClient
from repro.core import calibration
from repro.experiments import runner
from repro.experiments.serialize import run_metrics_to_dict
from repro.fleet import (
    FleetConfig,
    FleetFaultConfig,
    ResilienceConfig,
    crash_wave,
)
from repro.fleet.cluster import FleetCluster
from repro.platform.spec import odroid_xu3
from repro.workloads.parsec import make_benchmark

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (sockets, span dumps, results).
OUT = ROOT / ".perfbench_out"

#: ``paper_runs``: the six PARSEC models, and the four that co-run.
PAPER_BENCHMARKS = (
    "blackscholes",
    "bodytrack",
    "facesim",
    "ferret",
    "fluidanimate",
    "swaptions",
)
CORUN_BENCHMARKS = ("bodytrack", "swaptions", "fluidanimate", "blackscholes")
#: Share of each model's native heartbeat count a journey runs.  Native
#: inputs take ~16 host seconds per journey plus ~6 s of baseline runs,
#: too long to repeat inside one benchmark run.
PAPER_UNIT_FRACTION = 0.25

FLEET_NODES = 100
FLEET_REQUESTS = 4000
FLEET_ROUTER = "deadline-risk"

ACP_BENCHMARKS = ("blackscholes", "swaptions")
ACP_UNITS = 150
#: Simulated seconds per ``advance`` RPC: ~550 steps, ~1.1k RPCs.
ACP_QUANTUM_S = 0.25
#: Simulated time after which the client hot-swaps the policy once.
ACP_SWAP_AT_S = 20.0
#: Host seconds the daemon gets to announce its socket, or to exit.
DAEMON_TIMEOUT_S = 60.0


@dataclass
class Journey:
    """One timed pass through a workload."""

    wall_s: float
    #: Set-up paid inside the journey (cluster build, daemon + attach);
    #: ``None`` when the workload sets up once before its journeys.
    setup_s: Optional[float]
    #: Simulated seconds advanced (node-seconds for a fleet).
    sim_s: float
    #: Units of served work: heartbeats, completed requests, or RPCs.
    served: int
    attempted: int
    failed: int
    perf_per_watt: float
    energy_j: float
    #: Output checks that failed (empty when the journey is correct).
    problems: List[str]
    #: Digest of every simulated result; identical on every repeat.
    fingerprint: str
    #: Host-clock windows (setup, journey) for the traced analysis.
    setup_window: Tuple[float, float]
    window: Tuple[float, float]
    #: The journey's separately timed parts, ``(seconds, window)``; the
    #: benchmark takes each part's median over the journeys of a run.
    parts: List[Tuple[float, Tuple[float, float]]] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)
    #: Host round-trip of every RPC in the journey (acp_control only).
    rpc_s: List[float] = field(default_factory=list)


def digest(value: object) -> str:
    """Stable digest of a JSON-able value (floats by ``repr``)."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _run_energy_j(metrics) -> float:
    return metrics.avg_power_w * metrics.elapsed_s


class PaperRuns:
    """HARS-EI on each PARSEC model, then one 4-app MP-HARS-EI co-run."""

    name = "paper_runs"
    #: Sets itself up once per process; :meth:`prepare` is that set-up.
    prepares = True

    def __init__(self, seed: int, scale: float = 1.0):
        native = {
            name: make_benchmark(name).total_heartbeats()
            for name in PAPER_BENCHMARKS
        }
        self.spec = odroid_xu3()
        self.shapes = {
            name: repro.RunShape(
                name,
                n_units=max(4, round(native[name] * PAPER_UNIT_FRACTION * scale)),
                seed=seed,
            )
            for name in PAPER_BENCHMARKS
        }
        self.corun = [self.shapes[name] for name in CORUN_BENCHMARKS]
        self.expected = {
            name: make_benchmark(name, shape.n_units).total_heartbeats()
            for name, shape in self.shapes.items()
        }
        self.size = {
            "units": {name: s.n_units for name, s in self.shapes.items()},
            "runs": len(self.shapes) + 1,
            "apps": len(self.shapes) + len(self.corun),
        }

    def prepare(self) -> Tuple[float, Tuple[float, float]]:
        """Cold set-up: calibrate and every baseline max-rate run."""
        calibration.clear_cache()
        runner.clear_max_rate_cache()
        gc.collect()
        start = clock()
        calibration.calibrate(self.spec)
        for shape in self.shapes.values():
            runner.measure_max_rate(self.spec, shape)
        end = clock()
        return end - start, (start, end)

    def journey(self, traced: bool = False) -> Journey:
        calls = [("hars-ei", s) for s in self.shapes.values()]
        calls.append(("mp-hars-ei", self.corun))
        outcomes = []
        parts = []
        start = clock()
        for version, shapes in calls:
            begin = clock()
            outcomes.append(repro.run(version, shapes))
            done = clock()
            parts.append((done - begin, (begin, done)))
        end = clock()
        problems: List[str] = []
        failed = 0
        expected = [self.expected[name] for name in self.shapes]
        expected += [self.expected[s.benchmark] for s in self.corun]
        apps = [app for outcome in outcomes for app in outcome.metrics.apps]
        for app, beats in zip(apps, expected):
            if app.heartbeats != beats:
                failed += 1
        ppw = [o.metrics.perf_per_watt for o in outcomes]
        energy = sum(_run_energy_j(o.metrics) for o in outcomes)
        sim_s = sum(o.metrics.elapsed_s for o in outcomes)
        summaries = [run_metrics_to_dict(o.metrics) for o in outcomes]
        return Journey(
            wall_s=end - start,
            setup_s=None,
            sim_s=sim_s,
            served=sum(app.heartbeats for app in apps),
            attempted=len(apps),
            failed=failed,
            perf_per_watt=geomean(ppw),
            energy_j=energy,
            problems=problems,
            fingerprint=digest([ppw, energy, summaries]),
            setup_window=(start, start),
            window=(start, end),
            parts=parts,
            detail={"perf_per_watt": dict(zip(self.size["units"], ppw))},
        )


class FleetServing:
    """Open-loop Poisson trace over 100 nodes, deadline-risk routing."""

    name = "fleet_serving"
    prepares = False

    def __init__(self, seed: int, scale: float = 1.0, router: str = FLEET_ROUTER):
        self.router = router
        self.config = self._config(
            seed,
            nodes=max(2, round(FLEET_NODES * scale)),
            requests=max(20, round(FLEET_REQUESTS * scale)),
        )
        self.size = {
            "nodes": self.config.nodes,
            "requests": self.config.requests,
            "trace": self.config.trace,
            "router": router,
        }

    def _config(self, seed: int, nodes: int, requests: int) -> FleetConfig:
        return FleetConfig(nodes=nodes, requests=requests, seed=seed)

    def _check(self, cluster, result) -> List[str]:
        """Every request is either completed once or has one cause."""
        problems = []
        causes = result.unserved_causes
        if result.completed + sum(causes.values()) != result.requests:
            problems.append(
                f"completed {result.completed} + unserved causes "
                f"{sum(causes.values())} != requests {result.requests}"
            )
        # ``queued_at_horizon`` is the remainder of the partition: it goes
        # negative when the other causes overlap or over-count.
        problems += [
            f"unserved cause {cause} = {n}"
            for cause, n in causes.items()
            if n < 0
        ]
        by_lane = sum(result.lane_completed.values())
        logged = len(cluster.completion_log)
        if not result.completed == by_lane == logged:
            problems.append(
                f"completed {result.completed}, by lane {by_lane}, "
                f"completion log {logged}"
            )
        return problems

    def journey(self, traced: bool = False) -> Journey:
        start = clock()
        cluster = FleetCluster(self.config, router=self.router)
        built = clock()
        result = cluster.run()
        end = clock()
        problems = self._check(cluster, result)
        on_time = result.completed - result.deadline_misses
        summary = result.summary()
        return Journey(
            wall_s=end - built,
            setup_s=built - start,
            sim_s=result.duration_s * result.nodes,
            served=result.completed,
            attempted=result.requests,
            failed=result.unserved,
            perf_per_watt=on_time / result.requests / result.avg_power_w,
            energy_j=result.energy_j,
            problems=problems,
            fingerprint=digest(summary),
            setup_window=(start, built),
            window=(built, end),
            parts=[(end - built, (built, end))],
            detail={
                "sim_p99_ms": result.p99_s * 1e3,
                "miss_ratio": result.miss_ratio,
                "resilience": dict(result.resilience),
                "unserved_causes": dict(result.unserved_causes),
            },
        )


class FleetChaos(FleetServing):
    """The same fleet on a burst trace with seeded node chaos and the
    whole resilience layer (retries, hedging, brownout admission).

    The values reproduce a 100-node × 20k-request burst probe (8
    crashes, 42 retries, ~10.5k hedges, ~5k demotions, 0 unserved; see
    ``NOTES.md``): each fault kind at that probe's crash hazard, 8
    crashes over ~2100 node-seconds; the tutorial's retry timeout and
    hedge fraction; and the brownout depth that gives the probe's
    demotion count.  At 4000 requests that hazard alone leaves some
    seeds without a crash, so the tutorial's crash wave (a tenth of the
    nodes, a fifth of the way into the arrivals) rides along.
    """

    name = "fleet_chaos"
    #: Per node-second, for each of crash, hang and slowdown.
    HAZARD = 0.004

    def _config(self, seed: int, nodes: int, requests: int) -> FleetConfig:
        arrivals_s = requests / (nodes * FleetConfig().per_node_rps)
        return FleetConfig(
            nodes=nodes,
            requests=requests,
            seed=seed,
            trace="burst",
            chaos=FleetFaultConfig(
                seed=seed,
                node_crash_rate=self.HAZARD,
                node_hang_rate=self.HAZARD,
                node_slowdown_rate=self.HAZARD,
                schedule=crash_wave(nodes, 0.10, at_s=arrivals_s / 5),
            ),
            resilience=ResilienceConfig(
                attempt_timeout_s=1.0,
                hedge_fraction=0.6,
                brownout_queue_depth=2.0,
            ),
        )

    def _check(self, cluster, result) -> List[str]:
        problems = super()._check(cluster, result)
        counts = result.resilience
        for counter in ("crashes", "hedges", "demoted"):
            if counts.get(counter, 0) <= 0:
                problems.append(f"no {counter}: the chaos layer did not act")
        return problems


class AcpControl:
    """A ``serve`` daemon subprocess driven over its Unix socket."""

    name = "acp_control"
    prepares = False

    def __init__(self, seed: int, scale: float = 1.0):
        units = max(8, round(ACP_UNITS * scale))
        self.shapes = [
            repro.RunShape(name, n_units=units, seed=seed)
            for name in ACP_BENCHMARKS
        ]
        self.expected = [
            make_benchmark(s.benchmark, s.n_units).total_heartbeats()
            for s in self.shapes
        ]
        self.swap_at_s = ACP_SWAP_AT_S * scale
        self.size = {"units": units, "apps": len(self.shapes)}
        self._count = 0

    def _start_daemon(self, socket_path: str, spans_path: Optional[str]):
        command = [sys.executable, str(HERE / "acp_daemon.py"), socket_path]
        if spans_path is not None:
            command.append(spans_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env
        )
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("acp: listening on unix://"):
                return proc
        stop_daemon(proc)
        raise RuntimeError("acp daemon did not announce its socket")

    def _socket_path(self, tag: str) -> str:
        path = str(OUT / f"{tag}.sock")
        # A Unix socket path must fit in ~108 bytes; the daemon inherits
        # this process's working directory, so a relative path works too.
        return path if len(path.encode()) < 100 else os.path.relpath(path)

    def journey(self, traced: bool = False) -> Journey:
        OUT.mkdir(exist_ok=True)
        self._count += 1
        tag = f"acp-{os.getpid()}-{self._count}"
        socket_path = self._socket_path(tag)
        spans_path = str(OUT / f"{tag}-daemon.npz") if traced else None
        start = clock()
        proc = self._start_daemon(socket_path, spans_path)
        try:
            client = AcpClient(f"unix://{socket_path}")
            handle = client.attach("mp-hars-e", self.shapes, stream_events=True)
            attached = clock()
            loop = self._drive(handle)
            end = clock()
        finally:
            stop_daemon(proc)
        rpc_s = loop["rpc_s"]
        problems: List[str] = []
        apps = loop["outcome"].metrics.apps
        if len(apps) != len(self.expected):
            problems.append(f"result has {len(apps)} apps")
        for app, beats in zip(apps, self.expected):
            if app.heartbeats != beats:
                problems.append(
                    f"{app.app_name}: {app.heartbeats}/{beats} heartbeats"
                )
        if loop["swaps"] != 1:
            problems.append(f"{loop['swaps']} policy-swapped events (want 1)")
        if loop["detached"].get("state") != "finished":
            problems.append(
                f"detach left state {loop['detached'].get('state')!r}"
            )
        metrics = loop["outcome"].metrics
        return Journey(
            wall_s=end - attached,
            setup_s=attached - start,
            sim_s=metrics.elapsed_s,
            served=len(rpc_s),
            attempted=len(rpc_s),
            failed=client.stats["retries"],
            perf_per_watt=metrics.perf_per_watt,
            energy_j=_run_energy_j(metrics),
            problems=problems,
            fingerprint=digest(
                [run_metrics_to_dict(metrics), loop["steps"], loop["frames"]]
            ),
            setup_window=(start, attached),
            window=(attached, end),
            parts=[(end - attached, (attached, end))],
            detail={
                "steps": loop["steps"],
                "event_frames": loop["frames"],
                "daemon_spans": spans_path,
            },
            rpc_s=rpc_s,
        )

    def _drive(self, handle) -> Dict[str, object]:
        """The closed loop: advance + events until finished, one policy
        swap on the way, then result and detach; every RPC timed."""
        rpc_s: List[float] = []

        def rpc(call, *args):
            t = clock()
            value = call(*args)
            rpc_s.append(clock() - t)
            return value

        since = steps = frames = swaps = 0
        swapped = finished = False
        while not finished:
            status = rpc(handle.advance, ACP_QUANTUM_S)
            events = rpc(handle.events, since)
            steps += 1
            frames += len(events)
            swaps += sum(1 for e in events if e.type == "policy-swapped")
            if events:
                since = events[-1].seq
            if not swapped and status["time_s"] >= self.swap_at_s:
                rpc(handle.swap_policy, "hars-i")
                swapped = True
            finished = status["state"] == "finished"
        outcome = rpc(handle.result)
        detached = rpc(handle.detach)
        return {
            "rpc_s": rpc_s,
            "steps": steps,
            "frames": frames,
            "swaps": swaps,
            "outcome": outcome,
            "detached": detached,
        }


def stop_daemon(proc: subprocess.Popen) -> None:
    """Interrupt the daemon (it shuts down and writes its spans), then
    wait for it; kill it if it does not exit in time."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


WORKLOADS = {
    cls.name: cls for cls in (PaperRuns, FleetServing, FleetChaos, AcpControl)
}
