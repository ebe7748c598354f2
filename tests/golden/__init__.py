"""Golden run digests: byte-level fingerprints of reference runs.

A digest is the sha256 of canonical JSON over ``dataclasses.asdict`` of
a run's :class:`~repro.experiments.metrics.RunMetrics` plus every trace
row of every application.  Floats are written as ``repr(float(x))``
strings, so a numpy scalar's repr cannot move a digest between numpy
versions; dict keys are sorted and separators fixed.

A fleet run's digest is the same canonical JSON over
:meth:`~repro.fleet.cluster.FleetResult.summary`, its deterministic
fingerprint.

The warm restart and actuation-fault runs named in :data:`STATE_PINS`
carry a second digest, :func:`state_digest`, under ``"<name>/state"``:
the canonical JSON of the run's telemetry registry snapshot plus the
final checkpoint-store contents.  It pins what the run digest cannot
see — the per-manager MAPE series, the estimation-cache stats, the
fault counters and every checkpoint body.

The reference runs live in :data:`GOLDEN_RUNS` so the tests that assert
them (``tests/golden/test_golden_digests.py`` and the end-to-end parity
class in ``tests/kernel/test_batchplan.py``) and the kernel-overhead
benchmark replay exactly the shapes that were recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from pathlib import Path
from typing import Any, Callable, Dict

from repro.core.calibration import calibrate
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HARS_E
from repro.extensions.escape import StuckDetector
from repro.extensions.kalman import RatePredictor
from repro.experiments.runner import (
    RunConfig,
    RunOutcome,
    RunShape,
    _collect,
    measure_max_rate,
    run,
)
from repro.extensions.adaptive_manager import AdaptiveHarsManager
from repro.extensions.ratio_learning import OnlineRatioLearner
from repro.faults import FaultConfig, LifecycleEvent
from repro.fleet import (
    FleetConfig,
    FleetFaultConfig,
    NodeChaosEvent,
    ResilienceConfig,
    crash_wave,
)
from repro.fleet.cluster import FleetCluster, FleetResult
from repro.guardrails import GuardrailConfig
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.spec import odroid_xu3
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.supervision import SupervisorConfig
from repro.workloads.extra import make_extra_benchmark
from repro.workloads.parsec import make_benchmark

#: Where the recorded digests live, keyed by :data:`GOLDEN_RUNS` name.
GOLDEN_PATH = Path(__file__).with_name("digests.json")

#: The single-app shape the end-to-end planner runs share.
SINGLE_SHAPE = RunShape(
    benchmark="swaptions",
    n_units=80,
    n_threads=8,
    target_fraction=0.5,
    tolerance=0.1,
    seed=7,
)

#: The two-app MP-HARS-E co-run.
MULTI_SHAPES = (
    RunShape(
        benchmark="swaptions",
        n_units=60,
        n_threads=4,
        target_fraction=0.5,
        tolerance=0.1,
        seed=3,
    ),
    RunShape(
        benchmark="bodytrack",
        n_units=60,
        n_threads=4,
        target_fraction=0.6,
        tolerance=0.1,
        seed=4,
    ),
)

#: The kernel-overhead benchmark's native-size HARS-E run.
KERNEL_OVERHEAD_SHAPE = RunShape(benchmark="swaptions", n_units=400)

#: A small serving fleet under deadline-risk routing, with a crash wave
#: a fifth of the way into the arrivals, per-attempt retries and hedging.
FLEET_CONFIG = FleetConfig(
    nodes=20,
    requests=800,
    seed=5,
    chaos=FleetFaultConfig(
        seed=5, schedule=crash_wave(20, 0.10, at_s=800 / (20 * 8.0) / 5)
    ),
    resilience=ResilienceConfig(attempt_timeout_s=1.0, hedge_fraction=0.6),
)

#: The same fleet shape without chaos under least-loaded routing: the
#: plain join-the-shortest-base-queue path, every node routable.
FLEET_LEAST_LOADED_CONFIG = FleetConfig(nodes=20, requests=800, seed=5)

#: A bursty fleet with the crash wave but failover off, so routers keep
#: feeding the dead nodes, plus admission control: a queue-depth
#: brownout that demotes hot-lane arrivals to base and a best-base-wait
#: shed trigger, so the admission wait signal reaches the digest.
FLEET_BROWNOUT_CONFIG = FleetConfig(
    nodes=20,
    requests=800,
    seed=5,
    trace="burst",
    chaos=FleetFaultConfig(
        seed=5, schedule=crash_wave(20, 0.10, at_s=800 / (20 * 8.0) / 5)
    ),
    resilience=ResilienceConfig(
        failover=False, brownout_queue_depth=0.2, shed_wait_s=0.1
    ),
)

#: The ratio-learning run: blackscholes (true big:little ratio 1.0,
#: HARS assumes 1.5) under an AdaptiveHarsManager whose learner refits
#: r0 and swaps the performance model every adaptation period.
RATIO_LEARNING_SHAPE = RunShape(benchmark="blackscholes", n_units=120, seed=2)


#: The guardrail mix the controller-restart runs carry, so every
#: checkpointed controller (manager, supervisor, guardrail layer) is
#: attached and restarted.
RESTART_GUARDRAILS = GuardrailConfig(
    power_cap_w=4.0, damper_window=8, watchdog_window=8
)


def _restart_config(restarts_s, warm, hang=None, supervision=True):
    """Two ``controller_restart`` faults (plus an optional app hang)
    under supervision, guardrails and telemetry; ``warm`` adds a
    one-second checkpoint cadence."""
    events = [LifecycleEvent("controller_restart", at_s=t) for t in restarts_s]
    if hang is not None:
        events.append(LifecycleEvent("app_hang", at_s=hang[1], target=hang[0]))
    return RunConfig(
        faults=FaultConfig(seed=3, lifecycle_schedule=tuple(events)),
        supervision=supervision,
        guardrails=RESTART_GUARDRAILS,
        telemetry=True,
        checkpoint=1.0 if warm else None,
    )


def _hars_restart_config(warm: bool) -> RunConfig:
    return _restart_config((6.0, 14.0), warm)


def _mp_hars_restart_config(warm: bool) -> RunConfig:
    return _restart_config(
        (8.0, 20.0),
        warm,
        hang=("bodytrack-1", 12.0),
        supervision=SupervisorConfig(grace_factor=2.0),
    )


#: A fleet whose nodes hang, crash and slow down at seeded rates, with
#: a short stall threshold so hangs climb the whole health ladder
#: (degraded, quarantined, evicted) and crashes reboot into probation.
FLEET_HANG_LADDER_CONFIG = FleetConfig(
    nodes=20,
    requests=800,
    seed=5,
    chaos=FleetFaultConfig(
        seed=5,
        node_hang_rate=0.05,
        node_crash_rate=0.02,
        hang_duration_s=6.0,
        node_slowdown_rate=0.05,
    ),
    resilience=ResilienceConfig(stall_after_s=0.3),
)


#: The ``fleet_serving`` benchmark journey itself: 100 nodes, a 4000-
#: request Poisson trace, deadline-risk routing, no chaos.
FLEET_SERVING_CONFIG = FleetConfig(nodes=100, requests=4000, seed=1)

#: A chaos fleet with three threads per lane, so threads share cores
#: and a lane's backlog sums three in-service requests in dispatch
#: order: seeded crashes, hangs and slowdowns plus a crash wave, under
#: retries, hedging (cancels) and brownout admission.
FLEET_LANE3_CHAOS_CONFIG = FleetConfig(
    nodes=20,
    requests=800,
    seed=5,
    trace="burst",
    lane_threads=3,
    chaos=FleetFaultConfig(
        seed=5,
        node_crash_rate=0.01,
        node_hang_rate=0.01,
        node_slowdown_rate=0.01,
        schedule=crash_wave(20, 0.10, at_s=800 / (20 * 8.0) / 5),
    ),
    resilience=ResilienceConfig(
        attempt_timeout_s=1.0, hedge_fraction=0.6, brownout_queue_depth=2.0
    ),
)


#: A fleet whose nodes crash again after they reboot, so a crash time
#: is read against a later incarnation's boot epoch: nodes 3 and 11
#: crash in their second incarnation, and node 7's 2.0 s crash falls
#: while it is down (it reboots at 2.02) and is dropped.  One restart
#: per node, so second crashes evict.
FLEET_CRASH_REBOOT_CRASH_CONFIG = FleetConfig(
    nodes=20,
    requests=800,
    seed=5,
    chaos=FleetFaultConfig(
        seed=5,
        node_crash_rate=0.02,
        max_restarts=1,
        schedule=tuple(
            NodeChaosEvent(kind="node_crash", node=node, at_s=at_s)
            for node, at_s in (
                (3, 1.0), (3, 3.0), (7, 1.0), (7, 2.0),
                (11, 0.5), (11, 2.5), (11, 4.0),
            )
        ),
    ),
)


#: ferret, the six-stage pipeline, under HARS-EI: the interleaving
#: scheduler, and stage threads that block on their queues every tick,
#: so grant rounds 2 and 3 hand their core time to the co-tenants.
FERRET_SHAPE = RunShape(benchmark="ferret", n_units=60, seed=2)

#: blackscholes (a serial input phase, then barrier units) with no HARS
#: manager: the ``baseline`` run is GTS alone, placing unpinned threads
#: by their tracked load, and the ``ondemand`` run adds DVFS writes
#: between ticks, read from the engine's per-core utilization.
BLACKSCHOLES_SHAPE = RunShape(benchmark="blackscholes", n_units=40, seed=2)


def _runaway_config() -> RunConfig:
    """One ``app_runaway`` fault 5 s in: from then on the app runs at a
    speed factor other than 1 and its affinities are cleared before
    every tick's placement."""
    return RunConfig(
        faults=FaultConfig(
            seed=3,
            lifecycle_schedule=(LifecycleEvent("app_runaway", at_s=5.0),),
        )
    )


def _actuation_fault_config(seed: int) -> RunConfig:
    """Seeded DVFS and affinity write faults at half rate under
    telemetry: the actuator's retry-with-backoff path and the order of
    the injector's write rolls."""
    return RunConfig(
        faults=FaultConfig(
            dvfs_failure_rate=0.5, affinity_failure_rate=0.5, seed=seed
        ),
        telemetry=True,
    )


def _ratio_learning_run() -> RunOutcome:
    shape = RATIO_LEARNING_SHAPE
    spec = odroid_xu3()
    max_rate = measure_max_rate(spec, shape)
    target = PerformanceTarget.fraction_of(
        max_rate, shape.target_fraction, shape.tolerance
    )
    sim = Simulation(spec, tick_s=shape.tick_s)
    model = make_benchmark(shape.benchmark, shape.n_units, shape.n_threads)
    model.reset(shape.seed)
    app = sim.add_app(SimApp(shape.benchmark, model, target))
    manager = sim.add_controller(
        AdaptiveHarsManager(
            app.name,
            HARS_E,
            PerformanceEstimator(),
            calibrate(spec),
            adapt_every=shape.adapt_every,
            ratio_learner=OnlineRatioLearner(),
        )
    )
    sim.run(until_s=600.0)
    return RunOutcome(
        metrics=_collect("hars-e+ratio", sim, [app], [manager], sim.clock.now_s),
        trace=sim.trace,
        target=target,
        max_rate=max_rate,
    )


def adaptive_stage_aware_run():
    """x264 under every AdaptiveHarsManager plugin at once: the Kalman
    rate filter, online ratio learning, the stuck-detector escape and
    stage-aware placement.  The 9–11/s target sits above what the
    platform sustains for this model, so the search saturates and the
    escape fires.  Returns ``(outcome, manager)``."""
    spec = odroid_xu3()
    target = PerformanceTarget(9.0, 10.0, 11.0)
    sim = Simulation(spec)
    model = make_extra_benchmark("x264", n_units=120)
    model.reset(5)
    app = sim.add_app(SimApp("x264", model, target))
    manager = sim.add_controller(
        AdaptiveHarsManager(
            app.name,
            HARS_E,
            PerformanceEstimator(),
            calibrate(spec),
            predictor=RatePredictor(),
            stuck_detector=StuckDetector(threshold=3),
            ratio_learner=OnlineRatioLearner(),
            stage_aware=True,
        )
    )
    sim.run(until_s=600.0)
    outcome = RunOutcome(
        metrics=_collect(
            "hars-e+adaptive", sim, [app], [manager], sim.clock.now_s
        ),
        trace=sim.trace,
        target=target,
        max_rate=0.0,
    )
    return outcome, manager


def _canonical(value: Any) -> Any:
    """``value`` with every float as its ``repr`` string, JSON-ready."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, numbers.Integral):
        return int(value)
    return repr(float(value))


def outcome_digest(outcome) -> str:
    """sha256 of the canonical JSON of a run's metrics and trace rows
    (of its ``summary()`` for a fleet run)."""
    if isinstance(outcome, FleetResult):
        payload = _canonical(outcome.summary())
    else:
        payload = {
            "metrics": _canonical(dataclasses.asdict(outcome.metrics)),
            "trace": {
                name: _canonical(outcome.trace.points(name))
                for name in sorted(outcome.trace.app_names)
            },
        }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def state_digest(outcome: RunOutcome) -> str:
    """sha256 of the canonical JSON of a run's telemetry registry
    snapshot plus its final checkpoint-store contents (none when the run
    keeps no store)."""
    store = outcome.checkpoint_store
    ids = store.controller_ids if store is not None else ()
    payload = {
        "telemetry": _canonical(outcome.telemetry.registry.snapshot()),
        "checkpoints": _canonical({cid: store.get(cid) for cid in ids}),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Runs whose telemetry and checkpoints are pinned by
#: :func:`state_digest` as well, under ``"<name>/state"``.
STATE_PINS = (
    "hars-e-restart-warm-x80",
    "mp-hars-e-restart-warm-hang-x60",
    "hars-e-actuation-faults-x80",
    "mp-hars-e-actuation-faults-x60",
)


#: name -> zero-argument callable producing the reference run.
GOLDEN_RUNS: Dict[str, Callable[[], Any]] = {
    "hars-i-swaptions-x80": lambda: run("hars-i", SINGLE_SHAPE, RunConfig()),
    "hars-e-swaptions-x80": lambda: run("hars-e", SINGLE_SHAPE, RunConfig()),
    "hars-ei-swaptions-x80": lambda: run("hars-ei", SINGLE_SHAPE, RunConfig()),
    "mp-hars-e-swaptions-bodytrack-x60": lambda: run(
        "mp-hars-e", list(MULTI_SHAPES), RunConfig()
    ),
    "hars-e-swaptions-x400": lambda: run(
        "hars-e", KERNEL_OVERHEAD_SHAPE, RunConfig()
    ),
    "fleet-deadline-risk-x20-crash-hedge": lambda: FleetCluster(
        FLEET_CONFIG, router="deadline-risk"
    ).run(),
    "fleet-least-loaded-x20": lambda: FleetCluster(
        FLEET_LEAST_LOADED_CONFIG, router="least-loaded"
    ).run(),
    "fleet-deadline-risk-x20-brownout-no-failover": lambda: FleetCluster(
        FLEET_BROWNOUT_CONFIG, router="deadline-risk"
    ).run(),
    "hars-e-ratio-learning-blackscholes-x120": _ratio_learning_run,
    "hars-e-restart-warm-x80": lambda: run(
        "hars-e", SINGLE_SHAPE, _hars_restart_config(warm=True)
    ),
    "hars-e-restart-cold-x80": lambda: run(
        "hars-e", SINGLE_SHAPE, _hars_restart_config(warm=False)
    ),
    "mp-hars-e-restart-warm-hang-x60": lambda: run(
        "mp-hars-e", list(MULTI_SHAPES), _mp_hars_restart_config(warm=True)
    ),
    "mp-hars-e-restart-cold-hang-x60": lambda: run(
        "mp-hars-e", list(MULTI_SHAPES), _mp_hars_restart_config(warm=False)
    ),
    "fleet-deadline-risk-x20-hang-ladder": lambda: FleetCluster(
        FLEET_HANG_LADDER_CONFIG, router="deadline-risk"
    ).run(),
    "adaptive-hars-e-x264-stage-aware-x120": lambda: (
        adaptive_stage_aware_run()[0]
    ),
    "fleet-serving-x100-seed1": lambda: FleetCluster(
        FLEET_SERVING_CONFIG, router="deadline-risk"
    ).run(),
    "fleet-lane3-chaos-x20": lambda: FleetCluster(
        FLEET_LANE3_CHAOS_CONFIG, router="deadline-risk"
    ).run(),
    "fleet-deadline-risk-x20-crash-reboot-crash": lambda: FleetCluster(
        FLEET_CRASH_REBOOT_CRASH_CONFIG, router="deadline-risk"
    ).run(),
    "hars-e-actuation-faults-x80": lambda: run(
        "hars-e", SINGLE_SHAPE, _actuation_fault_config(seed=4)
    ),
    "mp-hars-e-actuation-faults-x60": lambda: run(
        "mp-hars-e", list(MULTI_SHAPES), _actuation_fault_config(seed=1)
    ),
    "hars-ei-ferret-x60": lambda: run("hars-ei", FERRET_SHAPE, RunConfig()),
    "baseline-blackscholes-x40": lambda: run(
        "baseline", BLACKSCHOLES_SHAPE, RunConfig()
    ),
    "ondemand-blackscholes-x40": lambda: run(
        "ondemand", BLACKSCHOLES_SHAPE, RunConfig()
    ),
    "hars-e-app-runaway-x80": lambda: run(
        "hars-e", SINGLE_SHAPE, _runaway_config()
    ),
}


def load_golden() -> Dict[str, str]:
    """The recorded digests, keyed by :data:`GOLDEN_RUNS` name."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
