"""Experiment runner: build, run and measure one simulation.

The runner owns the methodology details shared by every figure:

* the *maximum achievable performance* of a benchmark is measured by a
  baseline run (max cores, max frequency, GTS) — targets are fractions
  of it (50 % ± 5 % default, 75 % ± 5 % high);
* every run gets a fresh simulation, platform and workload, seeded
  deterministically;
* runs are bounded by a generous safety timeout so a mis-adapted run
  terminates rather than hanging.

Measured max rates are memoized per (platform, benchmark, shape) because
figure sweeps revisit them constantly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.manager import HarsManager
from repro.errors import ConfigurationError
from repro.experiments.metrics import AppRunMetrics, RunMetrics
from repro.faults import FaultConfig, FaultInjector
from repro.guardrails import GuardrailConfig, GuardrailLayer
from repro.experiments.versions import (
    attach_multi_app_version,
    attach_single_app_version,
)
from repro.fleet.config import FleetConfig
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.spec import PlatformSpec, odroid_xu3
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.sim.tracing import TraceRecorder
from repro.supervision import (
    CheckpointStore,
    Checkpointer,
    Supervisor,
    SupervisorConfig,
)
from repro.telemetry.hub import TelemetryHub
from repro.workloads.parsec import make_benchmark, resolve_name

#: Default target window half-width (the paper's ±5 %).
DEFAULT_TOLERANCE = 0.05

_MAX_RATE_CACHE: Dict[Tuple, float] = {}


@dataclass(frozen=True)
class RunShape:
    """Everything that defines one run apart from the version."""

    benchmark: str
    n_units: Optional[int] = None
    n_threads: int = 8
    target_fraction: float = 0.5
    tolerance: float = DEFAULT_TOLERANCE
    seed: int = 0
    tick_s: float = 0.01
    adapt_every: int = 5

    def __post_init__(self) -> None:
        resolve_name(self.benchmark)
        if not 0 < self.target_fraction <= 1:
            raise ConfigurationError("target fraction must be in (0, 1]")


@dataclass(frozen=True)
class RunConfig:
    """Everything that configures a run apart from version and shapes.

    :func:`run` takes one frozen ``RunConfig`` and threads it through
    unchanged.  All fields default to the plain run every figure uses.

    ``spec`` picks the platform (the ODROID-XU3 by default);
    ``faults`` / ``supervision`` / ``checkpoint`` attach the
    resilience layers; ``telemetry`` attaches the observation
    hub (:class:`~repro.telemetry.hub.TelemetryHub`) when true, and is
    provably result-neutral either way; ``guardrails`` attaches the runtime
    guardrail layer (:class:`~repro.guardrails.GuardrailLayer`) —
    ``None`` or an all-default :class:`~repro.guardrails.GuardrailConfig`
    attaches nothing and is bit-identical to a run without the layer;
    ``fleet`` switches :func:`run` to the fleet backend
    (:mod:`repro.fleet`) — ``shapes`` must then be ``None`` and the
    version names the routing policy.
    """

    spec: Optional[PlatformSpec] = None
    faults: Optional[FaultConfig] = None
    supervision: Union[SupervisorConfig, bool, None] = None
    checkpoint: Optional[float] = None
    telemetry: Optional[bool] = None
    guardrails: Optional[GuardrailConfig] = None
    fleet: Optional[FleetConfig] = None

    def __post_init__(self) -> None:
        if self.checkpoint is not None and self.checkpoint <= 0:
            raise ConfigurationError("checkpoint cadence must be positive")

    #: Sub-config fields ``with_`` deep-copies when not replaced.  The
    #: platform spec is excluded on purpose: it is immutable in practice
    #: and its identity keys the calibration cache.
    _SUBCONFIG_FIELDS = (
        "faults",
        "supervision",
        "guardrails",
        "fleet",
    )

    def with_(self, **changes) -> "RunConfig":
        """A copy with some fields replaced (sweep convenience).

        Sub-configs the caller does *not* replace are deep-copied rather
        than shared: ``dataclasses.replace`` alone would alias mutable
        payloads (a ``FaultConfig`` built from a schedule *list*, say)
        between the sibling configs, so editing the schedule after a
        ``with_()`` would silently rewrite the other run too — at fleet
        scale, one base config fans out to hundreds of nodes and the
        aliasing bites immediately.
        """
        for name in self._SUBCONFIG_FIELDS:
            if name not in changes:
                changes[name] = copy.deepcopy(getattr(self, name))
        return replace(self, **changes)


@dataclass
class RunOutcome:
    """Runner output: metrics plus the artefacts figures need."""

    metrics: RunMetrics
    trace: TraceRecorder
    target: PerformanceTarget
    max_rate: float
    #: Present when the run injected faults (``faults=`` was passed with
    #: at least one non-zero rate); carries injection/recovery counters.
    fault_injector: Optional[FaultInjector] = None
    #: Present when ``supervision=`` was passed; carries the quarantine
    #: ledger and eviction counters.
    supervisor: Optional[Supervisor] = None
    #: Present when ``checkpoint=`` was passed; the latest controller
    #: snapshots.
    checkpoint_store: Optional[CheckpointStore] = None
    #: Present when ``telemetry`` was enabled; carries the metrics
    #: registry (``outcome.telemetry.registry``) and the trace, ready
    #: for the :mod:`repro.telemetry.exporters`.
    telemetry: Optional[TelemetryHub] = None
    #: Present when ``guardrails=`` enabled at least one guardrail;
    #: carries trip counters, budget shares, and watchdog residuals.
    guardrails: Optional[GuardrailLayer] = None


def _attach_supervision(
    sim: Simulation,
    supervision: Union[SupervisorConfig, bool, None],
    checkpoint: Optional[float],
    checkpoint_store: Optional[CheckpointStore] = None,
) -> Tuple[Optional[Supervisor], Optional[CheckpointStore]]:
    """Attach the Supervisor / Checkpointer after the version controllers.

    ``supervision`` is a :class:`SupervisorConfig` (or ``True`` for the
    defaults); ``checkpoint`` is a snapshot cadence in simulated
    seconds.  Either can be used without the other.  ``checkpoint_store``
    seeds the Checkpointer with an existing store (the ACP daemon passes
    a recovered one so a restarted session restores warm).
    """
    supervisor: Optional[Supervisor] = None
    store: Optional[CheckpointStore] = None
    if supervision:
        config = (
            supervision
            if isinstance(supervision, SupervisorConfig)
            else None
        )
        supervisor = Supervisor(config)
        sim.add_controller(supervisor)
    if checkpoint is not None:
        checkpointer = Checkpointer(
            cadence_s=checkpoint, store=checkpoint_store
        )
        store = checkpointer.store
        sim.add_controller(checkpointer)
    return supervisor, store


def measure_max_rate(spec: PlatformSpec, shape: RunShape) -> float:
    """Maximum achievable heartbeat rate: a baseline run's overall rate."""
    key = (
        spec.name,
        resolve_name(shape.benchmark),
        shape.n_units,
        shape.n_threads,
        shape.seed,
        shape.tick_s,
    )
    if key in _MAX_RATE_CACHE:
        return _MAX_RATE_CACHE[key]
    sim = Simulation(spec, tick_s=shape.tick_s)
    model = make_benchmark(shape.benchmark, shape.n_units, shape.n_threads)
    model.reset(shape.seed)
    placeholder = PerformanceTarget(1.0, 1.0, 1.0)
    app = sim.add_app(SimApp(shape.benchmark, model, placeholder))
    attach_single_app_version(sim, app, "baseline")
    sim.run(until_s=_safety_horizon(model.total_heartbeats(), rate_floor=0.05))
    rate = app.log.overall_rate()
    if rate is None or rate <= 0:
        raise ConfigurationError(
            f"{shape.benchmark}: baseline run produced no measurable rate"
        )
    _MAX_RATE_CACHE[key] = rate
    return rate


def clear_max_rate_cache() -> None:
    """Forget memoized baseline rates (tests use this)."""
    _MAX_RATE_CACHE.clear()


def build_target(spec: PlatformSpec, shape: RunShape) -> PerformanceTarget:
    """The paper's target: ``fraction ± tolerance`` of max achievable."""
    max_rate = measure_max_rate(spec, shape)
    return PerformanceTarget.fraction_of(
        max_rate, shape.target_fraction, shape.tolerance
    )


def _attach_guardrails(
    sim: Simulation, config: RunConfig
) -> Optional[GuardrailLayer]:
    """Attach the guardrail layer between supervision and telemetry.

    A missing or all-default :class:`GuardrailConfig` attaches nothing:
    the run stays bit-identical to one predating the guardrail layer.
    """
    guardrail_config = config.guardrails
    if guardrail_config is None or not guardrail_config.enabled:
        return None
    layer = GuardrailLayer(guardrail_config)
    sim.add_controller(layer)
    return layer


def _attach_telemetry(
    sim: Simulation, version: str, config: RunConfig
) -> Optional[TelemetryHub]:
    """Attach the telemetry hub last, so it observes everything."""
    if not config.telemetry:
        return None
    hub = TelemetryHub()
    hub.set_run_info(version=version)
    sim.add_controller(hub)
    return hub


def run(
    version: str,
    shapes: Union[RunShape, Sequence[RunShape], None] = None,
    config: Optional[RunConfig] = None,
):
    """Run ``version`` over ``shapes`` under one :class:`RunConfig`.

    The unified entry point every figure, benchmark, and example uses:

    * a single :class:`RunShape` runs one application (the Figure
      5.1–5.3 methodology — targets as fractions of a solo baseline's
      maximum achievable rate);
    * a sequence of shapes runs them concurrently under a multi-app
      version (the Figure 5.4 / Section 5.2.1 methodology);
    * with ``config.fleet`` set, ``version`` names a routing policy
      (``"round-robin"``, ``"least-loaded"``, ``"deadline-risk"``),
      ``shapes`` must be ``None``, and the call returns a
      :class:`~repro.fleet.cluster.FleetResult` instead of a
      :class:`RunOutcome`.

    ``config`` defaults to ``RunConfig()`` — no faults, no supervision,
    no telemetry.  ``run`` always executes in this process; to run the
    same thing attached to a control plane, use
    ``AcpClient(endpoint).attach(version, shapes, config).result()``
    (:mod:`repro.acp.client`), which is bit-identical.
    """
    config = config or RunConfig()
    if config.fleet is not None:
        if shapes is not None:
            raise ConfigurationError(
                "a fleet run takes no shapes — the FleetConfig's trace "
                "defines the workload"
            )
        from repro.fleet import run_fleet

        return run_fleet(router=version, config=config.fleet)
    if shapes is None:
        raise ConfigurationError(
            "run() needs shapes unless config.fleet is set"
        )
    if isinstance(shapes, RunShape):
        prepared = prepare_single(version, shapes, config)
    else:
        shapes = list(shapes)
        if any(not isinstance(shape, RunShape) for shape in shapes):
            raise ConfigurationError(
                "run() takes one RunShape or a sequence of RunShapes"
            )
        prepared = prepare_multi(version, shapes, config)
    prepared.sim.run(until_s=prepared.horizon_s)
    return prepared.finish()


@dataclass
class PreparedRun:
    """A fully-constructed simulation that has not been stepped yet.

    Both execution paths share this object so they are the same run by
    construction: the in-process path (:func:`run`) steps it to its
    horizon in one ``sim.run`` call; an ACP session
    (:mod:`repro.acp.session`) steps it in bounded segments — interleaving
    control frames — through the *same* ``sim.run`` loop, so the tick
    sequence, and therefore every result bit, is identical.
    """

    version: str
    sim: Simulation
    apps: List[SimApp]
    controllers: List
    target: PerformanceTarget
    max_rate: float
    horizon_s: float
    supervisor: Optional[Supervisor]
    checkpoint_store: Optional[CheckpointStore]
    telemetry: Optional[TelemetryHub]
    guardrails: Optional[GuardrailLayer]

    def finish(self) -> RunOutcome:
        """Harvest the outcome once the simulation has run its course."""
        if self.telemetry is not None:
            self.telemetry.finalize()
        return RunOutcome(
            metrics=_collect(
                self.version,
                self.sim,
                self.apps,
                self.controllers,
                self.sim.clock.now_s,
            ),
            trace=self.sim.trace,
            target=self.target,
            max_rate=self.max_rate,
            fault_injector=self.sim.fault_injector,
            supervisor=self.supervisor,
            checkpoint_store=self.checkpoint_store,
            telemetry=self.telemetry,
            guardrails=self.guardrails,
        )


def prepare_single(
    version: str,
    shape: RunShape,
    config: RunConfig,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> PreparedRun:
    """Build (but do not step) a single-application run."""
    spec = config.spec or odroid_xu3()
    max_rate = measure_max_rate(spec, shape)
    target = PerformanceTarget.fraction_of(
        max_rate, shape.target_fraction, shape.tolerance
    )
    sim = Simulation(spec, tick_s=shape.tick_s, faults=config.faults)
    model = make_benchmark(shape.benchmark, shape.n_units, shape.n_threads)
    model.reset(shape.seed)
    app = sim.add_app(SimApp(shape.benchmark, model, target))
    controllers = attach_single_app_version(
        sim, app, version, adapt_every=shape.adapt_every
    )
    supervisor, store = _attach_supervision(
        sim, config.supervision, config.checkpoint, checkpoint_store
    )
    guardrails = _attach_guardrails(sim, config)
    hub = _attach_telemetry(sim, version, config)
    return PreparedRun(
        version=version,
        sim=sim,
        apps=[app],
        controllers=controllers,
        target=target,
        max_rate=max_rate,
        horizon_s=_safety_horizon(
            model.total_heartbeats(), rate_floor=target.min_rate / 4
        ),
        supervisor=supervisor,
        checkpoint_store=store,
        telemetry=hub,
        guardrails=guardrails,
    )


def prepare_multi(
    version: str,
    shapes: List[RunShape],
    config: RunConfig,
    checkpoint_store: Optional[CheckpointStore] = None,
) -> PreparedRun:
    """Build (but do not step) a multi-application run.

    All applications start at the same time (the paper's Section 5.2.1
    methodology); each gets its own target as a fraction of *its own*
    maximum achievable rate measured by a solo baseline run.  The run
    finishes when every application completes its work (evicted apps
    count as finished).
    """
    if not shapes:
        raise ConfigurationError("a multi-app run needs at least one shape")
    spec = config.spec or odroid_xu3()
    tick_s = shapes[0].tick_s
    adapt_every = shapes[0].adapt_every
    sim = Simulation(spec, tick_s=tick_s, faults=config.faults)
    apps: List[SimApp] = []
    slowest_floor = float("inf")
    total_beats = 0
    for position, shape in enumerate(shapes):
        max_rate = measure_max_rate(spec, shape)
        target = PerformanceTarget.fraction_of(
            max_rate, shape.target_fraction, shape.tolerance
        )
        model = make_benchmark(shape.benchmark, shape.n_units, shape.n_threads)
        model.reset(shape.seed)
        name = f"{resolve_name(shape.benchmark)}-{position}"
        apps.append(sim.add_app(SimApp(name, model, target)))
        slowest_floor = min(slowest_floor, target.min_rate / 4)
        total_beats = max(total_beats, model.total_heartbeats())
    controllers = attach_multi_app_version(
        sim, version, adapt_every=adapt_every
    )
    supervisor, store = _attach_supervision(
        sim, config.supervision, config.checkpoint, checkpoint_store
    )
    guardrails = _attach_guardrails(sim, config)
    hub = _attach_telemetry(sim, version, config)
    return PreparedRun(
        version=version,
        sim=sim,
        apps=apps,
        controllers=controllers,
        target=apps[0].target,
        max_rate=apps[0].target.avg_rate / shapes[0].target_fraction,
        horizon_s=2 * _safety_horizon(total_beats, rate_floor=slowest_floor),
        supervisor=supervisor,
        checkpoint_store=store,
        telemetry=hub,
        guardrails=guardrails,
    )


def _safety_horizon(total_heartbeats: int, rate_floor: float) -> float:
    """Upper bound on run time: the workload at a pessimistic rate."""
    if rate_floor <= 0:
        raise ConfigurationError("rate floor must be positive")
    return total_heartbeats / rate_floor + 120.0


def _collect(
    version: str,
    sim: Simulation,
    apps: List[SimApp],
    controllers: List,
    elapsed: float,
) -> RunMetrics:
    app_metrics = []
    for app in apps:
        overall = app.log.overall_rate() or 0.0
        try:
            mean_norm_perf = app.monitor.mean_normalized_performance()
        except ConfigurationError:
            # An app crashed/hung/was evicted before filling one rate
            # window: it delivered no usable performance.
            mean_norm_perf = 0.0
        app_metrics.append(
            AppRunMetrics(
                app_name=app.name,
                heartbeats=len(app.log),
                overall_rate=overall,
                mean_normalized_perf=mean_norm_perf,
                target_min=app.target.min_rate,
                target_avg=app.target.avg_rate,
                target_max=app.target.max_rate,
            )
        )
    overhead = sum(c.cpu_overhead_seconds() for c in controllers)
    final_state = ""
    for controller in controllers:
        state = getattr(controller, "state", None)
        if state is not None and hasattr(state, "describe"):
            final_state = state.describe()
    return RunMetrics(
        version=version,
        apps=tuple(app_metrics),
        elapsed_s=elapsed,
        avg_power_w=sim.sensor.average_power_w(),
        manager_overhead_s=overhead,
        final_state=final_state,
    )
