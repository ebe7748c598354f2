"""MAPE-K control plane.

One adaptation cycle of every HARS-family manager decomposes into the
classic Monitor → Analyze → Plan → Execute stages over a shared
:class:`Knowledge` store:

* **Monitor** — polls the heartbeat stream, samples the windowed rate
  at adaptation-period boundaries, and optionally filters it (the
  Kalman :class:`~repro.extensions.kalman.RatePredictor` plugs in
  here).
* **Analyze** — classifies the rate against the app's target window.
* **Plan** — Algorithm 2 neighbourhood search over the cached
  estimation layer.  Policies (HARS-I/E/EI search spaces), the
  local-optimum escape detector, and MP-HARS's partition/freeze
  candidate filter are all Plan-stage plugins.
* **Execute** — applies the planned state through the actuation
  façade; the concrete apply function is supplied by the manager
  (chunk/interleaved placement, stage-aware placement, or MP-HARS's
  partitioned placement).

The **K** — :class:`Knowledge` — holds what stages share: the platform
spec, the estimation layer, per-app applied states, and the
exploration/adaptation counters.

:class:`MapeManager` is what "a MAPE-K manager" means everywhere else in
the runtime: HARS, its adaptive variant and MP-HARS subclass it, wire
their own :class:`MapeLoop`, and inherit one estimator/counter façade,
one overhead formula and one checkpoint envelope.  The telemetry hub,
the guardrail layer and the ACP policy swap select managers with
``isinstance(controller, MapeManager)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Optional,
    Sequence,
)

# The scalar Algorithm 2 oracle stays importable from this module: the
# benchmark's span table (perfbench/spans.py) wraps it here.  Plans
# themselves run on the tensorized sweep.
from repro.core.search import get_next_sys_state  # noqa: F401
from repro.core.state import SystemState
from repro.errors import ConfigurationError
from repro.heartbeats.record import Heartbeat
from repro.heartbeats.targets import Satisfaction
from repro.kernel.batchplan import batch_next_sys_state
from repro.kernel.estimation import EstimationLayer
from repro.supervision.checkpoint import CheckpointedController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.perf_estimator import PerformanceEstimator
    from repro.core.policy import HarsPolicy, SearchSpace
    from repro.core.power_estimator import PowerEstimator
    from repro.platform.spec import PlatformSpec
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp


class Knowledge:
    """The K of MAPE-K: state the four stages share."""

    def __init__(self, estimation: EstimationLayer):
        self.spec: Optional["PlatformSpec"] = None
        self.estimation = estimation
        self.states_explored = 0
        self.adaptations = 0
        #: Candidates skipped on estimation errors across all cycles.
        self.estimation_failures = 0
        #: Box candidates rejected by the Manhattan-distance prune
        #: across all cycles (telemetry's ``search_pruned_total``).
        self.states_pruned = 0
        #: Candidates vetoed by a guardrail filter across all cycles
        #: (telemetry's ``search_filtered_total``).
        self.states_filtered = 0
        #: Manager-specific knowledge (MP-HARS keeps its per-app
        #: partition data and per-cluster bookkeeping here).
        self.domain: Dict[str, Any] = {}
        self._states: Dict[str, SystemState] = {}

    def bind(self, spec: "PlatformSpec") -> None:
        """Attach the platform spec (known once the sim starts)."""
        self.spec = spec

    def state_of(self, app_name: str) -> Optional[SystemState]:
        return self._states.get(app_name)

    def set_state(self, app_name: str, state: Optional[SystemState]) -> None:
        if state is None:
            self._states.pop(app_name, None)
        else:
            self._states[app_name] = state


@dataclass(frozen=True)
class Observation:
    """Monitor output: one adaptation-boundary rate sample."""

    app_name: str
    heartbeat_index: int
    raw_rate: float
    rate: float  # filtered (== raw_rate without a rate filter)


@dataclass(frozen=True)
class Analysis:
    """Analyzer output: the rate classified against the target."""

    satisfaction: Satisfaction
    out_of_window: bool


@dataclass(frozen=True)
class PlanResult:
    """Planner output: the chosen state plus search accounting."""

    state: SystemState
    states_explored: int
    escaped: bool = False
    #: Candidates the Algorithm 2 sweep skipped on estimation errors.
    estimation_failures: int = 0
    #: Box candidates the Manhattan-distance prune rejected.
    pruned: int = 0
    #: Candidates a guardrail filter vetoed (budget caps).
    filtered: int = 0
    #: The winning candidate with its estimates
    #: (:class:`~repro.core.search.EvaluatedState`) — what the
    #: misprediction watchdog compares the next observation against.
    evaluated: Optional[Any] = None


@dataclass
class CycleContext:
    """Everything one MAPE cycle accumulates; handed to Execute."""

    app: "SimApp"
    current: SystemState
    observation: Observation
    analysis: Analysis
    plan: Optional[PlanResult] = None
    adapted: bool = False
    #: Scratch space plan-stage plugins use to pass data to Execute
    #: (e.g. MP-HARS's per-cluster frequency decisions).
    notes: Dict[str, Any] = field(default_factory=dict)


class Monitor:
    """M: heartbeat polling and boundary-rate sampling.

    ``sensors`` run on *every* heartbeat (MP-HARS drains freeze counts
    and records last-seen rates here); ``rate_filter`` smooths the
    boundary sample (the Kalman predictor).
    """

    def __init__(
        self,
        adapt_every: int,
        rate_filter: Optional[Any] = None,
        sensors: Sequence[Callable[["SimApp", Heartbeat], None]] = (),
    ):
        self.adapt_every = adapt_every
        self.rate_filter = rate_filter
        self.sensors = list(sensors)
        self.polled = 0

    def observe(
        self, app: "SimApp", heartbeat: Heartbeat, force: bool = False
    ) -> Optional[Observation]:
        """Sample the boundary rate (every heartbeat with ``force``).

        ``force`` skips the adaptation-period boundary check — the
        supervisor uses it to trigger an immediate repartition after an
        eviction instead of waiting for the next boundary.
        """
        for sensor in self.sensors:
            sensor(app, heartbeat)
        self.polled += 1
        if not force and (
            heartbeat.index == 0 or heartbeat.index % self.adapt_every != 0
        ):
            return None
        raw = app.monitor.current_rate()
        if raw is None:
            return None
        rate = self.rate_filter.observe(raw) if self.rate_filter else raw
        return Observation(
            app_name=app.name,
            heartbeat_index=heartbeat.index,
            raw_rate=raw,
            rate=rate,
        )


class Analyzer:
    """A: classify an observed rate against the performance target."""

    def analyze(self, rate: float, target: Any) -> Analysis:
        return Analysis(
            satisfaction=target.classify(rate),
            out_of_window=target.out_of_window(rate),
        )


class SearchPlanner:
    """P: Algorithm 2 over the cached estimation layer.

    The sweep runs on the state-space tensors of
    :mod:`repro.kernel.batchplan`, bit-identical to the scalar oracle
    :func:`repro.core.search.get_next_sys_state`.

    Plugins:

    * ``policy`` — supplies the over/underperformance search spaces
      (HARS-I/E/EI are just different policies).
    * ``escape`` — an object with ``note_in_window(state)`` /
      ``note_out_of_window(state) -> bool``; when the latter trips,
      the search widens to ``escape_space(spec)``.
    * ``constraint`` — called with the cycle context, returns a
      candidate filter (MP-HARS's partition/freeze gating).
    * ``guard`` — an optional guardrail hook
      (:class:`~repro.guardrails.layer.GuardrailLayer`) installed after
      construction, exactly like the loop's ``telemetry`` observer.  It
      may narrow the search space (``adjust_space`` — the watchdog's
      incremental safe mode) and veto candidates (``candidate_veto`` —
      the budget cap); ``None`` (the default) costs nothing and the
      plan is identical to an unguarded one.
    """

    def __init__(
        self,
        policy: "HarsPolicy",
        escape: Optional[Any] = None,
        escape_space: Optional[Callable[["PlatformSpec"], "SearchSpace"]] = None,
        constraint: Optional[
            Callable[[CycleContext], Callable[[SystemState, SystemState], bool]]
        ] = None,
    ):
        self.policy = policy
        self.escape = escape
        self.escape_space = escape_space
        self.constraint = constraint
        self.escapes = 0
        #: Optional guardrail hook; installed by the guardrail layer,
        #: never by the planner itself.
        self.guard: Optional[Any] = None
        #: The engine's batch-plan service (``Simulation.plan_service``),
        #: bound by :meth:`MapeLoop.bind`; it counts plans and meters
        #: batch sizes, one plan per call.  Unbound planners call
        #: :func:`~repro.kernel.batchplan.batch_next_sys_state`
        #: directly.
        self.plan_service: Optional[Any] = None

    def notify_in_window(self, current: SystemState) -> None:
        if self.escape is not None:
            self.escape.note_in_window(current)

    def plan(self, knowledge: Knowledge, ctx: CycleContext) -> PlanResult:
        space = self.policy.space_for(ctx.analysis.satisfaction)
        escaped = False
        if (
            self.escape is not None
            and self.escape.note_out_of_window(ctx.current)
            and self.escape_space is not None
        ):
            space = self.escape_space(knowledge.spec)
            escaped = True
            self.escapes += 1
        candidate_filter = (
            self.constraint(ctx) if self.constraint is not None else None
        )
        guard = self.guard
        guard_filter = None
        if guard is not None:
            space = guard.adjust_space(ctx, space)
            guard_filter = guard.candidate_veto(knowledge, ctx)
        plan_kwargs = dict(
            spec=knowledge.spec,
            current=ctx.current,
            observed_rate=ctx.observation.rate,
            n_threads=ctx.app.n_threads,
            target=ctx.app.target,
            space=space,
            estimation=knowledge.estimation,
            candidate_filter=candidate_filter,
            guard_filter=guard_filter,
        )
        service = self.plan_service
        result = (
            service.plan(**plan_kwargs)
            if service is not None
            else batch_next_sys_state(**plan_kwargs)
        )
        return PlanResult(
            state=result.state,
            states_explored=result.states_explored,
            escaped=escaped,
            estimation_failures=result.estimation_failures,
            pruned=result.pruned,
            filtered=result.filtered,
            evaluated=result.best,
        )


class Executor:
    """E: hand the planned state to the manager's apply function.

    The apply function receives ``(sim, ctx, state)`` and is expected
    to act only through ``sim.actuator``.
    """

    def __init__(
        self,
        apply_fn: Callable[["Simulation", CycleContext, SystemState], None],
    ):
        self.apply_fn = apply_fn

    def execute(
        self, sim: "Simulation", ctx: CycleContext, state: SystemState
    ) -> None:
        self.apply_fn(sim, ctx, state)


class MapeLoop:
    """Orchestrates one Monitor → Analyze → Plan → Execute cycle.

    ``updaters`` run between Monitor and Analyze on every boundary
    observation and may rewrite Knowledge (online ratio learning swaps
    the performance estimator here).  ``current_state_fn`` overrides
    where the cycle's notion of "current state" comes from (MP-HARS
    derives it from partition ownership); the default reads the
    Knowledge store.  With ``always_execute`` the Execute stage runs
    even when the plan equals the current state (MP-HARS re-applies to
    refresh partitions); ``count_adaptations`` controls whether the
    loop increments ``knowledge.adaptations`` on a state change
    (managers that meter adaptation themselves switch it off).

    ``telemetry`` is an optional per-phase observer (the telemetry
    hub's :class:`~repro.telemetry.hub.MapeTelemetry`) installed after
    construction; it is read-only — with or without one the cycle's
    decisions are identical — and ``None`` (the default) costs nothing.

    ``guard`` is the same pattern for the guardrail layer, but it is
    *not* read-only: ``on_observation`` feeds the misprediction
    watchdog, ``adjust_plan`` lets the oscillation damper override the
    planned state (hysteresis holds), and ``note_cycle`` records the
    decision for the sliding thrash window.  ``None`` (the default)
    costs nothing and the loop behaves exactly as before the layer
    existed.
    """

    def __init__(
        self,
        knowledge: Knowledge,
        monitor: Monitor,
        analyzer: Analyzer,
        planner: SearchPlanner,
        executor: Executor,
        updaters: Iterable[Any] = (),
        current_state_fn: Optional[
            Callable[["Simulation", "SimApp"], Optional[SystemState]]
        ] = None,
        always_execute: bool = False,
        count_adaptations: bool = True,
        stale_after_s: Optional[float] = None,
    ):
        self.knowledge = knowledge
        self.monitor = monitor
        self.analyzer = analyzer
        self.planner = planner
        self.executor = executor
        self.updaters = list(updaters)
        self.current_state_fn = current_state_fn
        self.always_execute = always_execute
        self.count_adaptations = count_adaptations
        #: Observations older than this (delivery stalled) are not acted
        #: on; ``None`` disables the staleness guard.
        self.stale_after_s = stale_after_s
        #: Cycles where the loop held the last good state because the
        #: observation channel was degraded (non-positive, non-finite,
        #: or stale rate) — the graceful-degradation counter.
        self.held_cycles = 0
        #: Optional MAPE-phase observer (``MapeTelemetry``); installed
        #: by the telemetry hub, never by the loop itself.
        self.telemetry: Optional[Any] = None
        #: Optional guardrail hook (``GuardrailLayer``); installed by
        #: the guardrail layer, never by the loop itself.
        self.guard: Optional[Any] = None

    def counters(self) -> Dict[str, int]:
        """The cycle counters a checkpoint carries across a restart."""
        return {
            "adaptations": self.knowledge.adaptations,
            "states_explored": self.knowledge.states_explored,
            "estimation_failures": self.knowledge.estimation_failures,
            "held_cycles": self.held_cycles,
            "polled": self.monitor.polled,
        }

    def restore_counters(self, counters: Dict[str, Any]) -> None:
        """Re-adopt :meth:`counters`; a missing key keeps its value."""
        knowledge = self.knowledge
        for key in ("adaptations", "states_explored", "estimation_failures"):
            current = getattr(knowledge, key)
            setattr(knowledge, key, int(counters.get(key, current)))
        self.held_cycles = int(counters.get("held_cycles", self.held_cycles))
        self.monitor.polled = int(counters.get("polled", self.monitor.polled))

    def bind(self, sim: "Simulation") -> None:
        """Attach the running simulation: its platform spec to the
        Knowledge store and its batch-plan service to the planner."""
        self.knowledge.bind(sim.spec)
        self.planner.plan_service = sim.plan_service

    def on_heartbeat(
        self,
        sim: "Simulation",
        app: "SimApp",
        heartbeat: Heartbeat,
        force: bool = False,
    ) -> Optional[CycleContext]:
        """Run one cycle; returns the context if Plan ran, else None.

        ``force`` runs a full cycle off-boundary and even when the rate
        is inside the target window — used for the immediate
        repartition after a supervisor eviction frees cores.  The
        degraded-observation guards (non-positive, non-finite, stale
        rates) still hold the last good state.
        """
        telemetry = self.telemetry
        observation = self.monitor.observe(app, heartbeat, force=force)
        if telemetry is not None:
            telemetry.on_monitor(observation)
        if observation is None:
            return None
        if observation.rate <= 0 or not math.isfinite(observation.rate):
            # The observation channel is lying (sensor fault, degenerate
            # rate filter): planning on it would crash the search or
            # thrash the platform.  Hold the last good state instead.
            self.held_cycles += 1
            if telemetry is not None:
                telemetry.on_held()
            return None
        if (
            self.stale_after_s is not None
            and sim.clock.now_s - heartbeat.time_s > self.stale_after_s
        ):
            # The heartbeat's delivery stalled long enough that the rate
            # no longer describes the present: hold the last good state.
            self.held_cycles += 1
            if telemetry is not None:
                telemetry.on_held()
            return None
        if self.current_state_fn is not None:
            current = self.current_state_fn(sim, app)
        else:
            current = self.knowledge.state_of(app.name)
        if current is None:
            return None
        guard = self.guard
        if guard is not None:
            guard.on_observation(sim, app, current, observation)
        for updater in self.updaters:
            updater.update(self.knowledge, app, current, observation)
        analysis = self.analyzer.analyze(observation.rate, app.target)
        if telemetry is not None:
            telemetry.on_analysis(analysis)
        if not analysis.out_of_window and not force:
            self.planner.notify_in_window(current)
            # The guard can demand a cycle even inside the target window:
            # a rate that satisfies the application tells nothing about a
            # violated power budget, and only a planned (vetoed) search
            # can shrink the allocation back under the cap.
            if guard is None or not guard.wants_cycle(sim, app):
                return None
        ctx = CycleContext(
            app=app,
            current=current,
            observation=observation,
            analysis=analysis,
        )
        plan = self.planner.plan(self.knowledge, ctx)
        if guard is not None:
            plan = guard.adjust_plan(sim, self.knowledge, ctx, plan)
        ctx.plan = plan
        if telemetry is not None:
            telemetry.on_plan(plan)
        self.knowledge.states_explored += plan.states_explored
        self.knowledge.estimation_failures += plan.estimation_failures
        self.knowledge.states_pruned += plan.pruned
        self.knowledge.states_filtered += plan.filtered
        ctx.adapted = plan.state != current
        if ctx.adapted and self.count_adaptations:
            self.knowledge.adaptations += 1
        if ctx.adapted or self.always_execute:
            self.executor.execute(sim, ctx, plan.state)
            if telemetry is not None:
                telemetry.on_execute(ctx.adapted)
            if guard is not None:
                guard.note_cycle(sim, ctx, executed=True)
        elif guard is not None:
            guard.note_cycle(sim, ctx, executed=False)
        return ctx


class MapeManager(CheckpointedController):
    """A checkpointed controller that adapts through a :class:`MapeLoop`.

    The base owns what every HARS-family manager shares: the policy,
    the modelled costs, one :class:`Knowledge` store over the two
    estimators, the estimator/counter façade, the CPU-overhead formula
    (``docs/modelling.md`` §7) and the checkpoint fields common to both
    managers.  Subclasses build ``self.mape`` over ``self.knowledge``
    and supply the :class:`CheckpointedController` hooks.
    """

    #: The subclass's loop, wired in its constructor.
    mape: MapeLoop

    def __init__(
        self,
        policy: "HarsPolicy",
        perf_estimator: "PerformanceEstimator",
        power_estimator: "PowerEstimator",
        adapt_every: int,
        state_eval_cost_s: float,
        poll_cost_s: float,
    ):
        if adapt_every < 1:
            raise ConfigurationError("adapt_every must be >= 1")
        self.policy = policy
        self.state_eval_cost_s = state_eval_cost_s
        self.poll_cost_s = poll_cost_s
        self.knowledge = Knowledge(
            EstimationLayer(perf_estimator, power_estimator)
        )

    @property
    def perf_estimator(self):
        """The (cached) performance estimator the search consults."""
        return self.knowledge.estimation.perf

    @perf_estimator.setter
    def perf_estimator(self, estimator: "PerformanceEstimator") -> None:
        self.knowledge.estimation.set_perf_estimator(estimator)

    @property
    def power_estimator(self):
        """The (cached) power estimator the search consults."""
        return self.knowledge.estimation.power

    @power_estimator.setter
    def power_estimator(self, estimator: "PowerEstimator") -> None:
        self.knowledge.estimation.set_power_estimator(estimator)

    @property
    def adapt_every(self) -> int:
        return self.mape.monitor.adapt_every

    @adapt_every.setter
    def adapt_every(self, value: int) -> None:
        self.mape.monitor.adapt_every = value

    @property
    def heartbeats_polled(self) -> int:
        return self.mape.monitor.polled

    @property
    def states_explored_total(self) -> int:
        return self.knowledge.states_explored

    @property
    def adaptations(self) -> int:
        return self.knowledge.adaptations

    @property
    def held_cycles(self) -> int:
        """Cycles where a degraded observation held the last good state."""
        return self.mape.held_cycles

    def cpu_overhead_seconds(self) -> float:
        return (
            self.states_explored_total * self.state_eval_cost_s
            + self.heartbeats_polled * self.poll_cost_s
        )

    def cpu_utilization_percent(self, elapsed_s: float) -> float:
        """Manager overhead as a percentage of one core (Fig 5.3b)."""
        if elapsed_s <= 0:
            raise ConfigurationError("elapsed time must be positive")
        return 100.0 * self.cpu_overhead_seconds() / elapsed_s

    def _checkpoint(
        self, now_s: float, body: Dict[str, Any]
    ) -> Dict[str, Any]:
        """``body`` plus the shared fields (controller class, fitted
        power model, MAPE counters), in the checkpoint envelope."""
        # Lazy import: serialize sits above the manager layer.
        from repro.experiments.serialize import (
            checkpoint_payload,
            power_model_to_dict,
        )

        return checkpoint_payload(
            self.checkpoint_id,
            now_s,
            {
                "controller": type(self).__name__,
                **body,
                "power_model": power_model_to_dict(self.power_estimator),
                "counters": self.mape.counters(),
            },
        )
