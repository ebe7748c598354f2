"""Built-in instrumentation: the telemetry hub.

The :class:`TelemetryHub` is a :class:`~repro.sim.controller.Controller`
that turns the existing observation seams into metrics without touching
any of them:

* every observation-relevant kernel bus event becomes a counter/gauge
  update (heartbeats, applied states, finished apps, fault
  injections/recoveries, supervision transitions, controller restores);
* every :class:`~repro.kernel.mape.MapeManager` gets a
  :class:`MapeTelemetry` recorder installed on its loop, metering the
  monitor/analyze/plan/execute phases with the *modelled* manager
  costs of ``docs/modelling.md`` §7 (so timer values are
  deterministic), Algorithm 2's search counters (states evaluated,
  pruned by Manhattan distance, estimation failures), and the
  observed-rate distribution;
* at :meth:`finalize` the hub harvests everything the engine already
  accounts exactly — tick count, per-rail energy and average power,
  the estimation layer's cache hit/miss totals, trace volume, and the
  simulated end time — without ever riding the per-tick hot path.

The hub is strictly observation-only: with it attached, a run's
metrics and traces are bit-identical to a run without it
(``benchmarks/bench_telemetry_overhead.py`` asserts this the same way
``bench_fault_tolerance`` asserts the fault layer's zero-rate
identity).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.guardrails.layer import GuardrailLayer
from repro.kernel.bus import (
    AppEvicted,
    AppFinished,
    AppQuarantined,
    AppSuspected,
    ControllerRestored,
    FaultInjected,
    FaultRecovered,
    GuardrailReleased,
    GuardrailTripped,
    HeartbeatEmitted,
    PolicySwapped,
    StateApplied,
)
from repro.kernel.mape import Analysis, MapeManager, Observation, PlanResult
from repro.platform.sensor import CHANNELS
from repro.sim.controller import Controller
from repro.telemetry.instruments import DEFAULT_BUCKETS
from repro.telemetry.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation


class MapeTelemetry:
    """Per-manager MAPE phase recorder installed on a
    :class:`~repro.kernel.mape.MapeLoop` (``loop.telemetry``).

    Phase timers carry the modelled costs Figure 5.3(b) meters — poll
    cost per monitored heartbeat, candidate-evaluation cost per planned
    state — never host wall time, so telemetry output is deterministic.
    """

    __slots__ = (
        "poll_cost_s",
        "state_eval_cost_s",
        "_monitor_timer",
        "_plan_timer",
        "_monitor_count",
        "_analyze_count",
        "_plan_count",
        "_execute_count",
        "_held_count",
        "_out_of_window",
        "_adaptations",
        "_escapes",
        "_rate_hist",
        "_explored",
        "_pruned",
        "_failures",
        "_filtered",
    )

    def __init__(
        self,
        registry: MetricsRegistry,
        controller: str,
        poll_cost_s: float = 0.0,
        state_eval_cost_s: float = 0.0,
    ):
        self.poll_cost_s = poll_cost_s
        self.state_eval_cost_s = state_eval_cost_s
        self._monitor_timer = registry.timer(
            "mape_monitor_seconds",
            "Modelled Monitor-phase CPU seconds (poll cost per heartbeat).",
        ).child(controller=controller)
        self._plan_timer = registry.timer(
            "mape_plan_seconds",
            "Modelled Plan-phase CPU seconds (eval cost per candidate).",
        ).child(controller=controller)
        phases = registry.counter(
            "mape_phase_total", "MAPE phase executions per manager."
        )
        self._monitor_count = phases.child(
            controller=controller, phase="monitor"
        )
        self._analyze_count = phases.child(
            controller=controller, phase="analyze"
        )
        self._plan_count = phases.child(controller=controller, phase="plan")
        self._execute_count = phases.child(
            controller=controller, phase="execute"
        )
        self._held_count = registry.counter(
            "mape_held_cycles_total",
            "Cycles holding the last good state on a degraded observation.",
        ).child(controller=controller)
        self._out_of_window = registry.counter(
            "mape_out_of_window_total",
            "Boundary observations classified outside the target window.",
        ).child(controller=controller)
        self._adaptations = registry.counter(
            "mape_adaptations_total",
            "Executed plans that changed the system state.",
        ).child(controller=controller)
        self._escapes = registry.counter(
            "search_escapes_total",
            "Plans that widened to the local-optimum escape space.",
        ).child(controller=controller)
        self._rate_hist = registry.histogram(
            "mape_observed_rate",
            "Filtered heartbeat rates observed at adaptation boundaries.",
            buckets=DEFAULT_BUCKETS,
        ).child(controller=controller)
        self._explored = registry.counter(
            "search_states_explored_total",
            "Algorithm 2 candidates actually estimated.",
        ).child(controller=controller)
        self._pruned = registry.counter(
            "search_pruned_total",
            "Neighbourhood candidates pruned by Manhattan distance.",
        ).child(controller=controller)
        self._failures = registry.counter(
            "search_estimation_failures_total",
            "Candidates skipped because their estimate raised.",
        ).child(controller=controller)
        self._filtered = registry.counter(
            "search_filtered_total",
            "Candidates a guardrail filter vetoed (budget caps) — kept "
            "separate from the Manhattan-distance prune.",
        ).child(controller=controller)

    # -- hooks called by MapeLoop.on_heartbeat --------------------------------

    def on_monitor(self, observation: Optional["Observation"]) -> None:
        self._monitor_count.inc()
        if self.poll_cost_s:
            self._monitor_timer.record(self.poll_cost_s)
        if observation is not None:
            self._rate_hist.observe(observation.rate)

    def on_held(self) -> None:
        self._held_count.inc()

    def on_analysis(self, analysis: "Analysis") -> None:
        self._analyze_count.inc()
        if analysis.out_of_window:
            self._out_of_window.inc()

    def on_plan(self, plan: "PlanResult") -> None:
        self._plan_count.inc()
        self._plan_timer.record(plan.states_explored * self.state_eval_cost_s)
        if plan.states_explored:
            self._explored.inc(plan.states_explored)
        if plan.pruned:
            self._pruned.inc(plan.pruned)
        if plan.estimation_failures:
            self._failures.inc(plan.estimation_failures)
        if plan.filtered:
            self._filtered.inc(plan.filtered)
        if plan.escaped:
            self._escapes.inc()

    def on_execute(self, adapted: bool) -> None:
        self._execute_count.inc()
        if adapted:
            self._adaptations.inc()


def _mape_managers(sim: "Simulation") -> List[MapeManager]:
    return [c for c in sim.controllers if isinstance(c, MapeManager)]


class TelemetryHub(Controller):
    """Bus-attached metrics collector for one simulation run."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.trace = None  # the sim's TraceRecorder, set on attach
        self._sim: Optional["Simulation"] = None
        self._finalized = False
        # Pre-created instruments (children resolved lazily per label).
        reg = self.registry
        self._heartbeats = reg.counter(
            "heartbeats_total", "Heartbeats delivered to the bus, per app."
        )
        self._states_applied = reg.counter(
            "states_applied_total", "Execute-stage state applications, per app."
        )
        self._big_cores = reg.gauge(
            "app_big_cores", "Big cores currently allocated to the app."
        )
        self._little_cores = reg.gauge(
            "app_little_cores", "Little cores currently allocated to the app."
        )
        self._cluster_freq = reg.gauge(
            "cluster_freq_mhz", "Cluster frequency from the last applied state."
        )
        self._finished = reg.counter(
            "apps_finished_total", "Apps that consumed their last work unit."
        )
        self._faults_injected = reg.counter(
            "faults_injected_total", "Fault injections on the bus, per kind."
        )
        self._faults_recovered = reg.counter(
            "faults_recovered_total", "Fault recoveries on the bus, per kind."
        )
        self._supervision = reg.counter(
            "supervision_transitions_total",
            "Supervisor state transitions (suspected/quarantined/evicted).",
        )
        self._restores = reg.counter(
            "controller_restores_total",
            "Controller crash+restart recoveries, warm or cold.",
        )
        self._policy_swaps = reg.counter(
            "policy_swaps_total",
            "Live policy hot-swaps applied to a running controller.",
        )
        self._guardrail_trips = reg.counter(
            "guardrail_trips_total",
            "Guardrail engagements on the bus, per guard.",
        )
        self._guardrail_releases = reg.counter(
            "guardrail_releases_total",
            "Guardrail disengagements on the bus, per guard.",
        )
        self._ticks = reg.counter("sim_ticks_total", "Engine ticks executed.")
        self._power_w = reg.gauge(
            "power_watts", "Average per-rail power over the run."
        )
        self._energy_j = reg.counter(
            "energy_joules_total", "Per-rail energy integrated over the run."
        )
        # Hot-path child caches (avoid the label sort per event).
        self._hb_children: Dict[str, object] = {}
        self._run_info = reg.gauge(
            "run_info", "Constant 1; labels identify the run."
        )

    # -- wiring ---------------------------------------------------------------

    def set_run_info(self, **labels: str) -> None:
        """Attach identifying labels (version, session, …) to the run."""
        self._run_info.set(1.0, **labels)

    def attach(self, sim: "Simulation") -> None:
        self._sim = sim
        self.trace = sim.trace
        bus = sim.bus
        bus.subscribe(HeartbeatEmitted, self._on_heartbeat)
        bus.subscribe(StateApplied, self._on_state_applied)
        bus.subscribe(AppFinished, self._on_app_finished)
        bus.subscribe(FaultInjected, self._on_fault_injected)
        bus.subscribe(FaultRecovered, self._on_fault_recovered)
        bus.subscribe(AppSuspected, self._on_suspected)
        bus.subscribe(AppQuarantined, self._on_quarantined)
        bus.subscribe(AppEvicted, self._on_evicted)
        bus.subscribe(ControllerRestored, self._on_restored)
        bus.subscribe(PolicySwapped, self._on_policy_swapped)
        bus.subscribe(GuardrailTripped, self._on_guardrail_tripped)
        bus.subscribe(GuardrailReleased, self._on_guardrail_released)
        # No TickStart/PowerSample subscriptions: the engine elides those
        # publishes entirely when unsubscribed, and listening would put
        # event construction + dispatch on every tick of the hot loop.
        # finalize() harvests both series exactly instead.

    def on_start(self, sim: "Simulation") -> None:
        # Install the MAPE recorder on every MAPE-K manager.  Runs after
        # the managers' own on_start, so costs and checkpoint ids are
        # settled.
        for controller in _mape_managers(sim):
            if controller.mape.telemetry is None:
                controller.mape.telemetry = MapeTelemetry(
                    self.registry,
                    controller=controller.checkpoint_id,
                    poll_cost_s=controller.poll_cost_s,
                    state_eval_cost_s=controller.state_eval_cost_s,
                )

    # -- bus handlers (observation only) --------------------------------------

    def _on_heartbeat(self, event: HeartbeatEmitted) -> None:
        name = event.app.name
        child = self._hb_children.get(name)
        if child is None:
            child = self._hb_children[name] = self._heartbeats.child(app=name)
        child.inc()

    def _on_state_applied(self, event: StateApplied) -> None:
        app = event.app_name
        self._states_applied.inc(app=app)
        self._big_cores.set(event.big_cores, app=app)
        self._little_cores.set(event.little_cores, app=app)
        state = event.state
        self._cluster_freq.set(state.f_big_mhz, cluster="big")
        self._cluster_freq.set(state.f_little_mhz, cluster="little")

    def _on_app_finished(self, event: AppFinished) -> None:
        self._finished.inc(app=event.app_name)

    def _on_fault_injected(self, event: FaultInjected) -> None:
        self._faults_injected.inc(kind=event.kind)

    def _on_fault_recovered(self, event: FaultRecovered) -> None:
        self._faults_recovered.inc(kind=event.kind)

    def _on_suspected(self, event: AppSuspected) -> None:
        self._supervision.inc(transition="suspected", kind=event.kind)

    def _on_quarantined(self, event: AppQuarantined) -> None:
        self._supervision.inc(transition="quarantined", kind=event.kind)

    def _on_evicted(self, event: AppEvicted) -> None:
        self._supervision.inc(transition="evicted", kind=event.kind)

    def _on_restored(self, event: ControllerRestored) -> None:
        self._restores.inc(
            controller=event.controller,
            warm="true" if event.warm else "false",
        )

    def _on_policy_swapped(self, event: PolicySwapped) -> None:
        self._policy_swaps.inc(
            controller=event.controller, policy=event.new_policy
        )

    def _on_guardrail_tripped(self, event: GuardrailTripped) -> None:
        self._guardrail_trips.inc(guard=event.guard)

    def _on_guardrail_released(self, event: GuardrailReleased) -> None:
        self._guardrail_releases.inc(guard=event.guard)

    # -- end-of-run harvest ---------------------------------------------------

    def finalize(self) -> MetricsRegistry:
        """Harvest snapshot-time series (idempotent); returns the registry."""
        sim = self._sim
        if sim is None or self._finalized:
            return self.registry
        self._finalized = True
        reg = self.registry
        self._ticks.inc(sim._tick_index)
        if sim.sensor.elapsed_s > 0:
            for rail in CHANNELS:
                self._energy_j.inc(sim.sensor.energy_j(rail), rail=rail)
                self._power_w.set(
                    sim.sensor.average_power_w(rail), rail=rail
                )
        clamped = sim.sensor.clamped_samples
        if clamped:
            reg.counter(
                "sensor_clamped_total",
                "Periodic samples with a negative channel clamped to 0.",
            ).inc(clamped)
        reg.gauge(
            "sim_time_seconds", "Simulated time at the end of the run."
        ).set(sim.clock.now_s)
        reg.gauge(
            "trace_points_total", "Behaviour-trace rows recorded."
        ).set(len(sim.trace))
        cache = reg.gauge(
            "estimation_cache_lookups",
            "Estimation-layer cache hits/misses per manager and model.",
        )
        rebuilds = reg.counter(
            "planner_tensor_rebuilds_total",
            "State-space tensor lookups a manager could not serve from "
            "its own tensors — one per model pair after every swap or "
            "invalidation, built or taken from the process-wide memo.",
        )
        for controller in _mape_managers(sim):
            name = controller.checkpoint_id
            counts = controller.knowledge.estimation.stats()
            for key, value in counts.items():
                model, _, result = key.partition("_")
                cache.set(value, controller=name, model=model, result=result)
            builds = counts.get("tensor_builds", 0)
            if builds:
                rebuilds.inc(builds, controller=name)
        plan_service = sim.plan_service
        if plan_service.batch_sizes:
            batch_hist = reg.histogram(
                "planner_batch_apps",
                "Apps/partitions planned per batch-planner invocation.",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
            )
            for size in plan_service.batch_sizes:
                batch_hist.observe(size)
        for controller in sim.controllers:
            if not isinstance(controller, GuardrailLayer):
                continue
            guard_gauge = reg.gauge(
                "guardrail_stats",
                "Guardrail-layer scalar stats (trips, streaks, margins).",
            )
            for stat, value in controller.guardrail_stats().items():
                guard_gauge.set(value, stat=stat)
            residuals = controller.residuals()
            if residuals:
                hist = reg.histogram(
                    "watchdog_residual",
                    "Signed watchdog residuals: (observed-est)/est for "
                    "rate and power of every applied state.",
                    buckets=(
                        -0.5, -0.25, -0.1, -0.05, 0.0, 0.05, 0.1, 0.25, 0.5
                    ),
                )
                for residual in residuals:
                    hist.observe(residual)
        return self.registry

    def snapshot(self):
        """Finalize (if a sim is attached) and snapshot the registry."""
        return self.finalize().snapshot()
