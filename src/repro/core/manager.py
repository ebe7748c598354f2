"""The HARS runtime manager (the paper's Algorithm 1).

The manager is a :class:`~repro.sim.controller.Controller` and a thin
façade over the kernel's MAPE-K control plane
(:mod:`repro.kernel.mape`): every adaptation period the Monitor samples
the windowed heartbeat rate, the Analyzer classifies it against the
target window, the Planner runs the Algorithm 2 neighbourhood search
over the cached estimation layer, and the Executor applies the chosen
state — cluster frequencies and thread placement — through the
actuation façade, exactly the user-level control surface the paper's
prototype uses on Linux (no kernel modification).

Search overhead is metered: each estimated candidate costs
``state_eval_cost_s`` of manager CPU time, which Figure 5.3(b) reports as
CPU utilization.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HarsPolicy
from repro.core.power_estimator import PowerEstimator
from repro.core.state import SystemState, max_state
from repro.errors import ConfigurationError
from repro.heartbeats.record import Heartbeat
from repro.kernel.estimation import EstimationLayer
from repro.kernel.mape import (
    Analyzer,
    CycleContext,
    Executor,
    Knowledge,
    MapeLoop,
    Monitor,
    SearchPlanner,
)
from repro.platform.cluster import BIG, LITTLE
from repro.platform.topology import first_n
from repro.sim.controller import Controller

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp

#: Heartbeats between adaptation checks (``isAdaptPeriod``).
DEFAULT_ADAPT_EVERY = 5

#: Modelled manager CPU cost per estimated candidate state.  Together
#: with the poll cost below this is calibrated so the manager's
#: utilization envelope reproduces Figure 5.3(b): a sub-percent floor
#: from monitoring, growing severalfold with the explored-space size but
#: staying in the single digits at d = 9.
DEFAULT_STATE_EVAL_COST_S = 1e-3

#: Modelled manager CPU cost per received heartbeat: reading the shared
#: heartbeat segment, windowed-rate bookkeeping, and the main loop's
#: wakeup — the constant part of Figure 5.3(b)'s utilization.
DEFAULT_POLL_COST_S = 3e-3


class HarsManager(Controller):
    """Single-application HARS (Algorithms 1 + 2) over MAPE-K."""

    def __init__(
        self,
        app_name: str,
        policy: HarsPolicy,
        perf_estimator: PerformanceEstimator,
        power_estimator: PowerEstimator,
        adapt_every: int = DEFAULT_ADAPT_EVERY,
        state_eval_cost_s: float = DEFAULT_STATE_EVAL_COST_S,
        poll_cost_s: float = DEFAULT_POLL_COST_S,
        initial_state: Optional[SystemState] = None,
        stale_after_s: Optional[float] = None,
    ):
        if adapt_every < 1:
            raise ConfigurationError("adapt_every must be >= 1")
        if state_eval_cost_s < 0:
            raise ConfigurationError("state_eval_cost_s must be >= 0")
        if poll_cost_s < 0:
            raise ConfigurationError("poll_cost_s must be >= 0")
        self.app_name = app_name
        self.policy = policy
        self.state_eval_cost_s = state_eval_cost_s
        self.poll_cost_s = poll_cost_s
        self._initial_state = initial_state
        self._used: Tuple[int, int] = (0, 0)
        self._assignment = None  # ThreadAssignment actually applied
        #: Set by the supervision Checkpointer (if one is attached);
        #: consulted by :meth:`simulate_restart` for a warm restore.
        self.checkpoint_store = None
        self.knowledge = Knowledge(
            EstimationLayer(perf_estimator, power_estimator)
        )
        self.mape = MapeLoop(
            knowledge=self.knowledge,
            monitor=self._build_monitor(adapt_every),
            analyzer=Analyzer(),
            planner=self._build_planner(),
            executor=Executor(self._execute_plan),
            updaters=self._build_updaters(),
            stale_after_s=stale_after_s,
        )

    # -- MAPE-K wiring (extension points for subclasses) -----------------------

    def _build_monitor(self, adapt_every: int) -> Monitor:
        return Monitor(adapt_every)

    def _build_planner(self) -> SearchPlanner:
        return SearchPlanner(self.policy)

    def _build_updaters(self) -> tuple:
        return ()

    def _execute_plan(
        self, sim: "Simulation", ctx: CycleContext, state: SystemState
    ) -> None:
        # Indirect through the attribute so tests can wrap ``_apply``.
        self._apply(sim, state)

    # -- compatibility façade --------------------------------------------------

    @property
    def perf_estimator(self):
        """The (cached) performance estimator the search consults."""
        return self.knowledge.estimation.perf

    @perf_estimator.setter
    def perf_estimator(self, estimator: PerformanceEstimator) -> None:
        self.knowledge.estimation.set_perf_estimator(estimator)

    @property
    def power_estimator(self):
        """The (cached) power estimator the search consults."""
        return self.knowledge.estimation.power

    @power_estimator.setter
    def power_estimator(self, estimator: PowerEstimator) -> None:
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

    @property
    def _state(self) -> Optional[SystemState]:
        return self.knowledge.state_of(self.app_name)

    # -- Controller hooks ------------------------------------------------------

    def on_start(self, sim: "Simulation") -> None:
        self.mape.bind(sim)
        state = self._initial_state or max_state(sim.spec)
        state.validate(sim.spec)
        self._apply(sim, state)

    def on_heartbeat(
        self, sim: "Simulation", app: "SimApp", heartbeat: Heartbeat
    ) -> None:
        if app.name != self.app_name:
            return
        if self.knowledge.spec is None:
            self.knowledge.bind(sim.spec)
        self.mape.on_heartbeat(sim, app, heartbeat)

    def current_allocation(self, app_name: str) -> Optional[Tuple[int, int]]:
        if app_name != self.app_name:
            return None
        return self._used

    def cpu_overhead_seconds(self) -> float:
        return (
            self.states_explored_total * self.state_eval_cost_s
            + self.heartbeats_polled * self.poll_cost_s
        )

    # -- state application -------------------------------------------------------

    @property
    def state(self) -> Optional[SystemState]:
        """The system state currently applied."""
        return self.knowledge.state_of(self.app_name)

    def _apply(self, sim: "Simulation", state: SystemState) -> None:
        """``setSysStateAndScheduleThreads``: DVFS + thread pinning."""
        app = sim.app(self.app_name)
        actuator = sim.actuator
        actuator.set_frequency(BIG, state.f_big_mhz)
        actuator.set_frequency(LITTLE, state.f_little_mhz)
        estimate = self.perf_estimator.estimate(state, app.n_threads)
        assignment = estimate.assignment
        big_ids = first_n(sim.spec, BIG, assignment.used_big)
        little_ids = first_n(sim.spec, LITTLE, assignment.used_little)
        actuator.place(
            app, assignment, big_ids, little_ids, self.policy.scheduler
        )
        self.knowledge.set_state(app.name, state)
        self._used = (assignment.used_big, assignment.used_little)
        self._assignment = assignment
        actuator.announce(
            app.name, state, assignment.used_big, assignment.used_little
        )

    def cpu_utilization_percent(self, elapsed_s: float) -> float:
        """Manager overhead as a percentage of one core (Fig 5.3b)."""
        if elapsed_s <= 0:
            raise ConfigurationError("elapsed time must be positive")
        return 100.0 * self.cpu_overhead_seconds() / elapsed_s

    # -- checkpoint / restore ----------------------------------------------------

    @property
    def checkpoint_id(self) -> str:
        """Store key; one HARS instance per managed application."""
        return f"hars:{self.app_name}"

    def checkpoint(self, now_s: float) -> Dict[str, Any]:
        """Snapshot the controller knowledge worth surviving a crash:
        the applied state, the fitted power model, the learned ratio (if
        an online learner is attached), and the MAPE counters."""
        # Lazy import: serialize sits above the manager layer.
        from repro.experiments.serialize import (
            checkpoint_payload,
            power_model_to_dict,
        )

        state = self.state
        learner = getattr(self, "ratio_learner", None)
        return checkpoint_payload(
            self.checkpoint_id,
            now_s,
            {
                "controller": type(self).__name__,
                "app_name": self.app_name,
                "state": (
                    [
                        state.c_big,
                        state.c_little,
                        state.f_big_mhz,
                        state.f_little_mhz,
                    ]
                    if state is not None
                    else None
                ),
                "power_model": power_model_to_dict(self.power_estimator),
                "ratio": learner.ratio if learner is not None else None,
                "counters": {
                    "adaptations": self.knowledge.adaptations,
                    "states_explored": self.knowledge.states_explored,
                    "estimation_failures": self.knowledge.estimation_failures,
                    "held_cycles": self.mape.held_cycles,
                    "polled": self.mape.monitor.polled,
                },
            },
        )

    def restore_checkpoint(
        self, sim: "Simulation", payload: Dict[str, Any]
    ) -> None:
        """Warm restore: re-adopt checkpointed knowledge mid-run.

        Raises :class:`~repro.errors.ConfigurationError` on a malformed
        payload — the caller falls back to a cold start.
        """
        from repro.experiments.serialize import (
            power_model_from_dict,
            validate_checkpoint,
        )

        body = validate_checkpoint(payload)
        if body.get("app_name") != self.app_name:
            raise ConfigurationError(
                f"checkpoint is for app {body.get('app_name')!r}, "
                f"not {self.app_name!r}"
            )
        self.power_estimator = power_model_from_dict(
            body.get("power_model") or {}
        )
        ratio = body.get("ratio")
        learner = getattr(self, "ratio_learner", None)
        if ratio is not None and learner is not None:
            learner.seed_estimate(float(ratio))
            self.perf_estimator = learner.estimator()
        state_values = body.get("state")
        if state_values is not None:
            try:
                state = SystemState(*(int(v) for v in state_values))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed checkpointed state: {exc}"
                ) from None
            state.validate(sim.spec)
            app = sim.app(self.app_name)
            if not (app.halted or app.is_done()):
                self._apply(sim, state)
        counters = body.get("counters") or {}
        self.knowledge.adaptations = int(
            counters.get("adaptations", self.knowledge.adaptations)
        )
        self.knowledge.states_explored = int(
            counters.get("states_explored", self.knowledge.states_explored)
        )
        self.knowledge.estimation_failures = int(
            counters.get(
                "estimation_failures", self.knowledge.estimation_failures
            )
        )
        self.mape.held_cycles = int(
            counters.get("held_cycles", self.mape.held_cycles)
        )
        self.mape.monitor.polled = int(
            counters.get("polled", self.mape.monitor.polled)
        )

    def _forget_volatile(self, sim: "Simulation") -> None:
        """What dies with the controller process: applied-state memory,
        the estimation cache, and any online-learned models."""
        self.knowledge.set_state(self.app_name, None)
        self.knowledge.estimation.invalidate()
        self._used = (0, 0)
        self._assignment = None
        predictor = getattr(self, "predictor", None)
        if predictor is not None:
            predictor.reset()
        learner = getattr(self, "ratio_learner", None)
        if learner is not None:
            learner.reset()
            self.perf_estimator = learner.estimator()
        if getattr(self, "_settled_periods", None) is not None:
            self._settled_periods = 0

    def simulate_restart(self, sim: "Simulation") -> None:
        """Model a controller crash+restart (``controller_restart`` fault).

        Volatile knowledge is dropped; if a checkpoint store holds a
        valid snapshot the controller restores warm, otherwise it cold
        starts exactly as at time zero and re-converges from scratch.
        """
        from repro.kernel.bus import ControllerRestored

        self._forget_volatile(sim)
        store = getattr(self, "checkpoint_store", None)
        snapshot = (
            store.get(self.checkpoint_id) if store is not None else None
        )
        warm = False
        if snapshot is not None:
            try:
                self.restore_checkpoint(sim, snapshot)
                warm = True
            except ConfigurationError:
                snapshot = None
        if not warm:
            app = sim.app(self.app_name)
            if not (app.halted or app.is_done()):
                self.on_start(sim)
        sim.bus.publish(
            ControllerRestored(
                controller=self.checkpoint_id,
                time_s=sim.clock.now_s,
                warm=warm,
                checkpoint_time_s=(
                    snapshot["time_s"] if snapshot is not None else None
                ),
            )
        )
