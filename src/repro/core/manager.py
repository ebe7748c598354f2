"""The HARS runtime manager (the paper's Algorithm 1).

The manager is a :class:`~repro.kernel.mape.MapeManager`, a thin
façade over the kernel's MAPE-K control plane: every adaptation period
the Monitor samples the windowed heartbeat rate, the Analyzer
classifies it against the target window, the Planner runs the
Algorithm 2 neighbourhood search over the cached estimation layer, and
the Executor applies the chosen state — cluster frequencies and thread
placement — through the actuation façade, exactly the user-level
control surface the paper's prototype uses on Linux (no kernel
modification).

Search overhead is metered: each estimated candidate costs
:data:`DEFAULT_STATE_EVAL_COST_S` of manager CPU time and each received
heartbeat :data:`DEFAULT_POLL_COST_S`, which Figure 5.3(b) reports as
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
from repro.kernel.mape import (
    Analyzer,
    CycleContext,
    Executor,
    MapeLoop,
    MapeManager,
    Monitor,
    SearchPlanner,
)
from repro.platform.cluster import BIG, LITTLE
from repro.platform.topology import first_n

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.extensions.ratio_learning import OnlineRatioLearner
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


class HarsManager(MapeManager):
    """Single-application HARS (Algorithms 1 + 2) over MAPE-K."""

    #: Split each pipeline stage across the clusters (§3.1.4 #2) instead
    #: of the policy's scheduler; an AdaptiveHarsManager option.
    stage_aware = False
    #: Online big:little ratio learner whose ratio the checkpoint
    #: carries; only AdaptiveHarsManager attaches one.
    ratio_learner: Optional["OnlineRatioLearner"] = None

    def __init__(
        self,
        app_name: str,
        policy: HarsPolicy,
        perf_estimator: PerformanceEstimator,
        power_estimator: PowerEstimator,
        adapt_every: int = DEFAULT_ADAPT_EVERY,
        initial_state: Optional[SystemState] = None,
        stale_after_s: Optional[float] = None,
    ):
        super().__init__(
            policy,
            perf_estimator,
            power_estimator,
            adapt_every,
            DEFAULT_STATE_EVAL_COST_S,
            DEFAULT_POLL_COST_S,
        )
        self.app_name = app_name
        self._initial_state = initial_state
        self._used: Tuple[int, int] = (0, 0)
        self._assignment = None  # ThreadAssignment actually applied
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
        if self.stage_aware:
            actuator.place_stage_aware(app, assignment, big_ids, little_ids)
        else:
            actuator.place(
                app, assignment, big_ids, little_ids, self.policy.scheduler
            )
        self.knowledge.set_state(app.name, state)
        self._used = (assignment.used_big, assignment.used_little)
        self._assignment = assignment
        actuator.announce(
            app.name, state, assignment.used_big, assignment.used_little
        )

    # -- checkpoint / restore ----------------------------------------------------

    @property
    def checkpoint_id(self) -> str:
        """Store key; one HARS instance per managed application."""
        return f"hars:{self.app_name}"

    def checkpoint(self, now_s: float) -> Dict[str, Any]:
        """Snapshot the controller knowledge worth surviving a crash:
        the applied state, the fitted power model, the learned ratio (if
        an online learner is attached), and the MAPE counters."""
        state = self.state
        learner = self.ratio_learner
        return self._checkpoint(
            now_s,
            {
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
                "ratio": learner.ratio if learner is not None else None,
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
        learner = self.ratio_learner
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
        self.mape.restore_counters(body.get("counters") or {})

    def _forget_volatile(self, sim: "Simulation") -> None:
        """What dies with the controller process: applied-state memory,
        the estimation cache, and any online-learned models."""
        self.knowledge.set_state(self.app_name, None)
        self.knowledge.estimation.invalidate()
        self._used = (0, 0)
        self._assignment = None

    def _cold_start(self, sim: "Simulation") -> None:
        """Start exactly as at time zero and re-converge from scratch."""
        app = sim.app(self.app_name)
        if not (app.halted or app.is_done()):
            self.on_start(sim)
