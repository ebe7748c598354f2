"""AdaptiveHarsManager: HARS plus the paper's discussion-section upgrades.

Each upgrade is a plugin of one MAPE-K stage (see
:mod:`repro.kernel.mape`), individually optional:

* **Kalman workload prediction** (§3.1.4 #1) — a Monitor-stage rate
  filter: adaptation decisions use a Kalman-smoothed rate instead of
  the raw windowed rate; the filter resets after every state change
  (the old rate no longer applies).
* **Stage-aware scheduling** (§3.1.4 #2) — an Execute-stage placement:
  each pipeline stage splits across the clusters in the T_B:T_L
  proportion.
* **Online ratio learning** (§5.1.2 future work) — a Knowledge
  updater: settled (state, rate) observations refit the big:little
  ratio, replacing the fixed r0 = 1.5 and fixing the blackscholes
  misprediction.
* **Local-optimum escape** (§3.1.4 #4) — a Plan-stage escape hook:
  repeated fruitless adaptation periods trigger a one-shot full-space
  search.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.manager import (
    DEFAULT_ADAPT_EVERY,
    DEFAULT_STATE_EVAL_COST_S,
    HarsManager,
)
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HarsPolicy
from repro.core.power_estimator import PowerEstimator
from repro.core.state import SystemState
from repro.extensions.escape import StuckDetector, full_space
from repro.extensions.kalman import RatePredictor
from repro.extensions.ratio_learning import OnlineRatioLearner
from repro.kernel.mape import Knowledge, Monitor, Observation, SearchPlanner
from repro.platform.cluster import BIG, LITTLE
from repro.platform.topology import first_n

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp


class _SettledRatioUpdater:
    """Knowledge updater: the settled-observation clock + ratio refit.

    State changes land on adaptation-period boundaries and the rate
    window spans one period, so the first check after a change already
    measures the new state cleanly.
    """

    def __init__(self, manager: "AdaptiveHarsManager"):
        self.manager = manager

    def update(
        self,
        knowledge: Knowledge,
        app: "SimApp",
        current: SystemState,
        observation: Observation,
    ) -> None:
        manager = self.manager
        manager._settled_periods += 1
        if manager.ratio_learner is not None and manager._settled_periods >= 1:
            manager.ratio_learner.observe(
                current, observation.rate, app.n_threads, manager._assignment
            )
            knowledge.estimation.set_perf_estimator(
                manager.ratio_learner.estimator()
            )


class AdaptiveHarsManager(HarsManager):
    """HARS with prediction, ratio learning, escape, and stage awareness."""

    def __init__(
        self,
        app_name: str,
        policy: HarsPolicy,
        perf_estimator: PerformanceEstimator,
        power_estimator: PowerEstimator,
        adapt_every: int = DEFAULT_ADAPT_EVERY,
        state_eval_cost_s: float = DEFAULT_STATE_EVAL_COST_S,
        initial_state: Optional[SystemState] = None,
        predictor: Optional[RatePredictor] = None,
        ratio_learner: Optional[OnlineRatioLearner] = None,
        stuck_detector: Optional[StuckDetector] = None,
        stage_aware: bool = False,
    ):
        # Plugins must exist before super().__init__ wires the MAPE
        # stages through the _build_* hooks below.
        self.predictor = predictor
        self.ratio_learner = ratio_learner
        self.stuck_detector = stuck_detector
        self.stage_aware = stage_aware
        self._settled_periods = 0
        super().__init__(
            app_name=app_name,
            policy=policy,
            perf_estimator=perf_estimator,
            power_estimator=power_estimator,
            adapt_every=adapt_every,
            state_eval_cost_s=state_eval_cost_s,
            initial_state=initial_state,
        )

    # -- MAPE-K wiring ---------------------------------------------------------

    def _build_monitor(self, adapt_every: int) -> Monitor:
        return Monitor(adapt_every, rate_filter=self.predictor)

    def _build_planner(self) -> SearchPlanner:
        return SearchPlanner(
            self.policy,
            escape=self.stuck_detector,
            escape_space=full_space if self.stuck_detector is not None else None,
        )

    def _build_updaters(self) -> tuple:
        return (_SettledRatioUpdater(self),)

    @property
    def escapes(self) -> int:
        """Full-space escape searches triggered so far."""
        return self.mape.planner.escapes

    # -- state application -------------------------------------------------------

    def _apply(self, sim: "Simulation", state: SystemState) -> None:
        if not self.stage_aware:
            super()._apply(sim, state)
        else:
            app = sim.app(self.app_name)
            actuator = sim.actuator
            actuator.set_frequency(BIG, state.f_big_mhz)
            actuator.set_frequency(LITTLE, state.f_little_mhz)
            estimate = self.perf_estimator.estimate(state, app.n_threads)
            assignment = estimate.assignment
            actuator.place_stage_aware(
                app,
                assignment,
                first_n(sim.spec, BIG, assignment.used_big),
                first_n(sim.spec, LITTLE, assignment.used_little),
            )
            self.knowledge.set_state(app.name, state)
            self._used = (assignment.used_big, assignment.used_little)
            self._assignment = assignment
            actuator.announce(
                app.name, state, assignment.used_big, assignment.used_little
            )
        # A new state invalidates the predictor's rate estimate and the
        # settled-observation clock.
        if self.predictor is not None:
            self.predictor.reset()
        self._settled_periods = 0
