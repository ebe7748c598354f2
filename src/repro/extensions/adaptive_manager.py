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

from repro.core.manager import DEFAULT_ADAPT_EVERY, HarsManager
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HarsPolicy
from repro.core.power_estimator import PowerEstimator
from repro.core.state import SystemState
from repro.extensions.escape import StuckDetector, full_space
from repro.extensions.kalman import RatePredictor
from repro.extensions.ratio_learning import OnlineRatioLearner
from repro.kernel.mape import Knowledge, Monitor, Observation, SearchPlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp


class _RatioUpdater:
    """Knowledge updater: refit the big:little ratio every period.

    State changes land on adaptation-period boundaries and the rate
    window spans one period, so every check after a change already
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
        if manager.ratio_learner is not None:
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
        super().__init__(
            app_name=app_name,
            policy=policy,
            perf_estimator=perf_estimator,
            power_estimator=power_estimator,
            adapt_every=adapt_every,
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
        return (_RatioUpdater(self),)

    @property
    def escapes(self) -> int:
        """Full-space escape searches triggered so far."""
        return self.mape.planner.escapes

    # -- state application -------------------------------------------------------

    def _apply(self, sim: "Simulation", state: SystemState) -> None:
        super()._apply(sim, state)
        # A new state invalidates the predictor's rate estimate.
        if self.predictor is not None:
            self.predictor.reset()

    def _forget_volatile(self, sim: "Simulation") -> None:
        """HARS's volatile state plus the online-learned models."""
        super()._forget_volatile(sim)
        if self.predictor is not None:
            self.predictor.reset()
        if self.ratio_learner is not None:
            self.ratio_learner.reset()
            self.perf_estimator = self.ratio_learner.estimator()
