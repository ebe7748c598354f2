"""Online big:little performance-ratio learning (paper §5.1.2 future work).

HARS assumes a fixed r0 = 3/2 per-core ratio, which the paper shows is
wrong for blackscholes (measured 1.0) and leads HARS to suboptimal
states; "in our future work, we plan for HARS to update the performance
ratio in real time".  This module implements that update.

The learner collects ``(system state, applied thread split, settled
heartbeat rate)`` observations.  Crucially the capacity model is
evaluated **with the split that was actually applied** — the split HARS
chose under its (possibly wrong) current ratio — not the split a
candidate ratio would have chosen, so the fit measures how well a
candidate ratio explains the observed rates rather than an idealized
placement.  For a candidate ``r`` the model predicts
``rate ≈ k · capacity_r(state, split)`` with an unknown per-application
work scale ``k``; the best scale has the closed form
``k(r) = Σ cap·rate / Σ cap²``, so a 1-D grid search over ``r`` with a
weak prior toward r0 minimizes the squared prediction error.  States
that use only the little cluster carry no information about ``r`` but
anchor ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.assignment import ThreadAssignment, cluster_times
from repro.core.perf_estimator import DEFAULT_R0, PerformanceEstimator
from repro.core.state import SystemState
from repro.errors import ConfigurationError
from repro.platform.core_types import BASELINE_FREQ_MHZ

#: Informative (big-cluster) observations needed before the first refit.
MIN_INFORMATIVE = 1

#: Weight of the quadratic prior toward r0, relative to the mean squared
#: observed rate.
PRIOR_STRENGTH = 0.01

#: Candidate ratios the grid search covers.
GRID = tuple(round(0.8 + 0.05 * i, 2) for i in range(45))  # 0.8..3.0

#: Settled observations the learner keeps; beyond this the oldest
#: uninformative one is evicted first.
WINDOW = 12


@dataclass(frozen=True)
class RatioObservation:
    """One settled operating point with the split HARS actually applied."""

    state: SystemState
    assignment: ThreadAssignment
    rate: float
    n_threads: int

    @property
    def informative(self) -> bool:
        """Whether the capacity at this point depends on the ratio."""
        return self.assignment.t_big > 0

    def capacity(self, ratio: float) -> float:
        """Modelled capacity at a candidate ratio, given the real split."""
        s_big = ratio * self.state.f_big_mhz / BASELINE_FREQ_MHZ
        s_little = self.state.f_little_mhz / BASELINE_FREQ_MHZ
        _, _, t_f = cluster_times(
            self.assignment,
            unit_work=1.0,
            n_threads=self.n_threads,
            c_big=max(self.state.c_big, self.assignment.used_big),
            c_little=max(self.state.c_little, self.assignment.used_little),
            s_big=s_big,
            s_little=s_little,
        )
        return 1.0 / t_f


class OnlineRatioLearner:
    """Grid-search maximum-a-posteriori estimate of the true ratio."""

    def __init__(self):
        self._observations: List[RatioObservation] = []
        self._estimate = DEFAULT_R0

    def observe(
        self,
        state: SystemState,
        rate: float,
        n_threads: int,
        assignment: Optional[ThreadAssignment] = None,
    ) -> None:
        """Record a settled observation and refresh the estimate.

        ``assignment`` is the thread split HARS applied at ``state``; if
        omitted it is reconstructed with the learner's *current* ratio
        estimate (which is what the manager would have used).
        """
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        if assignment is None:
            assignment = (
                PerformanceEstimator(r0=self._estimate)
                .estimate(state, n_threads)
                .assignment
            )
        self._observations.append(
            RatioObservation(
                state=state,
                assignment=assignment,
                rate=rate,
                n_threads=n_threads,
            )
        )
        if len(self._observations) > WINDOW:
            # Informative (big-cluster) observations are rare once HARS
            # settles on a little-only state — evict the oldest
            # *uninformative* point first so the ratio evidence survives.
            for index, observation in enumerate(self._observations):
                if not observation.informative:
                    self._observations.pop(index)
                    break
            else:
                self._observations.pop(0)
        self._refit()

    @property
    def ratio(self) -> float:
        """Current best ratio estimate (r0 until data suffices)."""
        return self._estimate

    def estimator(self) -> PerformanceEstimator:
        """A performance estimator parameterized by the learned ratio."""
        return PerformanceEstimator(r0=self._estimate)

    def reset(self) -> None:
        """Forget all observations and fall back to the r0 prior.

        What a cold-restarted controller loses: the learned ratio is
        volatile knowledge, re-earned only after fresh settled points.
        """
        self._observations.clear()
        self._estimate = DEFAULT_R0

    def seed_estimate(self, ratio: float) -> None:
        """Adopt a previously-learned ratio (checkpoint warm restore).

        The observation window is *not* restored — a restarted learner
        continues refining from the checkpointed estimate as new settled
        points arrive.
        """
        if ratio <= 0:
            raise ConfigurationError("ratio must be positive")
        self._estimate = ratio

    # -- fitting ----------------------------------------------------------

    def _informative(self) -> List[RatioObservation]:
        """Observations whose capacity actually depends on r."""
        return [o for o in self._observations if o.informative]

    def _refit(self) -> None:
        informative = self._informative()
        if (
            len(informative) < MIN_INFORMATIVE
            or len(self._observations) < 2
        ):
            return
        rates = np.array([o.rate for o in self._observations])
        # A weak quadratic prior toward r0 keeps the estimate from
        # running to the grid edge when only one informative point (and
        # hence pure model mismatch) drives the fit.
        prior_scale = PRIOR_STRENGTH * float((rates**2).mean())
        best_r = self._estimate
        best_error = float("inf")
        for candidate in GRID:
            capacities = np.array(
                [o.capacity(candidate) for o in self._observations]
            )
            denom = float(capacities @ capacities)
            if denom <= 0:
                continue
            scale = float(capacities @ rates) / denom
            error = float(((rates - scale * capacities) ** 2).sum())
            error += prior_scale * (candidate - DEFAULT_R0) ** 2
            if error < best_error - 1e-12:
                best_error = error
                best_r = candidate
        self._estimate = best_r

    def __len__(self) -> int:
        return len(self._observations)
