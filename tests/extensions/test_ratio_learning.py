"""Unit tests for online big:little ratio learning."""

import pytest

from repro.core.perf_estimator import PerformanceEstimator
from repro.core.state import SystemState
from repro.errors import ConfigurationError
from repro.extensions.ratio_learning import WINDOW, OnlineRatioLearner


def _feed_observations(learner, true_ratio, states, scale=0.5, n_threads=8):
    """Generate rates from a ground-truth ratio and feed the learner.

    Each observation carries the split the oracle actually used, as the
    manager's bookkeeping does.
    """
    oracle = PerformanceEstimator(r0=true_ratio)
    for state in states:
        estimate = oracle.estimate(state, n_threads)
        learner.observe(
            state, scale * estimate.capacity, n_threads, estimate.assignment
        )


_STATES = [
    SystemState(4, 0, 1200, 800),
    SystemState(0, 4, 800, 1200),
    SystemState(2, 2, 1000, 1000),
    SystemState(4, 4, 1600, 1300),
    SystemState(1, 4, 1400, 1100),
]


class TestLearning:
    def test_defaults_to_r0_without_data(self):
        learner = OnlineRatioLearner()
        assert learner.ratio == 1.5

    def test_recovers_blackscholes_ratio(self):
        """The paper's case: true ratio 1.0, assumed 1.5."""
        learner = OnlineRatioLearner()
        _feed_observations(learner, true_ratio=1.0, states=_STATES)
        assert learner.ratio == pytest.approx(1.0, abs=0.051)

    def test_recovers_wide_ratio(self):
        learner = OnlineRatioLearner()
        _feed_observations(learner, true_ratio=2.0, states=_STATES)
        assert learner.ratio == pytest.approx(2.0, abs=0.051)

    def test_little_only_observations_are_uninformative(self):
        learner = OnlineRatioLearner()
        _feed_observations(
            learner,
            true_ratio=1.0,
            states=[SystemState(0, 4, 800, 1000), SystemState(0, 4, 800, 1200)],
        )
        # No big-cluster data: stays at the prior.
        assert learner.ratio == 1.5

    def test_estimator_uses_learned_ratio(self):
        learner = OnlineRatioLearner()
        _feed_observations(learner, true_ratio=1.0, states=_STATES)
        estimator = learner.estimator()
        s_big, s_little = estimator.per_core_speeds(
            SystemState(1, 1, 1000, 1000)
        )
        assert s_big / s_little == pytest.approx(learner.ratio)

    def test_window_bounds_history(self):
        learner = OnlineRatioLearner()
        _feed_observations(learner, true_ratio=1.5, states=_STATES * 3)
        assert len(_STATES * 3) > WINDOW
        assert len(learner) == WINDOW

    def test_validation(self):
        learner = OnlineRatioLearner()
        with pytest.raises(ConfigurationError):
            learner.observe(SystemState(1, 1, 800, 800), 0.0, 8)

    def test_noisy_observations_still_converge(self):
        import numpy as np

        rng = np.random.default_rng(3)
        learner = OnlineRatioLearner()
        oracle = PerformanceEstimator(r0=1.0)
        for state in _STATES * 2:
            estimate = oracle.estimate(state, 8)
            rate = 0.5 * estimate.capacity
            learner.observe(
                state,
                rate * (1 + 0.03 * rng.standard_normal()),
                8,
                estimate.assignment,
            )
        assert learner.ratio == pytest.approx(1.0, abs=0.15)
