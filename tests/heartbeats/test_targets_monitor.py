"""Unit tests for performance targets, monitors and the registry."""

import pytest

from repro.errors import ConfigurationError
from repro.heartbeats.monitor import HeartbeatMonitor
from repro.heartbeats.record import HeartbeatLog
from repro.heartbeats.targets import PerformanceTarget, Satisfaction


@pytest.fixture
def target():
    return PerformanceTarget.fraction_of(10.0, 0.5)  # window 4.5..5.5


class TestPerformanceTarget:
    def test_fraction_of_builds_paper_window(self, target):
        assert target.min_rate == pytest.approx(4.5)
        assert target.avg_rate == pytest.approx(5.0)
        assert target.max_rate == pytest.approx(5.5)

    def test_high_target(self):
        high = PerformanceTarget.fraction_of(10.0, 0.75)
        assert high.avg_rate == pytest.approx(7.5)

    def test_classify(self, target):
        assert target.classify(4.0) is Satisfaction.UNDERPERF
        assert target.classify(5.0) is Satisfaction.ACHIEVE
        assert target.classify(4.5) is Satisfaction.ACHIEVE
        assert target.classify(5.5) is Satisfaction.ACHIEVE
        assert target.classify(6.0) is Satisfaction.OVERPERF

    def test_out_of_window_is_algorithm1_line7(self, target):
        assert target.out_of_window(4.0)
        assert target.out_of_window(6.0)
        assert not target.out_of_window(5.2)

    def test_normalized_performance_caps_overperformance(self, target):
        assert target.normalized_performance(10.0) == 1.0
        assert target.normalized_performance(2.5) == pytest.approx(0.5)
        assert target.normalized_performance(0.0) == 0.0

    def test_half_width(self, target):
        assert target.half_width == pytest.approx(0.5)

    def test_invalid_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            PerformanceTarget(2.0, 1.0, 3.0)
        with pytest.raises(ConfigurationError):
            PerformanceTarget.fraction_of(0.0, 0.5)
        with pytest.raises(ConfigurationError):
            PerformanceTarget.fraction_of(10.0, 0.5, tolerance=0.6)


class TestHeartbeatMonitor:
    def _monitor(self, target, times, window=2):
        log = HeartbeatLog("app")
        for t in times:
            log.emit(t)
        return HeartbeatMonitor(log, target, rate_window=window)

    def test_current_rate_none_until_window_fills(self, target):
        monitor = self._monitor(target, [0.0, 0.1], window=2)
        assert monitor.current_rate() is None

    def test_observe(self, target):
        monitor = self._monitor(target, [0.0, 0.2, 0.4])
        obs = monitor.observe()
        assert obs.index == 2
        assert obs.rate == pytest.approx(5.0)
        assert obs.satisfaction is Satisfaction.ACHIEVE

    def test_needs_adaptation(self, target):
        fast = self._monitor(target, [0.0, 0.1, 0.2])  # 10 HPS
        assert fast.needs_adaptation()
        ok = self._monitor(target, [0.0, 0.2, 0.4])  # 5 HPS
        assert not ok.needs_adaptation()

    def test_mean_normalized_performance(self, target):
        # 2.5 HPS throughout: normalized perf 0.5 at every window.
        monitor = self._monitor(target, [0.0, 0.4, 0.8, 1.2])
        assert monitor.mean_normalized_performance() == pytest.approx(0.5)

    def test_mean_normalized_perf_too_few_beats_raises(self, target):
        monitor = self._monitor(target, [0.0])
        with pytest.raises(ConfigurationError):
            monitor.mean_normalized_performance()

    def test_satisfaction_series(self, target):
        monitor = self._monitor(target, [0.0, 0.1, 0.2])
        series = monitor.satisfaction_series()
        assert series[-1][1] is Satisfaction.OVERPERF
