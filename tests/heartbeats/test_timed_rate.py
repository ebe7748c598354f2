"""Regression tests for the timed-window rate (partial-window bias).

The bug these pin down: dividing a timed window's beat count by the
*nominal* span instead of the window's *elapsed* span understates the
rate whenever the window is cut short — at the start of a stream, or
when a run terminates mid-window.  A steady 10 beats/s stream observed
0.3 s into the run must read as 10 beats/s, not 3.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.heartbeats.monitor import HeartbeatMonitor, elapsed_span_rate
from repro.heartbeats.record import HeartbeatLog
from repro.heartbeats.targets import PerformanceTarget


def _monitor(times):
    log = HeartbeatLog("app")
    for t in times:
        log.emit(t)
    return HeartbeatMonitor(log, PerformanceTarget.fraction_of(10.0, 0.5))


class TestCountBetween:
    def test_half_open_interval(self):
        log = HeartbeatLog("app")
        for t in (0.1, 0.2, 0.3, 0.4):
            log.emit(t)
        # (start, end]: excludes the start point, includes the end.
        assert log.count_between(0.1, 0.3) == 2
        assert log.count_between(0.0, 0.4) == 4
        assert log.count_between(0.4, 1.0) == 0

    def test_empty_log(self):
        assert HeartbeatLog("app").count_between(0.0, 10.0) == 0


class TestTimedRate:
    def test_full_window_steady_stream(self):
        # 10 beats/s for 2 s, queried over the last full second.
        monitor = _monitor([i * 0.1 for i in range(1, 21)])
        assert monitor.timed_rate(2.0, 1.0) == pytest.approx(10.0)

    def test_partial_window_not_understated(self):
        """The regression: early in the run the window is short, and the
        full-span divisor would report 3 beats/s instead of 10."""
        monitor = _monitor([0.1, 0.2, 0.3])
        rate = monitor.timed_rate(0.3, 1.0)
        assert rate == pytest.approx(10.0)
        assert rate != pytest.approx(3.0)

    def test_start_offset_respected(self):
        # Stream starts at t=5; a 1 s window queried at t=5.2 spans
        # only 0.2 s of real stream.
        monitor = _monitor([5.1, 5.2])
        assert monitor.timed_rate(
            5.2, 1.0, start_s=5.0
        ) == pytest.approx(10.0)

    def test_no_elapsed_time_is_none(self):
        monitor = _monitor([0.1])
        assert monitor.timed_rate(0.0, 1.0) is None
        assert monitor.timed_rate(5.0, 1.0, start_s=5.0) is None

    def test_idle_window_reads_zero(self):
        monitor = _monitor([0.1, 0.2])
        assert monitor.timed_rate(10.0, 1.0) == 0.0

    def test_bad_span_rejected(self):
        monitor = _monitor([0.1])
        with pytest.raises(ConfigurationError):
            monitor.timed_rate(1.0, 0.0)

    @pytest.mark.parametrize("start_s", [0.0, 0.5, 3.0])
    def test_rule_same_for_floats_and_arrays(self, start_s):
        """The fleet engine's array call gives each element the float
        :meth:`timed_rate` gives, NaN where it gives ``None``."""
        monitor = _monitor([i * 0.1 for i in range(1, 21)])
        log = monitor.log
        now = np.array([[0.0], [0.05], [0.3], [1.0], [2.0], [2.05], [10.0]])

        def count_since(start):
            return np.array(
                [
                    [log.count_between(s, n)]
                    for s, n in zip(start[:, 0].tolist(), now[:, 0].tolist())
                ]
            )

        rates = elapsed_span_rate(now, 1.0, count_since, start_s)
        for now_s, rate in zip(now[:, 0].tolist(), rates[:, 0].tolist()):
            want = monitor.timed_rate(now_s, 1.0, start_s)
            if want is None:
                assert rate != rate
            else:
                assert rate == want


class TestTimedRateSeries:
    def test_tumbling_windows_tile_the_run(self):
        monitor = _monitor([i * 0.1 for i in range(1, 21)])  # 2 s @ 10/s
        series = monitor.timed_rate_series(0.5, 2.0)
        assert [end for end, _ in series] == pytest.approx(
            [0.5, 1.0, 1.5, 2.0]
        )
        assert [rate for _, rate in series] == pytest.approx([10.0] * 4)

    def test_final_partial_window_scaled_by_elapsed_span(self):
        """Run ends 0.2 s into the last 1 s window with 2 beats inside:
        the rate is 2/0.2 = 10, not 2/1.0 = 2."""
        monitor = _monitor([0.5, 1.0, 1.1, 1.2])
        series = monitor.timed_rate_series(1.0, 1.2)
        assert series[-1][0] == pytest.approx(1.2)
        assert series[-1][1] == pytest.approx(10.0)
        assert series[-1][1] != pytest.approx(2.0)

    def test_empty_range(self):
        monitor = _monitor([0.1])
        assert monitor.timed_rate_series(1.0, 0.0) == []

    def test_bad_span_rejected(self):
        monitor = _monitor([0.1])
        with pytest.raises(ConfigurationError):
            monitor.timed_rate_series(-1.0, 2.0)
