"""Property tests for the SLO window percentiles.

The percentile implementation claims exactness against
``statistics.quantiles(..., method="inclusive")`` — these tests hold it
to that on random traces, plus the monotonicity properties a tail-latency
controller depends on (adding slow requests must never *lower* a
reported tail).
"""

import random
import statistics

import pytest

from repro.errors import ConfigurationError
from repro.fleet.slo import SloWindow, percentile, recovery_time_s


class TestPercentileFunction:
    def test_single_sample_is_every_percentile(self):
        for p in (0.0, 37.5, 50.0, 99.0, 100.0):
            assert percentile([4.2], p) == 4.2

    def test_linear_interpolation(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)
        assert percentile([0.0, 10.0], 25.0) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0

    def test_order_independent(self):
        data = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(data, 95.0) == percentile(sorted(data), 95.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_statistics_quantiles_inclusive(self, seed):
        rng = random.Random(seed)
        data = [rng.expovariate(10.0) for _ in range(rng.randint(2, 200))]
        cuts = statistics.quantiles(data, n=100, method="inclusive")
        for p in (1, 25, 50, 75, 90, 95, 99):
            assert percentile(data, float(p)) == pytest.approx(
                cuts[p - 1], rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_p(self, seed):
        rng = random.Random(100 + seed)
        data = [rng.random() for _ in range(50)]
        values = [percentile(data, float(p)) for p in range(0, 101, 5)]
        assert values == sorted(values)

    @pytest.mark.parametrize("seed", range(5))
    def test_adding_slow_requests_never_lowers_the_tail(self, seed):
        """The property the MAPE loop leans on: congestion raises P95."""
        rng = random.Random(200 + seed)
        data = [rng.expovariate(5.0) for _ in range(40)]
        before = percentile(data, 95.0)
        slow = max(data) * (1.0 + rng.random())
        for _ in range(10):
            data.append(slow)
            after = percentile(data, 95.0)
            assert after >= before - 1e-15
            before = after

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50.0)
        with pytest.raises(ConfigurationError):
            percentile([1.0], -1.0)
        with pytest.raises(ConfigurationError):
            percentile([1.0], 100.5)


class TestSloWindow:
    def test_empty_window_reports_none(self):
        window = SloWindow()
        assert window.percentile(95.0) is None
        assert window.quantile_summary() is None
        assert window.miss_ratio == 0.0

    def test_observe_and_percentile(self):
        window = SloWindow(max_samples=8)
        for latency in (0.1, 0.2, 0.3, 0.4):
            window.observe(latency)
        assert len(window) == 4
        assert window.percentile(50.0) == pytest.approx(0.25)

    def test_sliding_eviction_forgets_old_samples(self):
        window = SloWindow(max_samples=4)
        for _ in range(4):
            window.observe(0.01)
        fast_p50 = window.percentile(50.0)
        for _ in range(4):
            window.observe(1.0)
        assert window.percentile(50.0) == pytest.approx(1.0)
        assert window.percentile(50.0) > fast_p50
        assert len(window) == 4
        # Cumulative accounting still sees the whole stream.
        assert window.observed_total == 8

    def test_miss_accounting(self):
        window = SloWindow()
        window.observe(0.1, missed=False)
        window.observe(0.9, missed=True)
        window.observe(0.2, missed=False)
        window.observe(1.1, missed=True)
        assert window.miss_total == 2
        assert window.miss_ratio == pytest.approx(0.5)

    def test_quantile_summary_triple(self):
        window = SloWindow()
        for i in range(100):
            window.observe(i / 100.0)
        summary = window.quantile_summary()
        assert set(summary) == {"p50", "p95", "p99"}
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_negative_latency_rejected(self):
        window = SloWindow()
        with pytest.raises(ConfigurationError):
            window.observe(-0.01)

    def test_tiny_window_rejected(self):
        with pytest.raises(ConfigurationError):
            SloWindow(max_samples=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_sorted_window_is_exact_through_eviction(self, seed):
        """The incrementally sorted window answers exactly what sorting
        the deque would, including after equal values are evicted."""
        rng = random.Random(300 + seed)
        window = SloWindow(max_samples=rng.choice((2, 7, 32)))
        # Few distinct values (some exactly equal), 3x the window.
        values = [rng.choice((0.0, 0.05, 0.1, 0.25)) for _ in range(4)]
        values += [rng.expovariate(10.0) for _ in range(4)]
        for _ in range(3 * window.max_samples):
            window.observe(rng.choice(values))
            samples = list(window._window)
            for p in range(0, 101):
                assert window.percentile(float(p)) == percentile(
                    samples, float(p)
                )
            assert window.quantile_summary() == {
                "p50": percentile(samples, 50.0),
                "p95": percentile(samples, 95.0),
                "p99": percentile(samples, 99.0),
            }
        with pytest.raises(ConfigurationError):
            window.percentile(-1.0)
        with pytest.raises(ConfigurationError):
            window.percentile(100.5)


class TestRecoveryTime:
    """The crash-wave SLO-recovery metric ``bench_fleet_chaos`` reports."""

    @staticmethod
    def _stream(event_s, bad, good, step=0.01):
        """``bad`` misses right after the event, then ``good`` hits."""
        out = []
        now = event_s
        for _ in range(bad):
            now += step
            out.append((now, True))
        for _ in range(good):
            now += step
            out.append((now, False))
        return out

    def test_recovers_once_the_window_goes_clean(self):
        stream = self._stream(5.0, bad=10, good=200)
        recovery = recovery_time_s(stream, 5.0, window=100, max_miss_ratio=0.05)
        # Needs 100 samples in the window with <= 5 misses: the 10 bad
        # completions must be diluted past sample 105.
        assert recovery == pytest.approx(1.05)

    def test_never_recovering_stream_reports_none(self):
        stream = self._stream(5.0, bad=150, good=0)
        assert recovery_time_s(stream, 5.0, window=100) is None

    def test_too_few_post_event_completions_report_none(self):
        stream = self._stream(5.0, bad=0, good=50)
        assert recovery_time_s(stream, 5.0, window=100) is None

    def test_pre_event_completions_ignored(self):
        noise = [(1.0, True)] * 500
        stream = noise + self._stream(5.0, bad=0, good=100)
        assert recovery_time_s(stream, 5.0, window=100) == pytest.approx(1.0)

    def test_order_independent(self):
        stream = self._stream(2.0, bad=5, good=150)
        shuffled = list(reversed(stream))
        assert recovery_time_s(stream, 2.0) == recovery_time_s(shuffled, 2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            recovery_time_s([], 0.0, window=0)
        with pytest.raises(ConfigurationError):
            recovery_time_s([], 0.0, max_miss_ratio=1.5)
