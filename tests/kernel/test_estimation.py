"""The cached estimation layer must be invisible: bit-identical results.

The core property: an Algorithm 2 sweep through the cached layer picks
the same state with the same estimated floats as a sweep through the
raw estimators — warm or cold — across randomized current states,
observed rates, and targets (the full HARS-E box).  Plus the
invalidation protocol: swapping a model drops the stale cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import calibrate
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HARS_E
from repro.core.search import get_next_sys_state
from repro.core.state import SystemState, from_indices
from repro.heartbeats.targets import PerformanceTarget, Satisfaction
from repro.kernel.estimation import (
    CachedPerformanceEstimator,
    CachedPowerEstimator,
    EstimationLayer,
)
from repro.platform.spec import odroid_xu3

_SPEC = odroid_xu3()
_PERF = PerformanceEstimator()
_POWER = calibrate(_SPEC)
# One warm layer shared across all hypothesis examples: later examples
# hit entries earlier examples cached, which is exactly the production
# access pattern the identity property must survive.
_LAYER = EstimationLayer(_PERF, _POWER)

_CB = st.integers(min_value=0, max_value=4)
_CL = st.integers(min_value=0, max_value=4)
_IFB = st.integers(min_value=0, max_value=8)
_IFL = st.integers(min_value=0, max_value=5)
_RATE = st.floats(min_value=0.1, max_value=10.0)
_CENTER = st.floats(min_value=0.2, max_value=8.0)


def _sweep(current, rate, target, perf, power):
    return get_next_sys_state(
        spec=_SPEC,
        current=current,
        observed_rate=rate,
        n_threads=8,
        target=target,
        space=HARS_E.space_for(Satisfaction.OVERPERF),  # the full 9^4 box
        perf_estimator=perf,
        power_estimator=power,
    )


@given(cb=_CB, cl=_CL, ifb=_IFB, ifl=_IFL, rate=_RATE, center=_CENTER)
@settings(max_examples=25, deadline=None)
def test_cached_sweep_is_bit_identical_to_raw(cb, cl, ifb, ifl, rate, center):
    if cb == 0 and cl == 0:
        return
    current = from_indices(_SPEC, cb, cl, ifb, ifl)
    target = PerformanceTarget(0.9 * center, center, 1.1 * center)
    raw = _sweep(current, rate, target, _PERF, _POWER)
    cached = _sweep(current, rate, target, _LAYER.perf, _LAYER.power)
    assert cached.state == raw.state
    assert cached.states_explored == raw.states_explored
    # Bit-identical floats, not approximate equality.
    assert cached.best.est_rate == raw.best.est_rate
    assert cached.best.norm_perf == raw.best.norm_perf
    assert cached.best.est_power == raw.best.est_power


class TestCachedPerformanceEstimator:
    def test_hit_returns_the_same_object(self):
        cached = CachedPerformanceEstimator(PerformanceEstimator())
        state = SystemState(2, 2, 1200, 1000)
        first = cached.estimate(state, 8)
        assert cached.estimate(state, 8) is first
        assert (cached.hits, cached.misses) == (1, 1)

    def test_key_includes_thread_count(self):
        cached = CachedPerformanceEstimator(PerformanceEstimator())
        state = SystemState(2, 2, 1200, 1000)
        assert cached.estimate(state, 4) != cached.estimate(state, 8)
        assert cached.misses == 2

    def test_estimate_rate_matches_inner(self):
        inner = PerformanceEstimator()
        cached = CachedPerformanceEstimator(inner)
        a = SystemState(4, 4, 1600, 1300)
        b = SystemState(1, 2, 900, 800)
        assert cached.estimate_rate(a, b, 1.7, 8) == inner.estimate_rate(
            a, b, 1.7, 8
        )

    def test_clear_forces_recompute(self):
        cached = CachedPerformanceEstimator(PerformanceEstimator())
        state = SystemState(1, 0, 1600, 800)
        cached.estimate(state, 8)
        cached.clear()
        cached.estimate(state, 8)
        assert (cached.hits, cached.misses) == (0, 2)

    def test_attribute_passthrough(self):
        inner = PerformanceEstimator(r0=2.0)
        assert CachedPerformanceEstimator(inner).r0 == 2.0


class TestCachedPowerEstimator:
    def test_hit_skips_the_inner_model(self):
        calls = []

        class Counting:
            def estimate(self, state, perf):
                calls.append(state)
                return 1.25

        cached = CachedPowerEstimator(Counting())
        state = SystemState(2, 2, 1200, 1000)
        perf = _PERF.estimate(state, 8)
        assert cached.estimate(state, perf) == 1.25
        assert cached.estimate(state, perf) == 1.25
        assert len(calls) == 1


class TestEstimationLayerInvalidation:
    def test_power_swap_drops_stale_entries(self):
        # Recalibration produces a new PowerEstimator; estimates cached
        # against the old coefficients must not survive the swap.
        class Constant:
            def __init__(self, watts):
                self.watts = watts

            def estimate(self, state, perf):
                return self.watts

        layer = EstimationLayer(_PERF, Constant(1.0))
        state = SystemState(2, 2, 1200, 1000)
        perf = layer.perf.estimate(state, 8)
        assert layer.power.estimate(state, perf) == 1.0
        layer.set_power_estimator(Constant(2.0))
        assert layer.power.estimate(state, perf) == 2.0

    def test_perf_swap_drops_stale_entries(self):
        layer = EstimationLayer(PerformanceEstimator(r0=1.5), _POWER)
        state = SystemState(2, 2, 1200, 1000)
        before = layer.perf.estimate(state, 8)
        layer.set_perf_estimator(PerformanceEstimator(r0=2.5))
        after = layer.perf.estimate(state, 8)
        assert after != before
        assert layer.perf.r0 == 2.5

    def test_invalidate_keeps_models_but_drops_entries(self):
        layer = EstimationLayer(_PERF, _POWER)
        state = SystemState(1, 1, 1000, 900)
        first = layer.perf.estimate(state, 8)
        layer.invalidate()
        again = layer.perf.estimate(state, 8)
        assert again == first  # same model, recomputed
        assert layer.perf.misses == 2

    def test_layer_always_wraps_estimators(self):
        layer = EstimationLayer(_PERF, _POWER)
        assert isinstance(layer.perf, CachedPerformanceEstimator)
        assert isinstance(layer.power, CachedPowerEstimator)
        assert layer.perf.inner is _PERF
        assert layer.power.inner is _POWER


class TestEstimationLayerStats:
    def test_stats_reports_current_counters(self):
        layer = EstimationLayer(PerformanceEstimator(), _POWER)
        state = SystemState(2, 2, 1200, 1000)
        layer.perf.estimate(state, 8)
        layer.perf.estimate(state, 8)
        stats = layer.stats()
        assert stats["perf_misses"] == 1
        assert stats["perf_hits"] == 1

    def test_stats_survive_perf_estimator_swap(self):
        # Regression: online ratio learning swaps the performance model
        # every adaptation period; the swap must retire the old wrapper's
        # counters into the layer totals, not zero them.
        layer = EstimationLayer(PerformanceEstimator(r0=1.5), _POWER)
        state = SystemState(2, 2, 1200, 1000)
        layer.perf.estimate(state, 8)
        layer.perf.estimate(state, 8)  # 1 miss, 1 hit
        layer.set_perf_estimator(PerformanceEstimator(r0=2.5))
        layer.perf.estimate(state, 8)  # fresh cache: 1 more miss
        stats = layer.stats()
        assert stats["perf_misses"] == 2
        assert stats["perf_hits"] == 1

    def test_stats_survive_power_estimator_swap(self):
        class Constant:
            def __init__(self, watts):
                self.watts = watts

            def estimate(self, state, perf):
                return self.watts

        layer = EstimationLayer(PerformanceEstimator(), Constant(1.0))
        state = SystemState(2, 2, 1200, 1000)
        perf = layer.perf.estimate(state, 8)
        layer.power.estimate(state, perf)
        layer.power.estimate(state, perf)  # 1 miss, 1 hit
        layer.set_power_estimator(Constant(2.0))
        layer.power.estimate(state, perf)
        stats = layer.stats()
        assert stats["power_misses"] == 2
        assert stats["power_hits"] == 1

    def test_fresh_layer_stats_are_zero(self):
        layer = EstimationLayer(_PERF, _POWER)
        layer.set_perf_estimator(PerformanceEstimator())
        assert layer.stats() == {
            "perf_hits": 0,
            "perf_misses": 0,
            "power_hits": 0,
            "power_misses": 0,
            "tensor_builds": 0,
            "tensor_reuses": 0,
        }

    def test_stats_report_tensor_builds_and_reuses(self):
        # The vector planner's lookups bypass the per-state memo, so
        # stats() meters its tensor builds/reuses instead of silently
        # reporting an idle cache.
        spec = odroid_xu3()
        layer = EstimationLayer(_PERF, _POWER)
        first = layer.tensor(spec, 8)
        again = layer.tensor(spec, 8)
        assert again is first
        stats = layer.stats()
        assert stats["tensor_builds"] == 1
        assert stats["tensor_reuses"] == 1
        # A different thread count is a different tensor.
        layer.tensor(spec, 4)
        assert layer.stats()["tensor_builds"] == 2

    def test_tensor_invalidates_on_model_swap_and_invalidate(self):
        spec = odroid_xu3()
        layer = EstimationLayer(_PERF, _POWER)
        first = layer.tensor(spec, 8)
        layer.set_power_estimator(_POWER)
        rebuilt = layer.tensor(spec, 8)
        assert rebuilt is not first
        layer.set_perf_estimator(PerformanceEstimator())
        assert layer.tensor(spec, 8) is not rebuilt
        third = layer.tensor(spec, 8)
        layer.invalidate()
        assert layer.tensor(spec, 8) is not third
        assert layer.stats()["tensor_builds"] == 4
