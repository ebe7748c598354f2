"""Unit tests for the barrier data-parallel workload model."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.base import WorkloadTraits
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.phases import ConstantProfile


def _model(n_threads=4, n_units=3, unit_work=4.0, serial=0.0):
    traits = WorkloadTraits(name="dp-test")
    return DataParallelWorkload(
        traits,
        n_threads,
        ConstantProfile(unit_work),
        n_units,
        serial_work=serial,
    )


class TestBarrierSemantics:
    def test_all_threads_needed_for_heartbeat(self):
        model = _model()
        # Three of four threads finish their shares: no heartbeat.
        result = model.advance({0: 1.0, 1: 1.0, 2: 1.0})
        assert result.heartbeats == 0
        # The straggler finishes: the unit completes.
        result = model.advance({3: 1.0})
        assert result.heartbeats == 1

    def test_threads_cannot_work_ahead_of_barrier(self):
        model = _model()
        result = model.advance({0: 10.0})
        # Thread 0 can only do its 1.0 share of the current unit.
        assert result.consumed[0] == pytest.approx(1.0)
        assert list(model.runnable_threads()) == [1, 2, 3]

    def test_large_grants_complete_multiple_units(self):
        model = _model(n_units=3)
        result = model.advance({i: 100.0 for i in range(4)})
        assert result.heartbeats == 3
        assert result.done
        assert model.is_done()

    def test_equal_share_split(self):
        model = _model(n_threads=4, unit_work=8.0)
        result = model.advance({i: 100.0 for i in range(4)})
        # 3 units × 2.0 share each.
        assert all(
            consumed == pytest.approx(6.0)
            for consumed in result.consumed.values()
        )

    def test_done_model_consumes_nothing(self):
        model = _model(n_units=1)
        model.advance({i: 100.0 for i in range(4)})
        result = model.advance({0: 1.0})
        assert result.done and not result.consumed


class TestSerialPhase:
    def test_only_thread_zero_runs_during_serial_phase(self):
        model = _model(serial=5.0)
        assert list(model.runnable_threads()) == [0]

    def test_serial_phase_emits_no_heartbeats(self):
        model = _model(serial=5.0)
        result = model.advance({0: 4.0})
        assert result.heartbeats == 0
        assert model.in_serial_phase

    def test_serial_grant_to_other_threads_is_wasted(self):
        model = _model(serial=5.0)
        result = model.advance({1: 3.0})
        assert result.consumed.get(1, 0.0) == 0.0

    def test_transition_to_parallel_within_one_advance(self):
        model = _model(serial=1.0, n_units=1, unit_work=4.0)
        result = model.advance({i: 100.0 for i in range(4)})
        assert result.heartbeats == 1
        assert result.consumed[0] == pytest.approx(1.0 + 1.0)  # serial + share

    def test_a_serial_phase_within_the_slack_starts_parallel(self):
        # A serial phase of at most the completion slack counts as over:
        # the first unit is loaded, so every thread is runnable.
        model = _model(serial=1e-10, n_units=1, unit_work=4.0)
        assert list(model.runnable_threads()) == [0, 1, 2, 3]
        result = model.advance({0: 1.0})
        assert result.consumed[0] == pytest.approx(1.0)
        assert list(model.runnable_threads()) == [1, 2, 3]

    def test_units_completed_counter(self):
        model = _model(n_units=2)
        assert model.units_completed == 0
        model.advance({i: 1.0 for i in range(4)})
        assert model.units_completed == 1


class TestValidation:
    def test_total_heartbeats(self):
        assert _model(n_units=7).total_heartbeats() == 7

    def test_reset_restores_initial_state(self):
        model = _model(n_units=2)
        model.advance({i: 100.0 for i in range(4)})
        model.reset()
        assert not model.is_done()
        assert model.units_completed == 0

    def test_negative_serial_rejected(self):
        with pytest.raises(ConfigurationError):
            _model(serial=-1.0)

    def test_zero_units_rejected(self):
        with pytest.raises(ConfigurationError):
            _model(n_units=0)
