"""ServerWorkload queue semantics: grants in, tagged heartbeats out."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.serving import ServerWorkload


@pytest.fixture
def lane():
    return ServerWorkload("base", n_threads=2)


class TestQueueing:
    def test_empty_lane_wants_no_cpu(self, lane):
        assert lane.runnable_threads() == []
        assert lane.backlog_units == 0.0

    def test_submit_makes_threads_hungry(self, lane):
        lane.submit(0, 1.0)
        assert lane.runnable_threads() == [0, 1]
        assert lane.queue_len == 1
        assert lane.backlog_units == pytest.approx(1.0)

    def test_completion_emits_tagged_heartbeat(self, lane):
        lane.submit(7, 1.0)
        result = lane.advance({0: 1.0, 1: 1.0})
        assert result.heartbeats == 1
        assert result.heartbeat_tags == ("7",)
        assert lane.backlog_units == pytest.approx(0.0)

    def test_partial_grant_keeps_request_in_service(self, lane):
        lane.submit(0, 1.0)
        result = lane.advance({0: 0.4})
        assert result.heartbeats == 0
        assert lane.in_service == 1
        assert lane.queue_len == 0
        assert lane.backlog_units == pytest.approx(0.6)
        # Nothing waits: only the worker holding the request wants CPU.
        assert lane.runnable_threads() == [0]
        result = lane.advance({0: 0.6})
        assert result.heartbeat_tags == ("0",)

    def test_fifo_dispatch_is_deterministic(self, lane):
        for index in range(4):
            lane.submit(index, 0.5)
        # Thread 0 drains first regardless of grant dict ordering.
        result = lane.advance({1: 0.5, 0: 0.5})
        assert result.heartbeat_tags == ("0", "1")
        result = lane.advance({0: 1.0})
        assert result.heartbeat_tags == ("2", "3")

    def test_one_thread_chews_through_queue_in_one_big_grant(self, lane):
        for index in range(3):
            lane.submit(index, 1.0)
        result = lane.advance({0: 3.0})
        assert result.heartbeat_tags == ("0", "1", "2")
        assert result.consumed[0] == pytest.approx(3.0)

    def test_unused_budget_reported(self, lane):
        lane.submit(0, 0.25)
        result = lane.advance({0: 1.0})
        assert result.consumed[0] == pytest.approx(0.25)

    def test_endless_workload_contract(self, lane):
        assert not lane.is_done()
        assert lane.total_heartbeats() == 0

    def test_reset_clears_queue(self, lane):
        lane.submit(0, 1.0)
        lane.advance({0: 0.5})
        lane.reset()
        assert lane.backlog_units == 0.0
        assert lane.queue_len == 0
        assert lane.in_service == 0

    def test_rejects_bad_inputs(self, lane):
        with pytest.raises(ConfigurationError):
            lane.submit(0, 0.0)
        with pytest.raises(ConfigurationError):
            ServerWorkload("", 2)


class TestVelocityAndCancel:
    """Chaos hooks: service-velocity episodes and attempt cancellation."""

    def test_hang_freezes_progress_and_heartbeats(self, lane):
        lane.submit(0, 1.0)
        lane.velocity_factor = 0.0
        result = lane.advance({0: 5.0})
        assert result.heartbeats == 0
        assert result.consumed[0] == 0.0
        assert lane.backlog_units == pytest.approx(1.0)
        # Episode over: the queue resumes exactly where it froze.
        lane.velocity_factor = 1.0
        assert lane.advance({0: 1.0}).heartbeat_tags == ("0",)

    def test_slowdown_scales_the_grant(self, lane):
        lane.submit(0, 1.0)
        lane.velocity_factor = 0.25
        lane.advance({0: 2.0})
        assert lane.backlog_units == pytest.approx(0.5)

    def test_reset_restores_nominal_velocity(self, lane):
        lane.velocity_factor = 0.0
        lane.reset()
        assert lane.velocity_factor == 1.0

    def test_cancel_queued_request(self, lane):
        lane.submit(0, 1.0)
        lane.submit(1, 1.0)
        assert lane.cancel(0)
        assert lane.queue_len == 1
        assert lane.backlog_units == pytest.approx(1.0)
        # The survivor is untouched and completes normally.
        assert lane.advance({0: 1.0}).heartbeat_tags == ("1",)

    def test_cancel_in_service_request_frees_the_worker(self, lane):
        lane.submit(0, 1.0)
        lane.submit(1, 1.0)
        lane.advance({0: 0.4})  # request 0 in service on thread 0
        assert lane.cancel(0)
        assert lane.in_service == 0
        assert lane.advance({0: 1.0}).heartbeat_tags == ("1",)

    def test_cancel_missing_request_is_a_noop(self, lane):
        lane.submit(0, 1.0)
        assert not lane.cancel(42)
        assert lane.queue_len == 1


class TestEmptyQueueHoldsNoDust:
    """A queue emptied by cancels or dispatch holds exactly 0.0 units.

    A running sum would not: adding 0.1, 0.2 and 0.3 and taking them
    back off in the same order leaves 1.1e-16, and dust of either sign
    is a wrong wait — a negative one routers would prefer over a truly
    idle lane."""

    SIZES = (0.1, 0.2, 0.3)

    def test_cancels_leave_zero(self, lane):
        for index, units in enumerate(self.SIZES):
            lane.submit(index, units)
        for index in range(len(self.SIZES)):
            assert lane.cancel(index)
        assert lane.queue_len == 0
        assert lane.backlog_units == 0.0

    def test_dispatch_leaves_zero(self):
        lane = ServerWorkload("base", n_threads=3)
        for index, units in enumerate(self.SIZES):
            lane.submit(index, units)
        lane.advance({0: 0.01, 1: 0.01, 2: 0.01})
        assert lane.queue_len == 0
        assert lane._rows.queued.item(0, 0) == 0.0
