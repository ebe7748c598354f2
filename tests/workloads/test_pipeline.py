"""Unit tests for the pipeline workload model."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.base import WorkloadTraits
from repro.workloads.pipeline import PipelineWorkload, StageSpec


def _model(n_items=10, queue_depth=5, costs=(1.0, 1.0)):
    stages = tuple(
        StageSpec(f"s{i}", 1, cost) for i, cost in enumerate(costs)
    )
    return PipelineWorkload(
        WorkloadTraits(name="pipe-test"), stages, n_items, queue_depth
    )


class TestTopology:
    def test_threads_assigned_stage_by_stage(self):
        stages = (
            StageSpec("in", 1, 0.5),
            StageSpec("mid", 2, 1.0),
            StageSpec("out", 1, 0.5),
        )
        model = PipelineWorkload(WorkloadTraits(name="p"), stages, 5)
        assert model.n_threads == 4
        assert [model.thread_stage(i) for i in range(4)] == [0, 1, 1, 2]
        assert model.stage_threads(1) == (1, 2)

    def test_needs_two_stages(self):
        with pytest.raises(ConfigurationError):
            PipelineWorkload(
                WorkloadTraits(name="p"), (StageSpec("only", 1, 1.0),), 5
            )


class TestFlow:
    def test_item_advances_one_stage_per_tick(self):
        model = _model()
        first = model.advance({0: 1.0, 1: 1.0})
        assert first.heartbeats == 0  # item still between the stages
        second = model.advance({0: 1.0, 1: 1.0})
        assert second.heartbeats == 1

    def test_heartbeat_per_item_leaving_last_stage(self):
        model = _model(n_items=3)
        total = 0
        for _ in range(20):
            total += model.advance({0: 5.0, 1: 5.0}).heartbeats
            if model.is_done():
                break
        assert total == 3
        assert model.items_emitted == 3

    def test_source_is_finite(self):
        model = _model(n_items=2, queue_depth=10)
        model.advance({0: 100.0})
        assert model.queue_levels()[1] == pytest.approx(2.0)
        # The source is drained: stage 0 has nothing more to do.
        assert 0 not in model.runnable_threads()

    def test_bounded_queue_blocks_producer(self):
        model = _model(n_items=100, queue_depth=5)
        result = model.advance({0: 100.0})
        # Stage 0 can only fill the queue to its depth.
        assert model.queue_levels()[1] == pytest.approx(5.0)
        assert result.consumed[0] == pytest.approx(5.0)
        # Stage 0 is blocked on the full queue; stage 1 has input.
        assert list(model.runnable_threads()) == [1]

    def test_starved_stage_does_not_want_cpu(self):
        model = _model()
        # Nothing has reached stage 1 yet.
        assert list(model.runnable_threads()) == [0]

    def test_starved_stage_consumes_nothing(self):
        model = _model()
        result = model.advance({1: 5.0})
        assert result.consumed.get(1, 0.0) == 0.0

    def test_slowest_stage_bounds_throughput(self):
        # Stage 1 is 4× the cost of stage 0: output rate tracks stage 1.
        model = _model(n_items=50, queue_depth=5, costs=(0.5, 2.0))
        beats = 0
        ticks = 0
        while not model.is_done() and ticks < 500:
            beats += model.advance({0: 1.0, 1: 1.0}).heartbeats
            ticks += 1
        # Stage 1 processes 0.5 items per tick once the pipe is warm.
        assert beats == 50
        assert ticks == pytest.approx(50 / 0.5, rel=0.1)

    def test_done_after_all_items(self):
        model = _model(n_items=1)
        for _ in range(5):
            model.advance({0: 10.0, 1: 10.0})
        assert model.is_done()
        assert model.advance({0: 1.0}).done

    def test_reset(self):
        model = _model(n_items=2)
        for _ in range(10):
            model.advance({0: 5.0, 1: 5.0})
        model.reset()
        assert not model.is_done()
        assert model.items_emitted == 0
        assert model.queue_levels()[1] == 0.0


class TestValidation:
    def test_total_heartbeats(self):
        assert _model(n_items=9).total_heartbeats() == 9

    def test_bad_stage_spec(self):
        with pytest.raises(ConfigurationError):
            StageSpec("s", 0, 1.0)
        with pytest.raises(ConfigurationError):
            StageSpec("s", 1, 0.0)

    def test_bad_thread_index(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            _model().thread_stage(42)

    def test_bad_stage_index(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            _model().stage_threads(2)
        with pytest.raises(SimulationError):
            _model().stage_threads(-1)
