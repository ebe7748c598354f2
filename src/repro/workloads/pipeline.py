"""Pipeline-parallel workload model (ferret).

PARSEC's ferret is a six-stage similarity-search pipeline: a serial input
stage, four parallel middle stages, and a serial output stage.  Items
flow through bounded inter-stage queues; the application emits a
heartbeat each time an item leaves the last stage, so whole-application
throughput is capped by the *slowest stage* — which is exactly why the
chunk-based scheduler (consecutive thread ids on the little cluster) can
starve it, and the interleaving scheduler fixes it (Section 3.1.3,
Figure 3.2).

The model is a fluid approximation: per tick, each stage converts its
threads' granted work capacity into items (``capacity / cost_per_item``)
bounded by its input queue and the next queue's free space.  Stages are
drained from the back of the pipeline forwards, so an item advances at
most one stage per tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.workloads.base import AdvanceResult, WorkloadModel, WorkloadTraits

_EPSILON = 1e-9


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage.

    ``cost_per_item`` is in work units; ``n_threads`` threads serve the
    stage concurrently.
    """

    name: str
    n_threads: int
    cost_per_item: float

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ConfigurationError(f"stage {self.name}: needs a thread")
        if self.cost_per_item <= 0:
            raise ConfigurationError(f"stage {self.name}: cost must be positive")


class PipelineWorkload(WorkloadModel):
    """Multi-stage pipeline with bounded queues and per-item heartbeats.

    Thread indices are assigned stage by stage in order — stage 0 gets
    threads ``0 .. n_0−1``, stage 1 the next ``n_1``, and so on — which is
    the thread-id ordering the paper's chunk-based scheduler assumes.
    """

    def __init__(
        self,
        traits: WorkloadTraits,
        stages: Tuple[StageSpec, ...],
        n_items: int,
        queue_depth: int = 20,
    ):
        if len(stages) < 2:
            raise ConfigurationError(f"{traits.name}: need at least two stages")
        if n_items < 1:
            raise ConfigurationError(f"{traits.name}: need at least one item")
        if queue_depth < 1:
            raise ConfigurationError(f"{traits.name}: queue depth must be >= 1")
        super().__init__(traits, sum(s.n_threads for s in stages))
        self.stages = stages
        self.n_items = n_items
        self.queue_depth = queue_depth
        self._stage_of_thread: List[int] = []
        members: List[Tuple[int, ...]] = []
        for stage_index, stage in enumerate(stages):
            first = len(self._stage_of_thread)
            members.append(tuple(range(first, first + stage.n_threads)))
            self._stage_of_thread.extend([stage_index] * stage.n_threads)
        #: Per stage, the ascending thread indices serving it.
        self._stage_members: Tuple[Tuple[int, ...], ...] = tuple(members)
        self.reset()

    def reset(self, seed: int = 0) -> None:
        self._seed = seed
        self._source_remaining = float(self.n_items)
        # _queues[s] feeds stage s for s >= 1; stage 0 reads the source.
        self._queues: List[float] = [0.0] * len(self.stages)
        self._output = 0.0
        self._emitted = 0
        self._done = False

    # -- topology ------------------------------------------------------------

    def thread_stage(self, thread_index: int) -> int:
        if not 0 <= thread_index < self.n_threads:
            raise SimulationError(
                f"{self.name}: thread index {thread_index} out of range"
            )
        return self._stage_of_thread[thread_index]

    def stage_threads(self, stage_index: int) -> Tuple[int, ...]:
        """Thread indices serving a stage."""
        if not 0 <= stage_index < len(self.stages):
            raise SimulationError(
                f"{self.name}: stage index {stage_index} out of range"
            )
        return self._stage_members[stage_index]

    def _stage_input(self, stage_index: int) -> float:
        """Items available to a stage right now."""
        if stage_index == 0:
            return self._source_remaining
        return self._queues[stage_index]

    # -- WorkloadModel interface ----------------------------------------------

    def runnable_threads(self) -> List[int]:
        runnable: List[int] = []
        if self._done:
            return runnable
        last = len(self.stages) - 1
        for stage_index, members in enumerate(self._stage_members):
            if self._stage_input(stage_index) <= _EPSILON:
                continue  # starved: blocked on the input queue
            if (
                stage_index < last
                and self._queues[stage_index + 1] >= self.queue_depth - _EPSILON
            ):
                # Blocked on a full output queue: the threads sleep on
                # the queue's condition variable rather than spinning.
                continue
            runnable.extend(members)
        return runnable

    def advance(self, grants: Dict[int, float]) -> AdvanceResult:
        if self._done:
            return AdvanceResult(consumed={}, done=True)
        consumed = dict.fromkeys(grants, 0.0)

        # Drain back-to-front so an item moves at most one stage per tick.
        stages = self.stages
        queues = self._queues
        last = len(stages) - 1
        for stage_index in range(last, -1, -1):
            members = self._stage_members[stage_index]
            stage_grants = [grants.get(i, 0.0) for i in members]
            capacity_work = sum(stage_grants)
            capacity_items = capacity_work / stages[stage_index].cost_per_item
            available = self._stage_input(stage_index)
            if stage_index < last:
                space = self.queue_depth - queues[stage_index + 1]
            else:
                space = math.inf
            processed = max(0.0, min(capacity_items, available, space))

            if stage_index == 0:
                self._source_remaining -= processed
            else:
                queues[stage_index] -= processed
            if stage_index < last:
                queues[stage_index + 1] += processed
            else:
                self._output += processed

            # Attribute consumed work to the stage's threads pro rata.
            if capacity_items > _EPSILON and processed > 0:
                fraction = processed / capacity_items
                for i, grant in zip(members, stage_grants):
                    consumed[i] = consumed.get(i, 0.0) + grant * fraction

        emitted_now = int(self._output + _EPSILON) - self._emitted
        if not emitted_now:
            return AdvanceResult(consumed=consumed)
        self._emitted += emitted_now
        if self._emitted >= self.n_items:
            self._done = True
        return AdvanceResult(
            consumed=consumed,
            heartbeats=emitted_now,
            heartbeat_tags=("pipeline",) * emitted_now,
            done=self._done,
        )

    def is_done(self) -> bool:
        return self._done

    def total_heartbeats(self) -> int:
        return self.n_items

    # -- introspection ---------------------------------------------------------

    @property
    def items_emitted(self) -> int:
        return self._emitted

    def queue_levels(self) -> Tuple[float, ...]:
        """Current inter-stage queue occupancy (index 0 unused)."""
        return tuple(self._queues)
