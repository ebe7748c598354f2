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

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.workloads.base import AdvanceResult, WorkloadModel, WorkloadTraits

_EPSILON = 1e-9

#: Stage layouts kept: one per grant round of a tick repeats them all.
_LAYOUTS_KEPT = 3


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
        #: Runnable threads per tuple of stage run flags.
        self._runnable: Dict[Tuple[bool, ...], Tuple[int, ...]] = {}
        self.reset()

    def reset(self, seed: int = 0) -> None:
        self._seed = seed
        self._source_remaining = float(self.n_items)
        # _queues[s] feeds stage s for s >= 1; stage 0 reads the source.
        self._queues: List[float] = [0.0] * len(self.stages)
        self._output = 0.0
        self._emitted = 0
        self._done = False
        #: The latest grant maps' stage layouts, newest first: ``(a copy
        #: of the grants, the layout, the grants' keys mapped to 0.0)``.
        self._layouts: List[tuple] = []

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

    # -- WorkloadModel interface ----------------------------------------------

    def runnable_threads(self) -> Tuple[int, ...]:
        """The members of every stage with input and room to put it,
        as one tuple per set of such stages (the same object while the
        set stands)."""
        if self._done:
            return ()
        # Stage s reads ``inputs[s]`` and writes ``queues[s + 1]``.
        # Starved stages block on their input queue; a stage whose output
        # queue is full sleeps on its condition variable rather than
        # spinning.  The last stage writes to the unbounded output.
        queues = self._queues
        full = self.queue_depth - _EPSILON
        inputs = [self._source_remaining, *queues[1:]]
        key = [
            available > _EPSILON and not level >= full
            for available, level in zip(inputs, queues[1:])
        ]
        key.append(inputs[-1] > _EPSILON)
        key = tuple(key)
        runnable = self._runnable.get(key)
        if runnable is None:
            runnable = self._runnable[key] = tuple(
                i
                for members, runs in zip(self._stage_members, key)
                if runs
                for i in members
            )
        return runnable

    def advance(self, grants: Dict[int, float]) -> AdvanceResult:
        if self._done:
            return AdvanceResult(consumed={}, done=True)
        for kept in self._layouts:
            if kept[0] == grants:
                break
        else:
            kept = (
                dict(grants),
                self._stage_layout(grants),
                dict.fromkeys(grants, 0.0),
            )
            self._layouts = [kept] + self._layouts[: _LAYOUTS_KEPT - 1]
        layout = kept[1]
        consumed = kept[2].copy()

        # Drain back-to-front so an item moves at most one stage per tick.
        queues = self._queues
        last = len(self.stages) - 1
        for stage_index, stage_grants, capacity_items in layout:
            # ``max(0.0, min(capacity_items, available, space))``, spelt
            # out: the builtins' calls cost more than the arithmetic.
            # Each test is theirs (an argument replaces the running
            # result only if strictly better), so NaNs and ties resolve
            # as they do.
            processed = capacity_items
            available = (
                self._source_remaining if stage_index == 0 else queues[stage_index]
            )
            if available < processed:
                processed = available
            if stage_index < last:
                space = self.queue_depth - queues[stage_index + 1]
                if space < processed:
                    processed = space
            if not processed > 0.0:
                processed = 0.0

            if stage_index == 0:
                self._source_remaining -= processed
            else:
                queues[stage_index] -= processed
            if stage_index < last:
                queues[stage_index + 1] += processed
            else:
                self._output += processed

            # Attribute consumed work to the stage's threads pro rata
            # (``grant * 1.0`` is ``grant``).
            if capacity_items > _EPSILON and processed > 0:
                if processed == capacity_items:
                    consumed.update(stage_grants)
                else:
                    fraction = processed / capacity_items
                    consumed.update(
                        zip(
                            stage_grants,
                            [grant * fraction for grant in stage_grants.values()],
                        )
                    )

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

    def _stage_layout(self, grants: Dict[int, float]) -> List[tuple]:
        """Per stage with a granted member, back to front:
        ``(stage_index, stage_grants, capacity_items)``, ``stage_grants``
        the granted members' grants in ascending member order.

        A stage without one has no capacity, so it processes nothing
        and its queues take ``± 0.0``: it is left out.  The capacity
        adds up in ascending member order, as a sum over every member
        does (the others add ``0.0``, which changes no float).  Equal
        grant maps get equal layouts, so :meth:`advance` keeps the last
        one while the grants repeat.
        """
        layout = []
        for stage_index, members in groupby(
            sorted(grants), self._stage_of_thread.__getitem__
        ):
            stage_grants = {i: grants[i] for i in members}
            capacity_work = sum(stage_grants.values())
            layout.append(
                (
                    stage_index,
                    stage_grants,
                    capacity_work / self.stages[stage_index].cost_per_item,
                )
            )
        layout.reverse()
        return layout

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
