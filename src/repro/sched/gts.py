"""Linux HMP Global Task Scheduling (GTS) model.

GTS tracks per-task load and migrates heavy tasks to the big cluster and
light tasks to the little cluster.  Crucially — and this is the baseline
pathology the paper builds on (Section 4.1.1) — GTS keeps CPU-intensive
tasks on the big cluster even when it is oversubscribed: eight hungry
threads time-share four big cores while the little cores idle.

Within the preferred cluster the model load-balances by spreading
threads across the allowed cores evenly, preferring a thread's current
core on ties to avoid gratuitous migration.

Per-thread affinity and per-app cpusets are honoured, so the same class
also serves HARS's pinned placement: once HARS restricts a thread to one
cluster's allocated cores, the up/down migration logic has no freedom
left and the class degrades to a within-set load balancer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SchedulingError
from repro.platform.spec import PlatformSpec
from repro.sched.load_tracking import (
    DOWN_MIGRATION_THRESHOLD,
    UP_MIGRATION_THRESHOLD,
    prefers_big,
)
from repro.sim.thread import SimThread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation

#: A placement: core id → threads running there this tick.
Placement = Dict[int, List[SimThread]]


def on_big_table(spec: PlatformSpec) -> Tuple[bool, ...]:
    """Per core id, whether a thread there counts as on big (the
    ``on_big`` input of :func:`~repro.sched.load_tracking.prefers_big`),
    plus a last entry, ``[-1]``, for a thread with no current core:
    True, as fresh hungry tasks start on big (fork placement)."""
    n_cores = max(max(cluster.core_ids) for cluster in spec.clusters) + 1
    return tuple(spec.big.contains_core(c) for c in range(n_cores)) + (True,)


def candidate_split(allowed, is_big) -> Tuple[List[int], List[int]]:
    """Ascending candidate cores for ``allowed``: ``(if the load prefers
    big, if it prefers little)``.  With both clusters allowed, each is
    that cluster's share; with one, both are the same list of all."""
    big = sorted(c for c in allowed if is_big[c])
    little = sorted(c for c in allowed if not is_big[c])
    if big and little:
        return big, little
    either = big or little
    return either, either


def least_loaded_rows(run_queue, candidates, bonus):
    """The fleet engine's twin of :meth:`GtsScheduler._pick_partitioned`'s
    scan, per row: ``argmin``'s first minimum is the lowest-core
    tie-break (a call per candidate would slow the scalar tick)."""
    return np.where(candidates, run_queue - bonus, np.inf).argmin(axis=1)


class GtsScheduler:
    """Load-threshold cluster selection + within-cluster balancing.

    Each tick, :meth:`place` puts every CPU-demanding thread (one
    :meth:`~repro.workloads.base.WorkloadModel.runnable_threads` call
    per app) on a core,
    honouring its affinity and its app's cpuset
    (:meth:`repro.sim.process.SimApp.allowed_cores`), and updates
    ``thread.current_core``; the engine then divides each core's
    capacity fairly among the threads placed on it.
    """

    #: Load-tracking migration thresholds (Linux GTS defaults).
    up_threshold = UP_MIGRATION_THRESHOLD
    down_threshold = DOWN_MIGRATION_THRESHOLD
    #: Floor weight so even a freshly-idle thread occupies queue space.
    MIN_TASK_WEIGHT = 0.1
    #: Run-queue weight bonus of a thread's current core (migration cost).
    STICKINESS = 0.05

    def __init__(self) -> None:
        self._spec: Optional[PlatformSpec] = None
        self._on_big: Tuple[bool, ...] = ()

    def place(self, sim: "Simulation") -> Placement:
        machine = sim.machine
        cores = machine.core_ids()
        spec = machine.spec
        if spec is not self._spec:
            self._spec, self._on_big = spec, on_big_table(spec)
        placement: Placement = {}
        # Run-queue weight per core: the balancer spreads *load*, not
        # thread count (CFS load balancing), so a heavy stage thread is
        # not stuck sharing a core with another heavy one while light
        # threads underuse a neighbour.
        load_counts: Dict[int, float] = {core: 0.0 for core in cores}
        min_weight = self.MIN_TASK_WEIGHT

        for app in sim.apps:
            if app.is_done() or app.halted:
                continue
            cpuset = app.cpuset
            threads = app.threads
            for index in app.model.runnable_threads():
                thread = threads[index]
                # Each thread's candidate split is memoized.  It depends
                # only on (affinity, cpuset); both are replaced wholesale
                # when they change, so the entry validates by object
                # identity.
                entry = thread._gts_entry
                if (
                    entry is None
                    or entry[0] is not thread.affinity
                    or entry[1] is not cpuset
                ):
                    allowed = app.allowed_cores(thread, cores)
                    # A fully-pinned thread (HARS placement) has one
                    # allowed core: the pick is forced, so the hot path
                    # can skip the balancer entirely.
                    entry = (
                        thread.affinity,
                        cpuset,
                        *candidate_split(allowed, self._on_big),
                        next(iter(allowed)) if len(allowed) == 1 else None,
                    )
                    thread._gts_entry = entry
                core = entry[4]
                if core is None:
                    core = self._pick_partitioned(
                        thread, entry[2], entry[3], load_counts
                    )
                if core in placement:
                    placement[core].append(thread)
                else:
                    placement[core] = [thread]
                load = thread.load
                load_counts[core] += load if load > min_weight else min_weight
                thread.current_core = core
        return placement

    # -- internals -----------------------------------------------------------

    def _pick_partitioned(
        self,
        thread: SimThread,
        if_big: List[int],
        if_little: List[int],
        load_counts: Dict[int, float],
    ) -> int:
        current_core = thread.current_core
        candidates = if_big
        if if_big is not if_little and not prefers_big(  # both clusters
            thread.load,
            self._on_big[-1 if current_core is None else current_core],
            self.up_threshold,
            self.down_threshold,
        ):
            candidates = if_little
        if not candidates:
            raise SchedulingError(f"{thread.key()}: no allowed cores")

        # A small stickiness bonus keeps a thread on its current core
        # unless another core is meaningfully lighter (migration cost).
        # Manual min over the ascending candidate list: ties keep the
        # lowest core id.  :func:`least_loaded_rows` is the fleet
        # engine's copy of this scan.
        bonus = self.STICKINESS
        best = candidates[0]
        best_score = (
            load_counts[best] - bonus if best == current_core else load_counts[best]
        )
        for c in candidates[1:]:
            score = load_counts[c] - bonus if c == current_core else load_counts[c]
            if score < best_score:
                best = c
                best_score = score
        return best
