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

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.errors import SchedulingError
from repro.platform.cluster import BIG, LITTLE
from repro.sched.base import Placement, Scheduler
from repro.sched.load_tracking import (
    DOWN_MIGRATION_THRESHOLD,
    UP_MIGRATION_THRESHOLD,
    preferred_cluster,
    validate_thresholds,
)
from repro.sim.thread import SimThread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation


class GtsScheduler(Scheduler):
    """Load-threshold cluster selection + within-cluster balancing."""

    def __init__(
        self,
        up_threshold: float = UP_MIGRATION_THRESHOLD,
        down_threshold: float = DOWN_MIGRATION_THRESHOLD,
    ):
        validate_thresholds(up_threshold, down_threshold)
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold

    #: Floor weight so even a freshly-idle thread occupies queue space.
    MIN_TASK_WEIGHT = 0.1
    #: Run-queue weight bonus of a thread's current core (migration cost).
    STICKINESS = 0.05

    def place(self, sim: "Simulation") -> Placement:
        online = sim.machine.online_core_ids()
        placement: Placement = {}
        # Run-queue weight per core: the balancer spreads *load*, not
        # thread count (CFS load balancing), so a heavy stage thread is
        # not stuck sharing a core with another heavy one while light
        # threads underuse a neighbour.
        load_counts: Dict[int, float] = {core: 0.0 for core in online}
        min_weight = self.MIN_TASK_WEIGHT

        for app in sim.apps:
            if app.is_done() or app.halted:
                continue
            cpuset = app.cpuset
            model = app.model
            for thread in app.threads:
                if not model.wants_cpu(thread.local_index):
                    continue
                # Each thread's allowed-core big/little partition is
                # memoized.  It depends only on (affinity, cpuset, online
                # set); all three are replaced wholesale when they
                # change, so the entry validates by object identity.
                entry = thread._gts_entry
                if (
                    entry is None
                    or entry[0] is not thread.affinity
                    or entry[1] is not cpuset
                    or entry[2] is not online
                ):
                    big_cores, little_cores = self._partition(
                        sim, app.allowed_cores(thread, online)
                    )
                    # A fully-pinned thread (HARS placement) has one
                    # allowed core: the pick is forced, so the hot path
                    # can skip the balancer entirely.
                    single = (
                        (big_cores or little_cores)[0]
                        if len(big_cores) + len(little_cores) == 1
                        else None
                    )
                    entry = (
                        thread.affinity,
                        cpuset,
                        online,
                        big_cores,
                        little_cores,
                        single,
                    )
                    thread._gts_entry = entry
                core = entry[5]
                if core is None:
                    core = self._pick_partitioned(
                        sim, thread, entry[3], entry[4], load_counts
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

    def _partition(
        self, sim: "Simulation", allowed: frozenset
    ) -> Tuple[List[int], List[int]]:
        big_cores = sorted(
            c for c in allowed if sim.machine.spec.big.contains_core(c)
        )
        little_cores = sorted(
            c for c in allowed if sim.machine.spec.little.contains_core(c)
        )
        return big_cores, little_cores

    def _pick_partitioned(
        self,
        sim: "Simulation",
        thread: SimThread,
        big_cores: List[int],
        little_cores: List[int],
        load_counts: Dict[int, float],
    ) -> int:
        if not big_cores and not little_cores:
            raise SchedulingError(f"{thread.key()}: no allowed online cores")

        candidates: List[int]
        if big_cores and little_cores:
            current = self._current_cluster(sim, thread)
            desired = preferred_cluster(
                thread.load, current, self.up_threshold, self.down_threshold
            )
            candidates = big_cores if desired == BIG else little_cores
        else:
            candidates = big_cores or little_cores

        # A small stickiness bonus keeps a thread on its current core
        # unless another core is meaningfully lighter (migration cost).
        # Manual min over the ascending candidate list: ties keep the
        # lowest core id, exactly the tuple-key min it replaces.
        current_core = thread.current_core
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

    def _current_cluster(self, sim: "Simulation", thread: SimThread) -> str:
        if thread.current_core is None:
            return BIG  # fresh hungry tasks start on big (fork placement)
        if sim.machine.spec.big.contains_core(thread.current_core):
            return BIG
        return LITTLE
