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

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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

    Most ticks end with the placement they started with, while the
    loads the picks read move a little every tick.  So :meth:`place`
    keeps an *anchor* — the last fully computed placement, the margins
    its picks won by, and the loads that keep each cluster choice — and
    returns the anchor's placement object again while a proof shows a
    full scan would give it (``docs/modelling.md`` §5).  One proof,
    :meth:`_proves`, covers a *box* of loads, an interval per thread:
    the point of this tick's loads, or, while the engine's demand
    repeats, every load between each thread's value and its demand (a
    *stretch*).  While a proven box holds, a tick checks just the
    structure and that each load stays inside its interval.
    """

    #: Load-tracking migration thresholds (Linux GTS defaults).
    up_threshold = UP_MIGRATION_THRESHOLD
    down_threshold = DOWN_MIGRATION_THRESHOLD
    #: Floor weight so even a freshly-idle thread occupies queue space.
    MIN_TASK_WEIGHT = 0.1
    #: Run-queue weight bonus of a thread's current core (migration cost).
    STICKINESS = 0.05
    #: Float slack of the proof, taken off every pick's margin: an
    #: absolute term plus one relative to the run-queue sums compared.
    #: Both sit orders above the rounding of sums of a few dozen loads
    #: in [0, 1] (~1e-14).
    REUSE_ABS_EPS = 1e-12
    REUSE_REL_EPS = 1e-9
    #: How far past its exact interval a stretch lets a load stray: a
    #: rounded EWMA step drifts below ~4e-15 past it (``docs/modelling.md``
    #: §9).  A load past it only ends the stretch.
    STRETCH_EPS = 1e-13
    #: Most ticks to wait before retrying a refused stretch (the wait
    #: doubles from one up to this).
    STRETCH_MAX_WAIT = 4

    def __init__(self) -> None:
        self._spec: Optional[PlatformSpec] = None
        self._on_big: Tuple[bool, ...] = ()
        #: ``(live, rows, placement)`` of the last full scan whose input
        #: cores equalled its output, else ``None``:
        #:
        #: * ``live`` — ``(app, cpuset, runnable_threads())`` per live app;
        #: * ``rows`` — per placed thread, in scan order, ``(thread,
        #:   affinity, core, load, weight, keep_lo, keep_hi, gaps)``:
        #:   ``weight`` what it added to its core's run-queue sum, the
        #:   load keeps its cluster while ``keep_lo < load < keep_hi``
        #:   (infinite bounds unless the load chose the cluster), and
        #:   ``gaps`` one ``(winner, loser, margin)`` per core its pick
        #:   passed over (none for a forced pick).
        self._anchor: Optional[tuple] = None
        #: While a proven stretch covers the anchor, per anchor row
        #: ``(thread, affinity, core, lo, hi)``, else ``None``.
        self._box: Optional[list] = None
        #: Ticks to wait before the next stretch attempt, and the wait
        #: after the next refused one.
        self._stretch_wait = 0
        self._stretch_backoff = 1
        self._zero_drift: List[float] = []

    def place(self, sim: "Simulation") -> Placement:
        machine = sim.machine
        spec = machine.spec
        if spec is not self._spec:
            self._spec, self._on_big = spec, on_big_table(spec)
            self._zero_drift = [0.0] * (len(self._on_big) - 1)
            self._anchor = self._box = None
        anchor = self._anchor
        if anchor is not None and self._same_apps(anchor[0], sim.apps):
            _, rows, placement = anchor
            if self._box is not None:
                for thread, affinity, core, lo, hi in self._box:
                    if (
                        thread.affinity is not affinity
                        or thread.current_core != core
                        or not lo <= thread.load <= hi  # a NaN is in none
                    ):
                        self._box = None
                        break
                else:
                    return placement
            if self._stretch_wait:
                self._stretch_wait -= 1
            elif sim._arr_demand is not None:
                box = self._stretch(rows, sim)
                if self._proves(rows, box):
                    self._box = [row[:3] + ends for row, ends in zip(rows, box)]
                    self._stretch_backoff = 1
                    return placement
                # Loads that moved toward their demands may prove it
                # later: retry after a wait that doubles.
                self._stretch_wait = self._stretch_backoff
                self._stretch_backoff = min(
                    2 * self._stretch_backoff, self.STRETCH_MAX_WAIT
                )
            if self._proves(rows, [(row[0].load,) * 2 for row in rows]):
                return placement
        return self._place_fresh(machine.core_ids(), sim.apps)

    def steady_box(self, apps: list) -> Optional[list]:
        """The proven box, per anchor row ``(thread, affinity, core, lo,
        hi)``, while the live apps and every row's affinity object and
        current core are the ones it was proven for, else ``None``.

        While nothing but the loads moves, :meth:`place` returns the
        anchor's placement exactly as long as each load stays inside its
        row's ``[lo, hi]``: the engine checks only that on the ticks it
        leaps (``docs/modelling.md`` §4).
        """
        box = self._box
        if box is None or not self._same_apps(self._anchor[0], apps):
            return None
        for thread, affinity, core, _, _ in box:
            if thread.affinity is not affinity or thread.current_core != core:
                return None
        return box

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _same_apps(anchor_live: list, apps: list) -> bool:
        """Whether the live apps, their cpuset objects and runnable
        lists are the anchor's (``is`` first: a model may hand back the
        same immutable sequence while its runnable set stands)."""
        was_live = iter(anchor_live)
        for app in apps:
            if app.is_done() or app.halted:
                continue
            was = next(was_live, None)
            if was is None or app is not was[0] or app.cpuset is not was[1]:
                return False
            runnable = app.model.runnable_threads()
            if runnable is not was[2] and runnable != was[2]:
                return False
        return next(was_live, None) is None

    def _stretch(self, rows: list, sim: "Simulation") -> List[tuple]:
        """Per anchor row, the interval ``(lo, hi)`` its load stays in
        while the engine's demand repeats (``docs/modelling.md`` §5 and
        §9): the EWMA moves a load ``L`` monotonically toward its demand
        ``d``, so it stays in ``[min(L, d), max(L, d)]``, here widened
        by :attr:`STRETCH_EPS`.  A load equal to the anchor's at an
        exact float fixed point (``L·decay + d·gain == L``) keeps the
        point ``[L, L]``."""
        demand = sim._arr_demand
        decay, gain = sim._load_decay, sim._load_gain
        widen = self.STRETCH_EPS
        box = []
        for row in rows:
            thread = row[0]
            now = thread.load
            target = demand[thread._slot]
            if now == row[3] and now * decay + target * gain == now:
                box.append((now, now))
            elif now > target:
                box.append((target - widen, now + widen))
            else:
                box.append((now - widen, target + widen))
        return box

    def _proves(self, rows: list, box: list) -> bool:
        """Whether a full scan would return the anchor's placement for
        every load vector in ``box``, one ``(lo, hi)`` per anchor row
        (``docs/modelling.md`` §5 and §9).

        Each thread's affinity object and current core must be the
        anchor's.  Then, in scan order, a row whose interval is not the
        point of the anchor's load (a *moved* row) must keep its
        cluster, ``keep_lo < lo and hi < keep_hi``; and each pick's
        winner must still beat each loser: the largest change of the
        winner's run-queue sum less the smallest change of the loser's,
        over the rows above, must stay below the margin.  A tie (a
        margin of zero or less) survives only while neither core has a
        moved row above the pick: the two scores are then bit-equal.
        Each comparison is written as "must be below", so a NaN fails
        it.
        """
        # Per core, the largest and smallest change of its run-queue sum
        # over the rows so far, and the cores with a moved row.
        rise = self._zero_drift[:]
        fall = self._zero_drift[:]
        moved = set()
        min_weight = self.MIN_TASK_WEIGHT
        for row, (lo, hi) in zip(rows, box):
            thread, affinity, core, load, weight, keep_lo, keep_hi, gaps = row
            if thread.affinity is not affinity or thread.current_core != core:
                return False
            if gaps and moved:  # with no sum changed, every pick repeats
                for winner, loser, margin in gaps:
                    if not rise[winner] - fall[loser] < margin and (
                        winner in moved or loser in moved
                    ):
                        return False
            if lo != load or hi != load:
                if not (keep_lo < lo and hi < keep_hi):
                    return False
                rise[core] += (hi if hi > min_weight else min_weight) - weight
                fall[core] += (lo if lo > min_weight else min_weight) - weight
                moved.add(core)
        return True

    def _place_fresh(self, cores, apps: list) -> Placement:
        """The full scan; re-anchors on its outcome."""
        live = [
            (app, app.cpuset, app.model.runnable_threads())
            for app in apps
            if not (app.is_done() or app.halted)
        ]
        placement: Placement = {}
        # Run-queue weight per core: the balancer spreads *load*, not
        # thread count (CFS load balancing), so a heavy stage thread is
        # not stuck sharing a core with another heavy one while light
        # threads underuse a neighbour.
        load_counts: Dict[int, float] = {core: 0.0 for core in cores}
        min_weight = self.MIN_TASK_WEIGHT
        bonus = self.STICKINESS
        abs_eps, rel_eps = self.REUSE_ABS_EPS, self.REUSE_REL_EPS
        on_big = self._on_big
        rows: List[tuple] = []
        placed = 0.0  # every weight added so far: bounds each sum read
        settled = True  # every thread's input core is its output

        for app, cpuset, runnable in live:
            threads = app.threads
            for index in runnable:
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
                        *candidate_split(allowed, on_big),
                        next(iter(allowed)) if len(allowed) == 1 else None,
                    )
                    thread._gts_entry = entry
                load = thread.load
                current = thread.current_core
                core = entry[4]
                keep_lo, keep_hi = -math.inf, math.inf
                gaps: Sequence[tuple] = ()
                if core is None:
                    if_big, if_little = entry[2], entry[3]
                    core = self._pick_partitioned(
                        thread, if_big, if_little, load_counts
                    )
                    # The winner's margin over each loser: by how much the
                    # loser's score, on the sums the pick read, exceeds
                    # the winner's plus the slack.
                    floor = (
                        load_counts[core] - bonus
                        if core == current
                        else load_counts[core]
                    ) + (abs_eps + rel_eps * (placed + bonus))
                    gaps = [
                        (
                            core,
                            c,
                            (load_counts[c] - bonus if c == current else load_counts[c])
                            - floor,
                        )
                        for c in (if_big if on_big[core] else if_little)
                        if c != core
                    ]
                    if if_big is not if_little:  # the load picks the cluster
                        # Kept anchors are settled (input core = output),
                        # so ``prefers_big`` keeps big while the load is
                        # above down and little while it is below up.
                        if on_big[core]:
                            keep_lo = self.down_threshold
                        else:
                            keep_hi = self.up_threshold
                if current != core:
                    settled = False
                if core in placement:
                    placement[core].append(thread)
                else:
                    placement[core] = [thread]
                weight = load if load > min_weight else min_weight
                load_counts[core] += weight
                placed += weight
                rows.append(
                    (thread, entry[0], core, load, weight, keep_lo, keep_hi, gaps)
                )
                thread.current_core = core
        self._box = None
        self._stretch_wait, self._stretch_backoff = 0, 1
        self._anchor = (live, rows, placement) if settled else None
        return placement

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
