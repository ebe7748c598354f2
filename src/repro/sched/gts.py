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
    keeps an *anchor* — the last fully computed placement plus the
    margins its picks won by — and returns the anchor's placement
    object again while the drift of the loads provably cannot change
    any pick (``docs/modelling.md`` §5).  While the engine's demand
    repeats, each load only moves toward its demand, so a proof over
    the whole interval each load can still reach (a *stretch*) lets
    the ticks after it check just the structure and that each load
    stays inside its interval.
    """

    #: Load-tracking migration thresholds (Linux GTS defaults).
    up_threshold = UP_MIGRATION_THRESHOLD
    down_threshold = DOWN_MIGRATION_THRESHOLD
    #: Floor weight so even a freshly-idle thread occupies queue space.
    MIN_TASK_WEIGHT = 0.1
    #: Run-queue weight bonus of a thread's current core (migration cost).
    STICKINESS = 0.05
    #: Float slack of the reuse proof, taken off every margin: an
    #: absolute term plus one relative to the run-queue sums compared.
    #: Both sit orders above the rounding of sums of a few dozen loads
    #: in [0, 1] (~1e-14).
    REUSE_ABS_EPS = 1e-12
    REUSE_REL_EPS = 1e-9
    #: How far past its exact interval a stretch lets a load stray: a
    #: rounded EWMA step drifts below ~4e-15 past it (``docs/modelling.md``
    #: §9).  A load past it only ends the stretch.
    STRETCH_EPS = 1e-13
    #: Most proven ticks to wait before retrying a refused stretch proof
    #: (the wait doubles from one up to this).
    STRETCH_MAX_WAIT = 4

    def __init__(self) -> None:
        self._spec: Optional[PlatformSpec] = None
        self._on_big: Tuple[bool, ...] = ()
        #: ``(live, rows, picked, placement)`` of the last full scan whose
        #: input cores equalled its output, else ``None``:
        #:
        #: * ``live`` — ``(app, cpuset, runnable_threads())`` per live app;
        #: * ``rows`` — per placed thread, in scan order, ``(thread,
        #:   affinity, core, load, weight, limit, gaps)``: ``weight`` what
        #:   it added to its core's run-queue sum, ``limit`` the load's
        #:   slack-reduced distance to the nearer migration threshold
        #:   (``inf`` unless the load chose the cluster), ``gaps`` one
        #:   ``(winner, loser, margin)`` per core its pick passed over;
        #: * ``picked`` — whether any pick was not forced.  When none
        #:   was, no load matters and the rows are ``(thread, affinity,
        #:   core)``.
        self._anchor: Optional[tuple] = None
        #: ``(anchor, rows)`` while a stretch proof covers the anchor, else
        #: ``None``: per anchor row, ``(thread, affinity, core, lo, hi)``,
        #: the interval ``[lo, hi]`` every load in which the proof covers.
        self._stretch: Optional[tuple] = None
        #: Proven ticks to wait before the next stretch proof, and the
        #: wait after the next failed one.
        self._stretch_wait = 0
        self._stretch_backoff = 1
        self._zero_drift: List[float] = []

    def place(self, sim: "Simulation") -> Placement:
        machine = sim.machine
        spec = machine.spec
        if spec is not self._spec:
            self._spec, self._on_big = spec, on_big_table(spec)
            self._zero_drift = [0.0] * (len(self._on_big) - 1)
            self._anchor = self._stretch = None
        anchor = self._anchor
        stretch = self._stretch
        if stretch is not None:
            if stretch[0] is anchor and self._stretch_holds(stretch[1], sim.apps):
                return anchor[3]
            self._stretch = None
        live = [
            (app, app.cpuset, app.model.runnable_threads())
            for app in sim.apps
            if not (app.is_done() or app.halted)
        ]
        if anchor is not None and self._anchor_holds(anchor, live):
            if self._stretch_wait:
                self._stretch_wait -= 1
            elif anchor[2] and sim._arr_demand is not None:
                rows = self._stretch_rows(anchor[1], sim)
                if rows is None:
                    # Loads that moved toward their demands may prove
                    # it later: retry after a wait that doubles.
                    self._stretch_wait = self._stretch_backoff
                    self._stretch_backoff = min(
                        2 * self._stretch_backoff, self.STRETCH_MAX_WAIT
                    )
                else:
                    self._stretch = (anchor, rows)
                    self._stretch_backoff = 1
            return anchor[3]
        return self._place_fresh(machine.core_ids(), live)

    # -- internals -----------------------------------------------------------

    def _stretch_holds(self, rows: list, apps: list) -> bool:
        """Whether the stretch proof covers this tick: the anchor's
        structure (as :meth:`_anchor_holds` checks it, without building
        the live list), and every load inside its proven interval (a
        NaN is inside none)."""
        anchor_live = self._anchor[0]
        n_live = len(anchor_live)
        index = 0
        for app in apps:
            if app.is_done() or app.halted:
                continue
            if index == n_live:
                return False
            was_app, was_cpuset, was_runnable = anchor_live[index]
            if app is not was_app or app.cpuset is not was_cpuset:
                return False
            runnable = app.model.runnable_threads()
            if runnable is not was_runnable and runnable != was_runnable:
                return False
            index += 1
        if index != n_live:
            return False
        for thread, affinity, core, lo, hi in rows:
            if (
                thread.affinity is not affinity
                or thread.current_core != core
                or not lo <= thread.load <= hi
            ):
                return False
        return True

    def _stretch_rows(self, rows: list, sim: "Simulation") -> Optional[list]:
        """The stretch proof over a proven anchor's ``rows``, or ``None``
        (``docs/modelling.md`` §5 and §9).

        While a thread's demand ``d`` repeats, the engine's EWMA moves
        its load ``L`` monotonically toward ``d``, so it stays in
        ``[min(L, d), max(L, d)]``, here widened by
        :attr:`STRETCH_EPS`.  A load at an exact float fixed point
        (``L·decay + d·gain == L``) equal to the anchor's keeps the
        interval ``[L, L]`` and changes no sum.  The proof must hold for
        every load in its interval: each interval stays within the
        row's threshold limit, and for each pick the largest change of
        the winner's sum less the smallest change of the loser's, over
        the rows above, stays below the margin.  A tie holds only
        between cores every row of which sits at its fixed point.
        """
        demand = sim._arr_demand
        decay, gain = sim._load_decay, sim._load_gain
        widen = self.STRETCH_EPS
        min_weight = self.MIN_TASK_WEIGHT
        tied = {
            core
            for row in rows
            for winner, loser, margin in row[6]
            if not margin > 0.0
            for core in (winner, loser)
        }
        # Per core, the largest and smallest change of its run-queue sum
        # over the rows so far.
        rise = self._zero_drift[:]
        fall = self._zero_drift[:]
        proven = []
        for thread, affinity, core, load, weight, limit, gaps in rows:
            for winner, loser, margin in gaps:
                if margin > 0.0 and not rise[winner] - fall[loser] < margin:
                    return None
            now = thread.load
            target = demand[thread._slot]
            if now == load and now * decay + target * gain == now:
                proven.append((thread, affinity, core, now, now))
                continue
            if core in tied:
                return None
            if now > target:
                lo, hi = target - widen, now + widen
            else:
                lo, hi = now - widen, target + widen
            if not (hi - load if hi - load > load - lo else load - lo) < limit:
                return None
            rise[core] += (hi if hi > min_weight else min_weight) - weight
            fall[core] += (lo if lo > min_weight else min_weight) - weight
            proven.append((thread, affinity, core, lo, hi))
        return proven

    def _anchor_holds(self, anchor: tuple, live: list) -> bool:
        """Whether a full scan now would return the anchor's placement
        (``docs/modelling.md`` §5 and §9).

        The structure must be the anchor's: the same apps, cpuset and
        affinity objects, runnable lists and current cores.  Then, in
        scan order, each load that moved must stay on its side of both
        thresholds, and each pick's winner must still beat each loser:
        the change of the two run-queue sums the pick read must stay
        below its margin.  Each comparison is written as "must be
        below", so a NaN fails it.
        """
        anchor_live, rows, picked, _ = anchor
        if len(live) != len(anchor_live):
            return False
        for (app, cpuset, runnable), (was_app, was_cpuset, was_runnable) in zip(
            live, anchor_live
        ):
            if app is not was_app or cpuset is not was_cpuset:
                return False
            # ``is`` first: a model may hand back the same immutable
            # sequence while its runnable set stands.
            if runnable is not was_runnable and runnable != was_runnable:
                return False
        if not picked:
            for thread, affinity, core in rows:
                if thread.affinity is not affinity or thread.current_core != core:
                    return False
            return True
        # Per core, the change of its run-queue sum so far (the weights
        # of the rows above), and the cores whose sum had a term change.
        drift = self._zero_drift[:]
        moved = set()
        min_weight = self.MIN_TASK_WEIGHT
        for thread, affinity, core, load, weight, limit, gaps in rows:
            if thread.affinity is not affinity or thread.current_core != core:
                return False
            if gaps and moved:  # with no sum changed, every pick repeats
                for winner, loser, margin in gaps:
                    if not drift[winner] - drift[loser] < margin and (
                        # A margin of zero or less (a tie) still holds
                        # while neither sum had a term change: the two
                        # scores are then bit-equal.
                        margin > 0.0 or winner in moved or loser in moved
                    ):
                        return False
            now = thread.load
            if now != load:
                if not (now - load if now > load else load - now) < limit:
                    return False
                drift[core] += (now if now > min_weight else min_weight) - weight
                moved.add(core)
        return True

    def _place_fresh(self, cores, live: list) -> Placement:
        """The full scan; re-anchors on its outcome."""
        placement: Placement = {}
        # Run-queue weight per core: the balancer spreads *load*, not
        # thread count (CFS load balancing), so a heavy stage thread is
        # not stuck sharing a core with another heavy one while light
        # threads underuse a neighbour.
        load_counts: Dict[int, float] = {core: 0.0 for core in cores}
        min_weight = self.MIN_TASK_WEIGHT
        bonus = self.STICKINESS
        up, down = self.up_threshold, self.down_threshold
        abs_eps, rel_eps = self.REUSE_ABS_EPS, self.REUSE_REL_EPS
        on_big = self._on_big
        rows: List[tuple] = []
        placed = 0.0  # every weight added so far: bounds each sum read
        picked = False
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
                limit = math.inf
                gaps: Sequence[tuple] = ()
                if core is None:
                    picked = True
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
                        limit = min(abs(load - up), abs(load - down)) - (
                            abs_eps + rel_eps * (abs(load) + up)
                        )
                if current != core:
                    settled = False
                if core in placement:
                    placement[core].append(thread)
                else:
                    placement[core] = [thread]
                weight = load if load > min_weight else min_weight
                load_counts[core] += weight
                placed += weight
                rows.append((thread, entry[0], core, load, weight, limit, gaps))
                thread.current_core = core
        self._stretch = None
        self._stretch_wait, self._stretch_backoff = 0, 1
        if not settled:
            self._anchor = None
        elif picked:
            self._anchor = (live, rows, True, placement)
        else:
            self._anchor = (live, [row[:3] for row in rows], False, placement)
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
