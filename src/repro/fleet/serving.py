"""Request-serving workload model: the open queue behind one lane.

A :class:`ServerWorkload` is the fleet's stand-in for a request-serving
process: a FIFO queue of requests, each thread working on one request at
a time.  Completing a request emits exactly one heartbeat tagged with
the request index — that is how :mod:`repro.fleet.node` maps heartbeat
timestamps back onto per-request latencies, and it means the existing
MP-HARS controller observes a serving lane through the same Application
Heartbeats channel it uses for PARSEC workloads, unchanged.

Like the microbenchmark, the model is endless (``total_heartbeats() ==
0``): a serving process never "finishes", runs are bounded by the
cluster's horizon.

A lane's state lives in a :class:`ServingRows` store: the FIFO queue,
its queued units, and each worker's in-service request.  A lane built
on its own owns a one-row, one-lane store; the fleet engine
(:mod:`repro.fleet.engine`) moves every lane of every node it steps
into one store, so it can drain all their queues in one pass along the
node axis, while each :class:`ServerWorkload` stays a live view of its
row and lane.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.base import AdvanceResult, WorkloadModel, WorkloadTraits

#: Remaining-work threshold below which a request counts as complete
#: (guards float dust from repeated grant subtraction).
_DONE_EPS = 1e-12

#: Dispatch stamp that sorts after every real one (idle workers).
_NEVER = np.iinfo(np.int64).max

#: Default traits of the serving workload: memory-light request handling
#: with a real big-core advantage — the reason a hot lane exists.
SERVING_TRAITS = WorkloadTraits(
    name="serving",
    unit_scale=1.0,
    big_little_ratio=1.8,
    mem_intensity=0.15,
    activity_factor=0.9,
)


class ServingRows:
    """The serving state of ``n_lanes`` lanes on ``n_rows`` nodes.

    Per row and lane: a FIFO of queued ``[request index, units]``
    entries, its length and queued units, and the velocity factor of the
    current chaos episode.  Per row and *slot* (lane-major: lane 0's
    threads, then lane 1's): the in-service request (``-1`` when the
    worker is idle), its remaining units and its dispatch stamp.  A
    lane's backlog sums in-service work in dispatch order — the order
    the original per-lane dict iterated — so it is kept as
    :attr:`active_sum`, recomputed after in-service work changes.
    """

    def __init__(self, n_rows: int, n_lanes: int, n_threads: int):
        self.n_rows = n_rows
        self.n_lanes = n_lanes
        self.n_threads = n_threads
        self.queues: List[List[Deque[List]]] = [
            [deque() for _ in range(n_lanes)] for _ in range(n_rows)
        ]
        self.qlen = np.zeros((n_rows, n_lanes), dtype=np.int64)
        self.queued = np.zeros((n_rows, n_lanes))
        #: Service-velocity multiplier of the current chaos episode:
        #: 1.0 nominal, (0, 1) during a slowdown, 0.0 during a hang
        #: (threads hold their grants but progress nothing — the queue
        #: freezes and heartbeats go silent).
        self.factor = np.ones((n_rows, n_lanes))
        slots = n_lanes * n_threads
        self.req = np.full((n_rows, slots), -1, dtype=np.int64)
        self.rem = np.zeros((n_rows, slots))
        self.stamp = np.zeros((n_rows, slots), dtype=np.int64)
        self.active_sum = np.zeros((n_rows, n_lanes))
        self._stamps = 0

    def _slots(self, lane: int) -> slice:
        return slice(lane * self.n_threads, (lane + 1) * self.n_threads)

    def adopt(self, row: int, lane: int, workload: "ServerWorkload") -> None:
        """Move ``workload``'s state into (``row``, ``lane``) and make it
        a view of it."""
        if workload.n_threads != self.n_threads:
            raise ConfigurationError(
                f"lane {workload.lane!r}: {workload.n_threads} threads, "
                f"store lanes have {self.n_threads}"
            )
        src, r, k = workload._rows, workload._row, workload._lane
        self.queues[row][lane] = src.queues[r][k]
        for name in ("qlen", "queued", "factor", "active_sum"):
            getattr(self, name)[row, lane] = getattr(src, name)[r, k]
        for name in ("req", "rem", "stamp"):
            getattr(self, name)[row, self._slots(lane)] = getattr(src, name)[
                r, src._slots(k)
            ]
        self._stamps = max(self._stamps, src._stamps)
        workload._rows, workload._row, workload._lane = self, row, lane

    def clear(self, row: int, lane: int) -> None:
        self.queues[row][lane].clear()
        self.qlen[row, lane] = 0
        self.queued[row, lane] = 0.0
        self.factor[row, lane] = 1.0
        self.req[row, self._slots(lane)] = -1
        self.rem[row, self._slots(lane)] = 0.0
        self.active_sum[row, lane] = 0.0

    def submit(
        self, row: int, lane: int, request_index: int, units: float
    ) -> None:
        self.queues[row][lane].append([request_index, units])
        self.qlen[row, lane] += 1
        self.queued[row, lane] += units

    def cancel(self, row: int, lane: int, request_index: int) -> bool:
        queue = self.queues[row][lane]
        for position, entry in enumerate(queue):
            if entry[0] == request_index:
                del queue[position]
                self._dequeued(row, lane, entry[1])
                return True
        first = lane * self.n_threads
        for slot in range(first, first + self.n_threads):
            if self.req[row, slot] == request_index:
                self.req[row, slot] = -1
                self.rem[row, slot] = 0.0
                self.sum_active()
                return True
        return False

    def _dequeued(self, row: int, lane: int, units: float) -> None:
        """Account one entry leaving a queue.  An emptied queue holds
        exactly 0.0 units: the running ``-=`` would leave float dust
        (either sign, ~1e-14) that reads as a negative wait."""
        self.qlen[row, lane] -= 1
        if self.queues[row][lane]:
            self.queued[row, lane] -= units
        else:
            self.queued[row, lane] = 0.0

    def drain(
        self, budgets: np.ndarray, granted: np.ndarray
    ) -> Tuple[np.ndarray, List[Dict[int, List[str]]]]:
        """FIFO-drain one round of grants on every row and lane at once.

        ``budgets[row, slot]`` is the work a granted worker may do
        (``granted`` marks the grants).  Each worker first works on its
        in-service request; a worker with budget left then takes its
        lane's queue heads, in thread-index order within the lane, until
        its budget or the queue runs out.  A request whose remaining
        work falls to ``_DONE_EPS`` completes.  Returns the units each
        slot used and, per lane, ``{row: completed request indices}``
        (as heartbeat tags) in thread order, then completion order —
        the scalar loop's order, as are every row's float operations.
        Lanes share nothing, so draining them together changes no
        lane's result.
        """
        req, rem = self.req, self.rem
        n_threads = self.n_threads
        budget = budgets * np.repeat(self.factor, n_threads, axis=1)
        used = np.zeros(budget.shape)
        done_by_slot: List[Dict[int, List[str]]] = [
            {} for _ in range(req.shape[1])
        ]
        # Work already in service: every worker at once (no worker
        # touches another's request, and none touches a queue).
        serving = granted & (budget > _DONE_EPS) & (req >= 0)
        if serving.any():
            take = np.minimum(budget, rem)
            np.copyto(rem, rem - take, where=serving)
            budget = np.where(serving, budget - take, budget)
            used = np.where(serving, take, used)
            done = serving & (rem <= _DONE_EPS)
            if done.any():
                for row, slot in zip(*np.nonzero(done)):
                    done_by_slot[slot][row] = [str(int(req[row, slot]))]
                req[done] = -1
        # Budget left over: idle workers take queue heads, worker by
        # worker.  Each is one request event, so it runs the scalar loop
        # on that row alone.
        hungry = (
            granted
            & (budget > _DONE_EPS)
            & np.repeat(self.qlen > 0, n_threads, axis=1)
        )
        if hungry.any():
            for slot in np.flatnonzero(hungry.any(axis=0)).tolist():
                queues = [lane[slot // n_threads] for lane in self.queues]
                for row in np.flatnonzero(hungry[:, slot]).tolist():
                    if queues[row]:  # a lower thread may have emptied it
                        self._take_heads(
                            row, slot, budget.item(row, slot), used,
                            done_by_slot[slot],
                        )
        by_lane = []
        for lane in range(self.n_lanes):
            lane_done = done_by_slot[lane * n_threads:(lane + 1) * n_threads]
            if n_threads == 1:
                by_lane.append(lane_done[0])
                continue
            by_lane.append(
                {
                    row: [
                        tag
                        for slot_tags in lane_done
                        for tag in slot_tags.get(row, ())
                    ]
                    for row in sorted(set().union(*lane_done))
                }
            )
        return used, by_lane

    def _take_heads(
        self,
        row: int,
        slot: int,
        left: float,
        used: np.ndarray,
        tags: Dict[int, List[str]],
    ) -> None:
        """One worker's scalar drain loop on one row: take the queue
        head when idle, work on it, repeat while budget is left."""
        req, rem = self.req, self.rem
        lane = slot // self.n_threads
        queue = self.queues[row][lane]
        spent = used.item(row, slot)
        index = int(req[row, slot])
        remaining = rem.item(row, slot)
        while left > _DONE_EPS:
            if index < 0:
                if not queue:
                    break
                index, remaining = queue.popleft()
                self._dequeued(row, lane, remaining)
                self._stamps += 1
                self.stamp[row, slot] = self._stamps
            take = min(left, remaining)
            remaining -= take
            left -= take
            spent += take
            if remaining <= _DONE_EPS:
                tags.setdefault(row, []).append(str(index))
                index = -1
        req[row, slot] = index
        rem[row, slot] = remaining
        used[row, slot] = spent

    def held(self) -> np.ndarray:
        """Per row, the requests queued or in service on any lane."""
        return self.qlen.sum(axis=1) + (self.req >= 0).sum(axis=1)

    def sum_active(self) -> None:
        """Recompute :attr:`active_sum`: each lane's in-service remaining
        units summed in dispatch order, from 0.  Due after any
        :meth:`drain` before a backlog is read."""
        shape = (self.n_rows, self.n_lanes, self.n_threads)
        present = (self.req >= 0).reshape(shape)
        values = np.where(present, self.rem.reshape(shape), 0.0)
        if self.n_threads > 2:
            # Two terms commute; from three on, dispatch order matters.
            order = np.argsort(
                np.where(present, self.stamp.reshape(shape), _NEVER),
                axis=2,
                kind="stable",
            )
            values = np.take_along_axis(values, order, axis=2)
        total = values[:, :, 0]
        for position in range(1, self.n_threads):
            total = total + values[:, :, position]
        self.active_sum = total


class ServerWorkload(WorkloadModel):
    """FIFO request queue served by ``n_threads`` workers."""

    def __init__(self, lane: str, n_threads: int):
        if not lane:
            raise ConfigurationError("serving lane needs a name")
        super().__init__(SERVING_TRAITS, n_threads)
        self.lane = lane
        self._rows = ServingRows(1, 1, n_threads)
        self._row = 0
        self._lane = 0

    @property
    def velocity_factor(self) -> float:
        return self._rows.factor.item(self._row, self._lane)

    @velocity_factor.setter
    def velocity_factor(self, factor: float) -> None:
        self._rows.factor[self._row, self._lane] = factor

    def reset(self, seed: int = 0) -> None:
        self._rows.clear(self._row, self._lane)

    def submit(self, request_index: int, service_units: float) -> None:
        """Enqueue one request (the router calls this via the node)."""
        if service_units <= 0:
            raise ConfigurationError(
                f"request {request_index}: non-positive size {service_units}"
            )
        self._rows.submit(self._row, self._lane, request_index, service_units)

    def runnable_threads(self) -> List[int]:
        """Every worker while requests wait, else the busy ones."""
        rows, row = self._rows, self._row
        if rows.qlen[row, self._lane] > 0:
            return list(range(self.n_threads))
        busy = rows.req[row, rows._slots(self._lane)] >= 0
        return np.flatnonzero(busy).tolist()

    def advance(self, grants: Dict[int, float]) -> AdvanceResult:
        rows, row = self._rows, self._row
        first = self._lane * self.n_threads
        budgets = np.zeros(rows.req.shape)
        granted = np.zeros(rows.req.shape, dtype=bool)
        for thread_index, budget in grants.items():
            budgets[row, first + thread_index] = budget
            granted[row, first + thread_index] = True
        used, tags = rows.drain(budgets, granted)
        rows.sum_active()
        consumed = {
            thread_index: used.item(row, first + thread_index)
            for thread_index in sorted(grants)
        }
        row_tags = tags[self._lane].get(row, [])
        return AdvanceResult(
            consumed=consumed,
            heartbeats=len(row_tags),
            heartbeat_tags=tuple(row_tags),
        )

    def is_done(self) -> bool:
        return False

    def total_heartbeats(self) -> int:
        return 0

    def cancel(self, request_index: int) -> bool:
        """Remove a request from the lane, wherever it sits.

        The resilience layer cancels the losing attempt of a hedged
        request and attempts that blow their per-attempt timeout.  A
        queued request is deleted in place; an in-service one frees its
        worker for the next queued request on the following tick.
        Returns whether the request was found (False means it already
        completed or was never here).
        """
        return self._rows.cancel(self._row, self._lane, request_index)

    # -- queue introspection (routing signals) ------------------------------

    @property
    def queue_len(self) -> int:
        """Requests waiting for a worker (excludes in-service ones)."""
        return len(self._rows.queues[self._row][self._lane])

    @property
    def in_service(self) -> int:
        """Requests currently held by a worker thread."""
        rows = self._rows
        return int((rows.req[self._row, rows._slots(self._lane)] >= 0).sum())

    @property
    def backlog_units(self) -> float:
        """Work units queued plus remaining on in-service requests."""
        rows, row, lane = self._rows, self._row, self._lane
        return rows.queued.item(row, lane) + rows.active_sum.item(row, lane)
