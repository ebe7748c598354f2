"""Fleet scheduler: hundreds of nodes behind one load balancer.

A :class:`FleetCluster` drives N independent :class:`~repro.fleet.node.
FleetNode` simulations in lock-step ticks.  Each tick:

1. the resilience layer (when attached) reboots due nodes, applies
   chaos velocity episodes and crashes, expires per-attempt timeouts
   and scans for hedges, then re-routes its backlog (crash re-queues,
   deferred arrivals, due retries, hedge twins) to the supervisor's
   routable set;
2. every arrival falling inside the tick is routed (the router sees
   nodes' *previous-tick* state — no node has stepped yet), subject to
   the admission controller's shed/brownout verdict;
3. the nodes step: one :class:`~repro.fleet.engine.FleetEngine` ticks
   every node row at once; DOWN and EVICTED nodes do not step;
4. completions are harvested in node-id order and aggregated into the
   fleet-wide SLO accounting and the telemetry registry (first
   completion wins for hedged requests; losers are cancelled);
5. the supervisor inspects the nodes post-step: crashed nodes go DOWN
   (stranded requests re-queued to survivors under failover, lost
   outright without it) and stalled nodes escalate one health state.

The resilience layer's per-tick work is event-driven: a node is visited
only when its state can change.  Chaos episodes are compiled into one
heap of boundary times, crashes into one array of each node's next
crash time, and the supervisor keeps its stepping mask and DOWN and
PROBATION sets up to date on every transition; post-step, every node
that progressed or holds nothing is reset in bulk (see
``docs/modelling.md`` §16).

Because nodes share no simulation state, routing always precedes
stepping, and every resilience decision happens in the route or
harvest phase (never inside the step), a node's results do not depend
on which other nodes are stepped with it — with or without chaos.  One
engine over all rows is cheapest in one process, since the engine's
cost is per numpy call, not per row.  With no chaos layer and no
resilience config the cluster takes exactly its original code paths,
keeping the zero-chaos run bit-identical to a fleet built before this
layer existed.

The run is open loop: the trace decides when requests arrive, the
horizon is the last arrival plus a drain window, and requests still
queued at the horizon are reported as unserved rather than waited for
— broken down by cause (``queued_at_horizon`` / ``shed`` /
``timed_out`` / ``lost_to_crash_then_requeued``).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.fleet.chaos import (
    FleetFaultConfig,
    NodeChaosEvent,
    active_velocity_factor,
    compile_timelines,
)
from repro.fleet.config import FleetConfig
from repro.fleet.engine import FleetEngine
from repro.fleet.node import LANES, Completion, FleetNode
from repro.fleet.resilience import (
    MAX_ATTEMPTS,
    AdmissionController,
    ResilienceConfig,
    backoff_s,
)
from repro.fleet.router import Candidates, Router, make_router
from repro.fleet.slo import percentile
from repro.fleet.supervisor import FleetSupervisor, NodeHealth
from repro.fleet.trace import APP_ID, Request, make_trace
from repro.platform.sensor import CHANNELS
from repro.sim.engine import MAX_TICKS
from repro.telemetry.registry import MetricsRegistry

#: Latency histogram buckets, as fractions of the deadline.
_BUCKET_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)

#: Slop for comparing scheduled times against tick boundaries.
_TIME_EPS = 1e-12

#: Extra horizon after the last arrival before the run is cut off
#: (unfinished requests are reported, not waited for).
_DRAIN_S = 20.0

#: The unserved-cause buckets ``FleetResult.unserved_causes`` reports.
UNSERVED_CAUSES = (
    "queued_at_horizon",
    "shed",
    "timed_out",
    "lost_to_crash_then_requeued",
)


@dataclass
class _Attempt:
    """One live dispatch of a request onto a node (resilience layer)."""

    request: Request
    node: FleetNode
    node_index: int
    lane: str
    attempt_no: int
    is_hedge: bool


@dataclass
class FleetResult:
    """Outcome of one fleet run.

    ``summary()`` returns only deterministic fields — the dict two runs
    of the same config must match on bit-for-bit.  The registry carries the full fleet telemetry (exporters
    consume it like any single-run registry).

    ``unserved_causes`` partitions ``unserved`` exactly:
    ``queued_at_horizon`` (still in some queue, or never admitted,
    when the run was cut off), ``shed`` (refused by the admission
    controller), ``timed_out`` (per-attempt retry budget exhausted)
    and ``lost_to_crash_then_requeued`` (stranded on a crashed or
    evicted node and not completed by any re-queue or hedge twin).
    ``resilience`` carries the integer event counters of the
    resilience layer (all zero without one).
    """

    router: str
    nodes: int
    requests: int
    completed: int
    unserved: int
    deadline_misses: int
    miss_ratio: float
    p50_s: float
    p95_s: float
    p99_s: float
    duration_s: float
    energy_j: float
    avg_power_w: float
    lane_completed: Dict[str, int]
    unserved_causes: Dict[str, int] = field(default_factory=dict)
    resilience: Dict[str, int] = field(default_factory=dict)
    registry: MetricsRegistry = field(repr=False, default_factory=MetricsRegistry)

    def summary(self) -> Dict[str, object]:
        """The deterministic identity fingerprint of the run."""
        return {
            "router": self.router,
            "nodes": self.nodes,
            "requests": self.requests,
            "completed": self.completed,
            "unserved": self.unserved,
            "deadline_misses": self.deadline_misses,
            "miss_ratio": self.miss_ratio,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
            "duration_s": self.duration_s,
            "energy_j": self.energy_j,
            "avg_power_w": self.avg_power_w,
            "lane_completed": dict(sorted(self.lane_completed.items())),
            "unserved_causes": dict(sorted(self.unserved_causes.items())),
            "resilience": dict(sorted(self.resilience.items())),
        }


class FleetCluster:
    """N nodes, one router, one engine (+ resilience layer)."""

    def __init__(
        self,
        config: FleetConfig,
        router: Union[Router, str] = "deadline-risk",
    ):
        self.config = config
        self.router = make_router(router) if isinstance(router, str) else router
        self.registry = MetricsRegistry()
        self.trace = make_trace(config)
        self._horizon_s = (
            self.trace[-1].arrival_s if self.trace else 0.0
        ) + _DRAIN_S
        # A fully disabled chaos config is exactly no chaos config: the
        # off-path bit-identity guarantee hangs on this normalization.
        chaos = config.chaos
        if chaos is not None and not chaos.enabled:
            chaos = None
        self.chaos: Optional[FleetFaultConfig] = chaos
        if chaos is not None or config.resilience is not None:
            self.resilience: Optional[ResilienceConfig] = (
                config.resilience
                if config.resilience is not None
                else ResilienceConfig()
            )
            self.supervisor: Optional[FleetSupervisor] = FleetSupervisor(
                self.resilience, chaos, config.nodes
            )
        else:
            self.resilience = None
            self.supervisor = None
        self._timelines: Optional[List[Tuple[NodeChaosEvent, ...]]] = (
            compile_timelines(chaos, config.nodes, self._horizon_s)
            if chaos is not None
            else None
        )
        #: Per node, the crash times of its timeline not yet fired or
        #: dropped, ascending.
        self._crashes: List[Deque[float]] = [
            deque(e.at_s for e in timeline if e.kind == "node_crash")
            for timeline in self._timelines or ()
        ]
        #: Per node, its next crash in its own clock
        #: (``crashes[0] - epoch_s``), ``inf`` when none is left.
        self._next_crash = np.array(
            [crashes[0] if crashes else math.inf for crashes in self._crashes]
        )
        #: ``(time_s, node)`` for every start and end of a hang or
        #: slowdown episode: the ticks at which a node's velocity factor
        #: can change.
        self._boundaries: List[Tuple[float, int]] = [
            (time_s, node)
            for node, timeline in enumerate(self._timelines or ())
            for event in timeline
            if event.kind != "node_crash"
            for time_s in (event.at_s, event.at_s + event.duration_s)
        ]
        heapq.heapify(self._boundaries)
        #: Nodes with at least one hang or slowdown episode.
        self._episodic = {node for _, node in self._boundaries}
        self.nodes = [FleetNode(i, config) for i in range(config.nodes)]
        #: The structure-of-arrays engine stepping every node; row
        #: ``i`` is node ``i`` (a restarted node takes over its row).
        self.engine = FleetEngine(self.nodes)
        self._latencies: List[float] = []
        #: (finish_s, missed) per counted completion, harvest order —
        #: the stream :func:`repro.fleet.slo.recovery_time_s` consumes.
        self.completion_log: List[Tuple[float, bool]] = []
        self._completions_by_lane = {lane: 0 for lane in LANES}
        self._misses = 0
        self._ran = False
        self._clock_s = 0.0
        # -- resilience-layer state (untouched on the off path) -----------
        self._tracking = (
            self.resilience is not None and self.resilience.tracking_enabled
        )
        self._terminal = 0  # requests with a final outcome (any cause)
        self._done: set = set()  # completed request indices
        self._shed: set = set()
        self._timed_out: set = set()
        self._crash_touched: set = set()
        self._deferred: Deque[Request] = deque()
        self._requeue: Deque[Tuple[Request, int]] = deque()
        self._attempts: Dict[int, Dict[int, _Attempt]] = {}
        self._attempt_seq = 0
        self._timeout_heap: List[Tuple[float, int, int]] = []
        self._retry_heap: List[Tuple[float, int, int, Request]] = []
        self._hedged: set = set()
        self._hedge_pending: List[Tuple[Request, int, str, int]] = []
        self._retired_energy: Dict[int, Dict[str, float]] = {}
        self._requeued = 0
        self._retries = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._hedge_cancelled = 0
        self._demoted = 0
        self._max_requeue_ticks = 0

    def run(self) -> FleetResult:
        """Route, step and aggregate until the trace drains (or horizon)."""
        if self._ran:
            raise SimulationError("a FleetCluster runs once; build a new one")
        self._ran = True
        config = self.config
        trace = self.trace
        max_ticks = min(
            int(math.ceil(self._horizon_s / config.tick_s)) + 1,
            MAX_TICKS,
        )
        routed = self.registry.counter(
            "fleet_requests_routed_total", "requests admitted, by lane/app"
        )
        self._routed_counter = routed
        completed_counter = self.registry.counter(
            "fleet_requests_completed_total", "completions, by lane"
        )
        missed_counter = self.registry.counter(
            "fleet_deadline_misses_total", "deadline misses, by lane"
        )
        buckets = tuple(
            f * config.deadline_s for f in _BUCKET_FRACTIONS
        )
        node_latency = self.registry.histogram(
            "fleet_node_latency_seconds",
            "per-node request latency",
            buckets=buckets,
        )
        sup = self.supervisor
        res = self.resilience
        res_on = sup is not None
        if res_on:
            self._make_resilience_counters()
        admission = (
            AdmissionController(res)
            if res_on and res.admission_enabled
            else None
        )
        self.admission = admission
        arrival_index = 0
        completed = 0
        progressed = np.zeros(len(self.nodes), dtype=bool)
        for tick in range(max_ticks):
            now_s = tick * config.tick_s
            tick_end_s = now_s + config.tick_s
            # 1. Resilience pre-phase + backlog routing, then this
            #    tick's arrivals — all against the pre-step snapshot.
            #    One Candidates serves the whole routing phase: built
            #    after the pre-phase's restarts and cancels, dropped
            #    before any node steps (its wait vectors rely on that).
            state = "normal"
            if res_on:
                self._begin_tick(tick, now_s)
                candidates = Candidates(sup.routable(self.nodes))
                self._route_backlog(tick, now_s, candidates)
                if admission is not None and candidates:
                    queued = self.engine.serving.qlen[candidates.rows]
                    depth = int(queued.sum()) / len(candidates)
                    best_wait = min(candidates.waits("base"))
                    state = admission.update(depth, best_wait)
            else:
                candidates = Candidates(self.nodes)
            while (
                arrival_index < len(trace)
                and trace[arrival_index].arrival_s < tick_end_s
            ):
                request = trace[arrival_index]
                arrival_index += 1
                if state == "shed":
                    self._shed.add(request.index)
                    self._terminal += 1
                    self._shed_counter.inc(app=request.app)
                    continue
                if not candidates:
                    # Nobody routable this tick — hold the arrival.
                    self._deferred.append(request)
                    continue
                node_index, lane = self.router.route(
                    request, candidates, now_s
                )
                if state == "brownout" and lane == "hot":
                    lane = "base"
                    self._demoted += 1
                    self._demoted_counter.inc(app=request.app)
                node = candidates.enqueue(node_index, request, lane)
                routed.inc(lane=lane, app=request.app)
                if self._tracking:
                    self._track(request, node, lane, 1, False, now_s)
            del candidates
            # 2. Step every node row at once.
            per_node = self.engine.step(sup.stepping if res_on else None)
            self._clock_s += config.tick_s
            # 3. Aggregate in node-id order.
            progressed.fill(False)
            for node_index, completions in enumerate(per_node):
                if not completions:
                    continue
                progressed[node_index] = True
                for completion in completions:
                    if res_on:
                        index = completion.request.index
                        if index in self._done:
                            # A hedge twin already served this request.
                            continue
                        self._done.add(index)
                        self._resolve_attempts(completion, node_index)
                        self._terminal += 1
                    completed += 1
                    self._latencies.append(completion.latency_s)
                    self.completion_log.append(
                        (completion.finish_s, completion.missed)
                    )
                    self._completions_by_lane[completion.lane] += 1
                    completed_counter.inc(lane=completion.lane)
                    node_latency.observe(
                        completion.latency_s, node=f"node-{node_index}"
                    )
                    if completion.missed:
                        self._misses += 1
                        missed_counter.inc(lane=completion.lane)
            # 4. Post-step supervision: crashes down nodes, stalls
            #    escalate, stranded requests re-queue (node-id order).
            if res_on:
                self._post_step(tick, tick_end_s, progressed)
                if (
                    arrival_index >= len(trace)
                    and self._terminal >= len(trace)
                ):
                    break
            elif arrival_index >= len(trace) and completed >= len(trace):
                break
        return self._finalize(completed, self._clock_s)

    # -- resilience phases -------------------------------------------------

    def _make_resilience_counters(self) -> None:
        registry = self.registry
        self._shed_counter = registry.counter(
            "fleet_requests_shed_total", "arrivals refused by admission"
        )
        self._demoted_counter = registry.counter(
            "fleet_requests_demoted_total", "hot arrivals browned out to base"
        )
        self._requeued_counter = registry.counter(
            "fleet_requests_requeued_total", "crash-stranded requests re-queued"
        )
        self._retried_counter = registry.counter(
            "fleet_requests_retried_total", "attempt-timeout re-dispatches"
        )
        self._timeout_counter = registry.counter(
            "fleet_requests_timed_out_total", "requests out of attempt budget"
        )
        self._hedged_counter = registry.counter(
            "fleet_requests_hedged_total", "tail-latency hedge twins dispatched"
        )
        self._hedge_win_counter = registry.counter(
            "fleet_hedge_wins_total", "requests won by their hedge twin"
        )
        self._hedge_cancel_counter = registry.counter(
            "fleet_hedge_cancelled_total", "losing hedge attempts cancelled"
        )
        self._crash_counter = registry.counter(
            "fleet_node_crashes_total", "node crash events, by node"
        )
        self._restart_counter = registry.counter(
            "fleet_node_restarts_total", "node reboots, by node"
        )
        self._evict_counter = registry.counter(
            "fleet_node_evictions_total", "permanent node evictions, by node"
        )

    def _begin_tick(self, tick: int, now_s: float) -> None:
        """Reboots, probation, chaos episodes and crashes, timeouts,
        hedge scan."""
        sup = self.supervisor
        res = self.resilience
        rebooted = sup.restarts_due(now_s)
        for node_index in rebooted:
            self._restart_node(node_index, tick, now_s)
        sup.tick(now_s)
        if self.chaos is not None:
            self._apply_episodes(now_s, rebooted)
            self._apply_crashes()
        if self._tracking and res.retry_enabled:
            self._expire_attempts(now_s)
        if self._tracking and res.hedge_enabled:
            self._scan_hedges(now_s)

    def _apply_episodes(self, now_s: float, rebooted: List[int]) -> None:
        """Set the velocity factor of every stepping node whose episodes
        may have started or ended since the last tick, or that rebooted
        (a fresh node runs at factor 1).  Between two boundaries no
        episode's ``at_s <= now < at_s + duration_s`` changes, so every
        other node keeps the factor it has."""
        due = {node for node in rebooted if node in self._episodic}
        boundaries = self._boundaries
        while boundaries and boundaries[0][0] <= now_s:
            due.add(heapq.heappop(boundaries)[1])
        stepping = self.supervisor.stepping
        for node_index in sorted(due):
            if stepping[node_index]:
                self.nodes[node_index].set_velocity_factor(
                    active_velocity_factor(self._timelines[node_index], now_s)
                )

    def _apply_crashes(self) -> None:
        """Crash every stepping node whose next crash falls inside its
        tick, in node-id order.  A crash fires on the first tick of the
        node's own clock whose end passes it (node-local time: a reboot
        restarts the clock at zero)."""
        engine = self.engine
        tick_s = self.config.tick_s
        tick_end = engine.now + tick_s - _TIME_EPS
        due = self.supervisor.stepping & (self._next_crash < tick_end)
        for node_index in np.flatnonzero(due).tolist():
            crashes = self._crashes[node_index]
            epoch_s = self.nodes[node_index].epoch_s
            end = tick_end.item(node_index)
            while crashes and crashes[0] - epoch_s < end:
                crashes.popleft()
            self._next_crash[node_index] = (
                crashes[0] - epoch_s if crashes else math.inf
            )
            engine.crash(node_index)

    def _restart_node(self, node_index: int, tick: int, now_s: float) -> None:
        """Reboot one DOWN node as a fresh simulation (new epoch)."""
        old = self.nodes[node_index]
        bank = self._retired_energy.setdefault(
            node_index, {channel: 0.0 for channel in CHANNELS}
        )
        for channel in CHANNELS:
            bank[channel] += old.energy_j(channel)
        # Anything still pending belongs to the dead incarnation: under
        # failover the crash already stranded it; without failover the
        # routers kept feeding the corpse and those requests are lost.
        self._strand(old, tick)
        # The new incarnation owns the crashes at or after its boot;
        # those that fell while the node was down are dropped.
        crashes = self._crashes[node_index]
        while crashes and crashes[0] < now_s:
            crashes.popleft()
        node = FleetNode(node_index, self.config, epoch_s=now_s)
        self._next_crash[node_index] = (
            crashes[0] - node.epoch_s if crashes else math.inf
        )
        self.engine.replace(node_index, node)
        self.nodes[node_index] = node
        self.supervisor.on_restarted(node_index, now_s)
        self._restart_counter.inc(node=old.name)

    def _expire_attempts(self, now_s: float) -> None:
        """Cancel attempts past their per-attempt timeout; retry or fail."""
        heap = self._timeout_heap
        while heap and heap[0][0] <= now_s + _TIME_EPS:
            _, index, attempt_id = heapq.heappop(heap)
            if index in self._done:
                continue
            attempts = self._attempts.get(index)
            if attempts is None or attempt_id not in attempts:
                continue  # stale: attempt already resolved or stranded
            attempt = attempts.pop(attempt_id)
            attempt.node.cancel(index)
            if attempts:
                continue  # a hedge twin is still racing — let it finish
            del self._attempts[index]
            if attempt.attempt_no >= MAX_ATTEMPTS:
                self._timed_out.add(index)
                self._terminal += 1
                self._timeout_counter.inc()
            else:
                heapq.heappush(
                    self._retry_heap,
                    (
                        now_s + backoff_s(attempt.attempt_no),
                        index,
                        attempt.attempt_no + 1,
                        attempt.request,
                    ),
                )

    def _scan_hedges(self, now_s: float) -> None:
        """Queue hedge twins for requests whose ETA threatens the deadline.

        The open attempts' waits are gathered per (engine, lane) in one
        :meth:`FleetEngine.est_waits` call each, the floats
        :meth:`FleetNode.est_wait_s` gives."""
        res = self.resilience
        open_attempts = []
        groups: Dict[tuple, List[int]] = {}
        for index in sorted(self._attempts):
            if index in self._hedged:
                continue
            attempts = self._attempts[index]
            if len(attempts) != 1:
                continue
            (attempt,) = attempts.values()
            key = (attempt.node.engine, attempt.lane)
            groups.setdefault(key, []).append(len(open_attempts))
            open_attempts.append((index, attempt))
        waits = [0.0] * len(open_attempts)
        for (engine, lane), positions in groups.items():
            rows = np.array([open_attempts[p][1].node._row for p in positions])
            for position, wait in zip(positions, engine.est_waits(rows, lane)):
                waits[position] = wait
        for (index, attempt), wait_s in zip(open_attempts, waits):
            request = attempt.request
            eta_s = now_s + wait_s
            threshold_s = (
                request.arrival_s + res.hedge_fraction * request.budget_s
            )
            if eta_s > threshold_s + _TIME_EPS:
                self._hedged.add(index)
                self._hedge_pending.append(
                    (request, attempt.node_index, attempt.lane,
                     attempt.attempt_no)
                )

    def _route_backlog(
        self, tick: int, now_s: float, candidates: Candidates
    ) -> None:
        """Dispatch re-queues, deferred arrivals, retries and hedges."""
        routed = self._routed_counter
        if self._requeue:
            batch = list(self._requeue)
            self._requeue.clear()
            for request, stranded_tick in batch:
                if not candidates:
                    self._requeue.append((request, stranded_tick))
                    continue
                node_index, lane = self.router.route(
                    request, candidates, now_s
                )
                node = candidates.enqueue(node_index, request, lane)
                routed.inc(lane=lane, app=request.app)
                wait_ticks = tick - stranded_tick
                if wait_ticks > self._max_requeue_ticks:
                    self._max_requeue_ticks = wait_ticks
                if self._tracking:
                    self._track(request, node, lane, 1, False, now_s)
        if self._deferred and candidates:
            batch = list(self._deferred)
            self._deferred.clear()
            for request in batch:
                node_index, lane = self.router.route(
                    request, candidates, now_s
                )
                node = candidates.enqueue(node_index, request, lane)
                routed.inc(lane=lane, app=request.app)
                if self._tracking:
                    self._track(request, node, lane, 1, False, now_s)
        while (
            self._retry_heap
            and self._retry_heap[0][0] <= now_s + _TIME_EPS
        ):
            if not candidates:
                break
            _, index, attempt_no, request = heapq.heappop(self._retry_heap)
            if index in self._done or index in self._timed_out:
                continue
            node_index, lane = self.router.route(request, candidates, now_s)
            node = candidates.enqueue(node_index, request, lane)
            routed.inc(lane=lane, app=request.app)
            self._retries += 1
            self._retried_counter.inc(attempt=str(attempt_no))
            self._track(request, node, lane, attempt_no, False, now_s)
        if self._hedge_pending:
            # Candidate position of each node slot: the hedge goes to
            # the best candidate other than the primary's slot.
            positions = {node.index: i for i, node in enumerate(candidates)}
            for request, primary_index, lane, attempt_no in self._hedge_pending:
                if request.index in self._done:
                    continue
                if not candidates:
                    continue  # nowhere to hedge to this tick
                pick = candidates.argmin(
                    lane, skip=positions.get(primary_index)
                )
                if pick is None:
                    continue  # the primary is the only candidate
                node = candidates.enqueue(pick, request, lane)
                routed.inc(lane=lane, app=request.app)
                self._hedges += 1
                self._hedged_counter.inc()
                self._track(request, node, lane, attempt_no, True, now_s)
            self._hedge_pending.clear()

    def _track(
        self,
        request: Request,
        node: FleetNode,
        lane: str,
        attempt_no: int,
        is_hedge: bool,
        now_s: float,
    ) -> None:
        """Record one dispatch for the timeout/hedge machinery."""
        attempt_id = self._attempt_seq
        self._attempt_seq += 1
        self._attempts.setdefault(request.index, {})[attempt_id] = _Attempt(
            request=request,
            node=node,
            node_index=node.index,
            lane=lane,
            attempt_no=attempt_no,
            is_hedge=is_hedge,
        )
        res = self.resilience
        if res.retry_enabled:
            heapq.heappush(
                self._timeout_heap,
                (now_s + res.attempt_timeout_s, request.index, attempt_id),
            )

    def _resolve_attempts(
        self, completion: Completion, node_index: int
    ) -> None:
        """First completion wins: credit the winner, cancel the losers."""
        attempts = self._attempts.pop(completion.request.index, None)
        if attempts is None:
            return
        for attempt in attempts.values():
            if attempt.node_index == node_index:
                if attempt.is_hedge:
                    self._hedge_wins += 1
                    self._hedge_win_counter.inc()
                continue
            if attempt.node.cancel(completion.request.index):
                self._hedge_cancelled += 1
                self._hedge_cancel_counter.inc()

    def _post_step(
        self, tick: int, now_s: float, progressed: np.ndarray
    ) -> None:
        """Detect crashes, escalate stalls, strand dead nodes' queues.

        Only the stepped nodes (not DOWN or EVICTED) are inspected.
        Crashed ones, whose every lane halted, go DOWN; the supervisor
        triages the rest in bulk (:meth:`FleetSupervisor.triage`) and
        :meth:`FleetSupervisor.observe` sees the nodes whose health can
        change.  Both run one node at a time in node-id order, the
        order of the ledger and of the re-queue.
        """
        sup = self.supervisor
        engine = self.engine
        live = sup.stepping.copy()
        if self.chaos is not None:
            crashed = live & engine.halted.all(axis=1)
            live &= ~crashed
        else:
            crashed = np.zeros_like(live)
        pending = engine.serving.held()
        observed = sup.triage(now_s, live, progressed, pending)
        for node_index in np.flatnonzero(crashed | observed).tolist():
            node = self.nodes[node_index]
            if crashed[node_index]:
                sup.on_crash(node_index, now_s)
                self._crash_counter.inc(node=node.name)
                if sup.health(node_index) is NodeHealth.EVICTED:
                    self._evict_counter.inc(node=node.name)
                self._strand(node, tick)
                continue
            verdict = sup.observe(
                node_index,
                now_s,
                progressed.item(node_index),
                pending.item(node_index),
            )
            if verdict is NodeHealth.EVICTED:
                self._evict_counter.inc(node=node.name)
                self._strand(node, tick)

    def _strand(self, node: FleetNode, tick: int) -> None:
        """Pull a dead node's pending requests: re-queue or lose them."""
        requeue = self.resilience.failover
        for request, _ in sorted(
            node.stranded(), key=lambda entry: entry[0].index
        ):
            index = request.index
            self._crash_touched.add(index)
            if self._tracking:
                attempts = self._attempts.get(index)
                if attempts is not None:
                    for attempt_id in [
                        attempt_id
                        for attempt_id, attempt in attempts.items()
                        if attempt.node is node
                    ]:
                        del attempts[attempt_id]
                    if attempts:
                        continue  # a hedge twin survives elsewhere
                    del self._attempts[index]
            if requeue:
                self._requeue.append((request, tick))
                self._requeued += 1
                self._requeued_counter.inc()
            else:
                self._terminal += 1

    # -- finalization ------------------------------------------------------

    def _node_energy(self, node: FleetNode, channel: str) -> float:
        """Lifetime energy of a node slot, prior incarnations included."""
        energy = node.energy_j(channel)
        bank = self._retired_energy.get(node.index)
        if bank is not None:
            energy += bank[channel]
        return energy

    def _unserved_causes(self, completed: int) -> Dict[str, int]:
        """Partition the unserved count by cause."""
        unserved = len(self.trace) - completed
        if self.supervisor is None:
            shed = timed_out = lost = 0
        else:
            # Requests still sitting on a dead node (routed into it
            # while failover was off) are crash losses too.
            for node in self.nodes:
                if self.supervisor.health(node.index) in (
                    NodeHealth.DOWN,
                    NodeHealth.EVICTED,
                ):
                    for index in node.pending_indices():
                        self._crash_touched.add(index)
            shed = len(self._shed)
            timed_out = len(self._timed_out)
            lost = len(self._crash_touched - self._done - self._timed_out)
        return {
            "queued_at_horizon": unserved - shed - timed_out - lost,
            "shed": shed,
            "timed_out": timed_out,
            "lost_to_crash_then_requeued": lost,
        }

    def _resilience_counts(self) -> Dict[str, int]:
        sup = self.supervisor
        return {
            "crashes": sup.crashes if sup is not None else 0,
            "restarts": sup.restarts if sup is not None else 0,
            "evictions": sup.evictions if sup is not None else 0,
            "requeued": self._requeued,
            "max_requeue_ticks": self._max_requeue_ticks,
            "retries": self._retries,
            "timeouts": len(self._timed_out),
            "hedges": self._hedges,
            "hedge_wins": self._hedge_wins,
            "hedge_cancelled": self._hedge_cancelled,
            "shed": len(self._shed),
            "demoted": self._demoted,
        }

    def _finalize(self, completed: int, duration_s: float) -> FleetResult:
        config = self.config
        if completed and self._latencies:
            p50 = percentile(self._latencies, 50.0)
            p95 = percentile(self._latencies, 95.0)
            p99 = percentile(self._latencies, 99.0)
        else:
            p50 = p95 = p99 = 0.0
        energy = sum(self._node_energy(node, "total") for node in self.nodes)
        avg_power = energy / duration_s if duration_s > 0 else 0.0
        miss_ratio = self._misses / completed if completed else 0.0
        gauges = self.registry.gauge(
            "fleet_latency_seconds", "fleet-wide latency quantiles"
        )
        for quantile, value in (("0.5", p50), ("0.95", p95), ("0.99", p99)):
            gauges.set(value, quantile=quantile)
        self.registry.gauge(
            "fleet_deadline_miss_ratio", "misses / completions"
        ).set(miss_ratio)
        energy_gauge = self.registry.gauge(
            "fleet_energy_joules", "fleet energy, by rail"
        )
        power_gauge = self.registry.gauge(
            "fleet_power_watts", "fleet average power, by rail"
        )
        for channel in CHANNELS:
            rail_energy = sum(
                self._node_energy(node, channel) for node in self.nodes
            )
            energy_gauge.set(rail_energy, rail=channel)
            power_gauge.set(
                rail_energy / duration_s if duration_s > 0 else 0.0,
                rail=channel,
            )
        node_energy = self.registry.gauge(
            "fleet_node_energy_joules", "per-node total energy"
        )
        backlog_gauge = self.registry.gauge(
            "fleet_backlog_requests", "requests left unserved at the horizon"
        )
        for node in self.nodes:
            node_energy.set(self._node_energy(node, "total"), node=node.name)
        # Covers both requests stuck in queues at the horizon and
        # requests the horizon cut off before they were even routed.
        unserved = len(self.trace) - completed
        backlog_gauge.set(float(unserved))
        causes = self._unserved_causes(completed)
        causes_gauge = self.registry.gauge(
            "fleet_unserved_causes", "unserved requests, by cause"
        )
        for cause in UNSERVED_CAUSES:
            causes_gauge.set(float(causes[cause]), cause=cause)
        if self.supervisor is not None:
            health_gauge = self.registry.gauge(
                "fleet_node_health", "final node health (1 = in state)"
            )
            for node in self.nodes:
                health_gauge.set(
                    1.0,
                    node=node.name,
                    state=self.supervisor.health(node.index).value,
                )
        self.registry.gauge(
            "fleet_run_info", "run identity (labels carry the config)"
        ).set(
            1.0,
            router=self.router.name,
            trace=config.trace,
            nodes=str(config.nodes),
            app=APP_ID,
        )
        return FleetResult(
            router=self.router.name,
            nodes=config.nodes,
            requests=len(self.trace),
            completed=completed,
            unserved=unserved,
            deadline_misses=self._misses,
            miss_ratio=miss_ratio,
            p50_s=p50,
            p95_s=p95,
            p99_s=p99,
            duration_s=duration_s,
            energy_j=energy,
            avg_power_w=avg_power,
            lane_completed=dict(self._completions_by_lane),
            unserved_causes=causes,
            resilience=self._resilience_counts(),
            registry=self.registry,
        )


def run_fleet(
    router: Union[Router, str],
    config: Optional[FleetConfig] = None,
) -> FleetResult:
    """Build and run one fleet (the ``repro.experiments.run`` backend)."""
    if config is None:
        config = FleetConfig()
    if not isinstance(config, FleetConfig):
        raise ConfigurationError(
            f"config must be a FleetConfig, got {type(config).__name__}"
        )
    return FleetCluster(config, router=router).run()
