"""One fleet node: a big.LITTLE board serving requests under MP-HARS.

A :class:`FleetNode` wraps one :class:`~repro.sim.engine.Simulation`
(its own ODROID-XU3 spec, clock, machine, bus and MP-HARS controller)
running two serving lanes, each a
:class:`~repro.fleet.serving.ServerWorkload` behind a
:class:`~repro.heartbeats.targets.DeadlineTarget`:

* ``hot``  — the lane deadline-risk requests are routed to; its
  big-core affinity emerges from MP-HARS itself (an underperforming
  lane grows into the fast cluster first — the Hurry-up split without
  hard-coding it);
* ``base`` — everything else.

The node's only coupling to the rest of the fleet is request enqueue
and read-only load snapshots — nodes never share simulation state,
which is what makes the cluster's results independent of how its
nodes are stepped.

A node does not tick its :class:`~repro.sim.engine.Simulation` itself:
its data plane (placement, grants, queue drain, power, sensor, load
tracking, velocity and targets) is one row of a
:class:`~repro.fleet.engine.FleetEngine`.  The cluster steps one engine
over all its nodes; a node stepped on its own is a one-row engine.  Its
MP-HARS starts when an engine adopts it, and it has no fault layer of
its own: the cluster applies chaos to it from outside (velocity factors
for hangs and slowdowns, :meth:`FleetEngine.crash` for crashes; see
:mod:`repro.fleet.chaos`).

Completion mapping: every request completion emits one heartbeat tagged
with the request index; after each tick the node drains the new tail of
each lane's heartbeat log, joins tags back to pending requests, and
turns heartbeat timestamps into latencies for the SLO windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.calibration import calibrate
from repro.core.perf_estimator import PerformanceEstimator
from repro.core.policy import HARS_I
from repro.errors import ConfigurationError, SimulationError
from repro.fleet.config import FleetConfig
from repro.fleet.engine import FleetEngine
from repro.fleet.serving import ServerWorkload
from repro.fleet.slo import SloWindow
from repro.fleet.trace import Request
from repro.heartbeats.targets import DeadlineTarget
from repro.mphars.manager import MpHarsManager
from repro.platform.cluster import BIG, LITTLE
from repro.platform.spec import odroid_xu3
from repro.sim.engine import Simulation
from repro.sim.process import SimApp

#: The serving lanes every node runs, in deterministic order.
LANES = ("hot", "base")
_LANE_INDEX = {lane: index for index, lane in enumerate(LANES)}

#: Floor (fraction of nominal single-thread capacity) under which the
#: velocity estimate is clamped when computing wait estimates, so a
#: momentarily idle lane does not report infinite waits.
_VELOCITY_FLOOR = 0.1


@dataclass(frozen=True)
class Completion:
    """One finished request, as the cluster aggregates it."""

    request: Request
    node: int
    lane: str
    finish_s: float
    latency_s: float
    missed: bool


class FleetNode:
    """One simulated board + its local MP-HARS controller (started
    when an engine adopts the node; no fault layer of its own)."""

    def __init__(self, index: int, config: FleetConfig, epoch_s: float = 0.0):
        self.index = index
        self.name = f"node-{index}"
        self.config = config
        #: Cluster time at which this incarnation booted.  The node's
        #: own simulation clock restarts at zero on every reboot;
        #: completion times are reported as ``epoch_s + local time`` so
        #: latencies stay arrival-relative across restarts.  0.0 for a
        #: never-restarted node, which keeps ``0.0 + t == t`` bit-exact.
        self.epoch_s = epoch_s
        spec = odroid_xu3()
        self.sim = Simulation(spec, tick_s=config.tick_s)
        self.models: Dict[str, ServerWorkload] = {}
        self.apps: Dict[str, SimApp] = {}
        self.targets: Dict[str, DeadlineTarget] = {}
        self.slo: Dict[str, SloWindow] = {}
        self._cursor: Dict[str, int] = {}
        self._nominal: Dict[str, float] = {}
        self._floor: Dict[str, float] = {}
        for lane in LANES:
            model = ServerWorkload(lane, config.lane_threads)
            target = DeadlineTarget(
                deadline_s=config.deadline_s,
                percentile=config.percentile,
                slack=config.slack,
            )
            self.models[lane] = model
            self.targets[lane] = target
            self.apps[lane] = self.sim.add_app(SimApp(lane, model, target))
            self.slo[lane] = SloWindow()
            self._cursor[lane] = 0
            cluster = spec.big if lane == "hot" else spec.little
            cluster_name = BIG if lane == "hot" else LITTLE
            nominal = (
                model.thread_speed(
                    cluster_name, cluster.core_type, cluster.max_freq_mhz
                )
                * config.lane_threads
            )
            self._nominal[lane] = nominal
            self._floor[lane] = nominal * _VELOCITY_FLOOR
        self.manager = MpHarsManager(
            policy=HARS_I,
            perf_estimator=PerformanceEstimator(),
            power_estimator=calibrate(spec),
            adapt_every=config.adapt_every,
        )
        self.sim.add_controller(self.manager)
        #: request index -> (Request, lane), for completion join and
        #: for cancellation/stranding (the resilience layer needs to
        #: know which lane holds a request to pull it back out).
        self._pending: Dict[int, Tuple[Request, str]] = {}
        #: The engine holding this node's data plane, and its row there
        #: (set when an engine adopts the node).
        self._engine: Optional[FleetEngine] = None
        self._row = 0

    @property
    def engine(self) -> FleetEngine:
        """The engine stepping this node (a one-row engine of its own
        unless a cluster's engine adopted it)."""
        if self._engine is None:
            FleetEngine([self])
        return self._engine

    # -- load balancer interface ---------------------------------------------

    def enqueue(self, request: Request, lane: str) -> None:
        """Admit one request into a lane's queue."""
        if lane not in self.models:
            raise ConfigurationError(f"{self.name}: unknown lane {lane!r}")
        if request.index in self._pending:
            raise ConfigurationError(
                f"{self.name}: request {request.index} routed twice"
            )
        self._pending[request.index] = (request, lane)
        self.models[lane].submit(request.index, request.service_units)

    def cancel(self, request_index: int) -> bool:
        """Withdraw a pending request (hedge loser / attempt timeout)."""
        entry = self._pending.pop(request_index, None)
        if entry is None:
            return False
        self.models[entry[1]].cancel(request_index)
        return True

    def stranded(self) -> List[Tuple[Request, str]]:
        """Drain and return every pending request (crash/evict path)."""
        entries = list(self._pending.values())
        self._pending.clear()
        return entries

    def pending_indices(self) -> Tuple[int, ...]:
        """Indices of admitted-but-unfinished requests, routing order."""
        return tuple(self._pending)

    # -- chaos hooks ----------------------------------------------------------

    def set_velocity_factor(self, factor: float) -> None:
        """Apply a hang/slowdown episode's service-velocity factor."""
        for lane in LANES:
            self.models[lane].velocity_factor = factor

    @property
    def crashed(self) -> bool:
        """Whether the node's serving lanes have all halted (node down)."""
        return all(app.halted for app in self.apps.values())

    def backlog_units(self, lane: str) -> float:
        """Outstanding work units in a lane (queued + in service)."""
        return self.models[lane].backlog_units

    def queue_len(self, lane: str) -> int:
        return self.models[lane].queue_len

    def est_wait_s(self, lane: str) -> float:
        """Estimated queueing delay for a request joining ``lane`` now."""
        engine = self._engine if self._engine is not None else self.engine
        velocity = max(
            engine.velocity.item(self._row, _LANE_INDEX[lane]),
            self._floor[lane],
        )
        return self.models[lane].backlog_units / velocity

    def nominal_rate(self, lane: str) -> float:
        """Units/s the lane's threads deliver at max frequency."""
        return self._nominal[lane]

    @property
    def pending(self) -> int:
        """Requests admitted but not yet completed."""
        return len(self._pending)

    # -- stepping --------------------------------------------------------------

    def step(self) -> List[Completion]:
        """Advance one tick; return the requests that completed in it."""
        engine = self.engine
        if engine.n_rows != 1:
            raise SimulationError(
                f"{self.name} is stepped by its cluster's FleetEngine"
            )
        return engine.step()[0]

    def _harvest(self, lane: str, completions: List[Completion]) -> float:
        """Join the lane's new heartbeats to their pending requests.

        Appends one :class:`Completion` per new beat and feeds the SLO
        window; returns the completed work units.  ``epoch_s + beat
        time`` is the cluster-time finish.
        """
        log = self.apps[lane].log
        window = self.slo[lane]
        cursor = self._cursor[lane]
        done_units = 0.0
        while cursor < len(log):
            beat = log.beat(cursor)
            cursor += 1
            request, _ = self._pending.pop(int(beat.tag))
            finish_s = self.epoch_s + beat.time_s
            latency = finish_s - request.arrival_s
            missed = finish_s > request.deadline_s + 1e-9
            window.observe(latency, missed)
            done_units += request.service_units
            completions.append(
                Completion(
                    request=request,
                    node=self.index,
                    lane=lane,
                    finish_s=finish_s,
                    latency_s=latency,
                    missed=missed,
                )
            )
        self._cursor[lane] = cursor
        return done_units

    # -- accounting -------------------------------------------------------------

    def energy_j(self, channel: str = "total") -> float:
        return self.engine.energy_j(self._row, channel)

    def average_power_w(self, channel: str = "total") -> float:
        elapsed = self.engine.elapsed_s(self._row)
        if elapsed == 0:
            raise ConfigurationError("no power recorded yet")
        return self.energy_j(channel) / elapsed
