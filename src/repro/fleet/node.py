"""One fleet node: a big.LITTLE board serving requests under MP-HARS.

A :class:`FleetNode` wraps one :class:`~repro.sim.engine.Simulation`
(its own ODROID-XU3 spec, clock, power model and scheduler) running two
serving lanes, each a :class:`~repro.fleet.serving.ServerWorkload`
behind a :class:`~repro.heartbeats.targets.DeadlineTarget`:

* ``hot``  — the lane deadline-risk requests are routed to; its
  big-core affinity emerges from MP-HARS itself (an underperforming
  lane grows into the fast cluster first — the Hurry-up split without
  hard-coding it);
* ``base`` — everything else.

The node's only coupling to the rest of the fleet is request enqueue
and read-only load snapshots — nodes never share simulation state,
which is what makes the sharded cluster bit-identical across shard
counts.

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
from repro.errors import ConfigurationError
from repro.faults.config import FaultConfig
from repro.fleet.config import FleetConfig
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

#: EWMA gain of the per-lane service-velocity estimate the routers use.
VELOCITY_ALPHA = 0.05

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
    """One simulated board + its local MP-HARS controller."""

    def __init__(
        self,
        index: int,
        config: FleetConfig,
        epoch_s: float = 0.0,
        faults: Optional[FaultConfig] = None,
    ):
        self.index = index
        self.name = f"node-{index}"
        self.config = config
        #: Cluster time at which this incarnation booted.  The node's
        #: own simulation clock restarts at zero on every reboot;
        #: completion times are reported as ``epoch_s + local time`` so
        #: latencies stay arrival-relative across restarts.  0.0 for a
        #: never-restarted node, which keeps ``0.0 + t == t`` bit-exact.
        self.epoch_s = epoch_s
        #: Node-local fault layer — the chaos compiler delivers node
        #: crashes through it (see :mod:`repro.fleet.chaos`).
        self.faults = faults
        spec = odroid_xu3()
        self.sim = Simulation(spec, tick_s=config.tick_s, faults=faults)
        self.models: Dict[str, ServerWorkload] = {}
        self.apps: Dict[str, SimApp] = {}
        self.targets: Dict[str, DeadlineTarget] = {}
        self.slo: Dict[str, SloWindow] = {}
        self._cursor: Dict[str, int] = {}
        self._velocity: Dict[str, float] = {}
        self._nominal: Dict[str, float] = {}
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
            self.slo[lane] = SloWindow(config.slo_window)
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
            self._velocity[lane] = nominal
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
        velocity = max(
            self._velocity[lane], self._nominal[lane] * _VELOCITY_FLOOR
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
        self.sim.step()
        now_s = self.sim.clock.now_s
        completions: List[Completion] = []
        for lane in LANES:
            app = self.apps[lane]
            log = app.log
            window = self.slo[lane]
            done_units = 0.0
            while self._cursor[lane] < len(log):
                beat = log.beat(self._cursor[lane])
                self._cursor[lane] += 1
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
            # Service-velocity EWMA: the routers' wait estimates.
            self._velocity[lane] += VELOCITY_ALPHA * (
                done_units / self.sim.tick_s - self._velocity[lane]
            )
            # Re-center the lane's deadline target from the SLO window
            # and the timed completion rate (elapsed-span corrected, so
            # a lane is not misread as slow right after it warms up).
            self.targets[lane].update(
                app.monitor.timed_rate(now_s, self.config.rate_span_s),
                window.percentile(self.config.percentile),
            )
        return completions

    # -- accounting -------------------------------------------------------------

    def energy_j(self, channel: str = "total") -> float:
        return self.sim.sensor.energy_j(channel)

    def average_power_w(self, channel: str = "total") -> float:
        return self.sim.sensor.average_power_w(channel)
