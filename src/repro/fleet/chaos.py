"""Seeded fleet chaos: node crashes, hangs, slowdowns, restarts.

A :class:`FleetFaultConfig` is the fleet-level counterpart of
:class:`~repro.faults.config.FaultConfig`: it turns node mortality into
a configurable, exactly reproducible schedule.  Two sources feed the
schedule:

* **rates** — per-node, per-simulated-second hazards for crashes, hangs
  and slowdowns, sampled up front from *per-node, per-kind* RNG streams
  (``Random(f"{seed}:{kind}:{node}")``), so one node's fault history
  never depends on the fleet size, how the nodes are stepped, or
  another node's draws — the determinism argument of
  :mod:`repro.fleet.cluster` extends to chaotic runs unchanged;
* **schedule** — explicit :class:`NodeChaosEvent` entries, the knob
  benchmarks use to pin a crash *wave* (10 % of the fleet at t = 2 s)
  to exact times.

Delivery reuses the machinery that already exists at each layer:

* a **crash** compiles into ``app_crash``
  :class:`~repro.faults.config.LifecycleEvent` entries for both serving
  lanes of the node's own :class:`~repro.sim.engine.Simulation` — the
  engine's PR-3 lifecycle injector halts the lanes, publishes
  ``FaultInjected``/``AppFinished`` on the node bus, and the node's
  MP-HARS reacts exactly as it would to a real abrupt exit.  The
  cluster detects the downed node post-step and handles stranding,
  restart (a rebooted board is a *fresh* simulation, entering
  supervision probation) and eventual eviction when
  ``max_restarts`` is exhausted;
* a **hang** or **slowdown** is a service-velocity episode: for its
  duration every lane's :class:`~repro.fleet.serving.ServerWorkload`
  progresses work at ``factor`` × normal speed (0 for a hang — threads
  blocked, queue frozen, heartbeats silent).  The queue survives, so a
  short hang resumes where it left off; a long one is quarantined and
  evicted by the :class:`~repro.fleet.supervisor.FleetSupervisor`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faults.config import FaultConfig, lane_crash_schedule

#: Node-level fault kinds a chaos schedule can carry.
NODE_FAULT_KINDS = ("node_crash", "node_hang", "node_slowdown")

#: Hazard-rate fields of :class:`FleetFaultConfig`, in draw order.
_RATE_FIELDS = ("node_crash_rate", "node_hang_rate", "node_slowdown_rate")

#: Episode length of rate-driven slowdowns (scheduled events carry their
#: own), in seconds.
SLOWDOWN_DURATION_S = 4.0


@dataclass(frozen=True)
class NodeChaosEvent:
    """One scheduled node fault.

    ``duration_s`` is the episode length for hangs and slowdowns and is
    ignored for crashes (a crashed node stays down until its restart,
    ``restart_delay_s`` later, or forever once ``max_restarts`` is
    spent).  ``factor`` is the service-velocity multiplier of a
    slowdown episode; hangs always run at factor 0.
    """

    kind: str
    node: int
    at_s: float
    duration_s: float = 0.0
    factor: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in NODE_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown node fault kind {self.kind!r}; "
                f"valid: {NODE_FAULT_KINDS}"
            )
        if self.node < 0:
            raise ConfigurationError("node index must be >= 0")
        if self.at_s < 0:
            raise ConfigurationError("event time must be >= 0")
        if self.kind != "node_crash" and self.duration_s <= 0:
            raise ConfigurationError(
                f"{self.kind} needs a positive duration_s"
            )
        if self.kind == "node_slowdown" and not 0.0 < self.factor < 1.0:
            raise ConfigurationError(
                "slowdown factor must be in (0, 1) — use node_hang for a "
                "full stop"
            )

    @property
    def velocity_factor(self) -> float:
        """Service velocity during the episode (hang = 0)."""
        return 0.0 if self.kind == "node_hang" else self.factor


@dataclass(frozen=True)
class FleetFaultConfig:
    """Node mortality model for one fleet run.

    Rates are per-node, per-simulated-second hazards; with every rate
    zero and an empty ``schedule`` the config is *disabled* and the
    cluster must be bit-identical to a run built without a chaos layer.

    Parameters
    ----------
    seed:
        Base seed of the per-node, per-kind RNG streams.
    node_crash_rate / node_hang_rate / node_slowdown_rate:
        Hazards of each episode kind, per node-second.
    hang_duration_s:
        Episode length of rate-driven hangs (scheduled events carry
        their own; rate-driven slowdowns last
        :data:`SLOWDOWN_DURATION_S`).
    slowdown_factor:
        Service-velocity multiplier of rate-driven slowdowns.
    restart_delay_s:
        Downtime between a crash and the node's reboot (fresh
        simulation, supervision probation).
    max_restarts:
        Reboots each node is granted; the crash that exhausts the
        budget evicts the node permanently.
    schedule:
        Explicit :class:`NodeChaosEvent` entries, merged with the
        rate-driven draws (benchmarks pin crash waves here).
    """

    seed: int = 0
    node_crash_rate: float = 0.0
    node_hang_rate: float = 0.0
    node_slowdown_rate: float = 0.0
    hang_duration_s: float = 2.0
    slowdown_factor: float = 0.25
    restart_delay_s: float = 1.0
    max_restarts: int = 2
    schedule: Tuple[NodeChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if rate < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {rate!r}")
        if self.hang_duration_s <= 0:
            raise ConfigurationError("hang_duration_s must be positive")
        if not 0.0 < self.slowdown_factor < 1.0:
            raise ConfigurationError("slowdown_factor must be in (0, 1)")
        if self.restart_delay_s < 0:
            raise ConfigurationError("restart_delay_s must be >= 0")
        if self.max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        for event in self.schedule:
            if not isinstance(event, NodeChaosEvent):
                raise ConfigurationError(
                    "schedule entries must be NodeChaosEvent instances"
                )

    @property
    def enabled(self) -> bool:
        """Whether any node fault can fire at all."""
        return bool(self.schedule) or any(
            getattr(self, name) > 0 for name in _RATE_FIELDS
        )


def compile_timelines(
    config: FleetFaultConfig, nodes: int, horizon_s: float
) -> List[Tuple[NodeChaosEvent, ...]]:
    """Per-node chaos timelines, deterministic in ``config`` alone.

    Each node's rate-driven events are drawn from its own seeded
    streams (one per fault kind) via exponential inter-event gaps, then
    merged with that node's share of the explicit ``schedule`` and
    sorted by time.  Events beyond ``horizon_s`` are dropped — they
    could never fire inside the run.
    """
    if nodes < 1:
        raise ConfigurationError("compile_timelines needs at least one node")
    if horizon_s < 0:
        raise ConfigurationError("horizon must be >= 0")
    per_node: List[List[NodeChaosEvent]] = [[] for _ in range(nodes)]
    for event in config.schedule:
        if event.node >= nodes:
            raise ConfigurationError(
                f"scheduled event targets node {event.node} but the fleet "
                f"has only {nodes} nodes"
            )
        if event.at_s <= horizon_s:
            per_node[event.node].append(event)
    shapes = {
        "node_crash": (config.node_crash_rate, 0.0, 1.0),
        "node_hang": (config.node_hang_rate, config.hang_duration_s, 1.0),
        "node_slowdown": (
            config.node_slowdown_rate,
            SLOWDOWN_DURATION_S,
            config.slowdown_factor,
        ),
    }
    for node in range(nodes):
        for kind in NODE_FAULT_KINDS:
            rate, duration, factor = shapes[kind]
            if rate <= 0:
                continue
            rng = random.Random(f"{config.seed}:{kind}:{node}")
            now = rng.expovariate(rate)
            while now <= horizon_s:
                per_node[node].append(
                    NodeChaosEvent(
                        kind=kind,
                        node=node,
                        at_s=now,
                        duration_s=duration,
                        factor=factor,
                    )
                )
                now += rng.expovariate(rate)
        per_node[node].sort(key=lambda e: (e.at_s, NODE_FAULT_KINDS.index(e.kind)))
    return [tuple(events) for events in per_node]


def crash_fault_config(
    timeline: Sequence[NodeChaosEvent],
    lanes: Sequence[str],
    after_s: float = 0.0,
) -> FaultConfig:
    """The node-simulation fault layer for a chaos timeline.

    Crashes are delivered through the existing lifecycle machinery:
    each ``node_crash`` event becomes one ``app_crash``
    :class:`~repro.faults.config.LifecycleEvent` per serving lane, at
    node-simulation-local time (``at_s - after_s`` — a rebooted node's
    clock restarts at zero).  Returns a disabled config when no crash
    remains, so a crash-free node attaches no fault layer at all.
    """
    times = [
        event.at_s - after_s
        for event in timeline
        if event.kind == "node_crash" and event.at_s > after_s
    ]
    if not times:
        return FaultConfig.disabled()
    return lane_crash_schedule(times, lanes)


def active_velocity_factor(
    timeline: Sequence[NodeChaosEvent], now_s: float
) -> float:
    """Combined service-velocity factor of the episodes covering ``now``.

    Overlapping episodes compound pessimistically (the minimum factor
    wins — a hang inside a slowdown is still a hang).
    """
    factor = 1.0
    for event in timeline:
        if event.kind == "node_crash":
            continue
        if event.at_s <= now_s < event.at_s + event.duration_s:
            factor = min(factor, event.velocity_factor)
    return factor


def crash_wave(
    nodes: int, fraction: float, at_s: float
) -> Tuple[NodeChaosEvent, ...]:
    """A simultaneous crash of ``fraction`` of the fleet at ``at_s``.

    Picks evenly-strided node indices (deterministic in the arguments
    alone) — the 10 %-crash-wave scenario ``bench_fleet_chaos.py`` and
    the CLI's ``--crash-frac`` expose.
    """
    if nodes < 1:
        raise ConfigurationError("crash_wave needs at least one node")
    if not 0 < fraction <= 1:
        raise ConfigurationError("crash fraction must be in (0, 1]")
    if at_s < 0:
        raise ConfigurationError("crash time must be >= 0")
    count = max(1, int(round(nodes * fraction)))
    stride = nodes / count
    picked = sorted({min(nodes - 1, int(i * stride)) for i in range(count)})
    return tuple(
        NodeChaosEvent(kind="node_crash", node=index, at_s=at_s)
        for index in picked
    )


def summarize_timelines(
    timelines: Sequence[Sequence[NodeChaosEvent]],
) -> Dict[str, int]:
    """``kind -> scheduled event count`` over the whole fleet."""
    counts = {kind: 0 for kind in NODE_FAULT_KINDS}
    for timeline in timelines:
        for event in timeline:
            counts[event.kind] += 1
    return counts
