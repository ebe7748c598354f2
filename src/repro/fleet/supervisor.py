"""Fleet health supervision: PR 3's state machine at node granularity.

The :class:`FleetSupervisor` watches every :class:`~repro.fleet.node.
FleetNode` the way the per-app :class:`~repro.supervision.supervisor.
Supervisor` watches applications, with node-level states::

    HEALTHY ──stall──▶ DEGRADED ──×QUARANTINE_FACTOR──▶ QUARANTINED
       ▲                  │                                  │
       └── completion ────┴────────── completion ────────────┤
                                                             │
     crash ──▶ DOWN ──restart_delay──▶ PROBATION             │
                │                         │    ×EVICT_FACTOR ▼
                └── max_restarts spent ──▶└───────────▶ EVICTED

* A **stall** is a node with pending requests that has not completed
  one for ``stall_after_s`` — the signature of a hang or a deep
  slowdown episode.  Escalation follows the per-app machine's rule,
  :func:`~repro.supervision.supervisor.escalation_rung` (thresholds
  ``stall_after_s × (1, QUARANTINE_FACTOR, EVICT_FACTOR)``, one rung
  per tick); a single completion (or an empty queue) fully recovers the
  node, mirroring the per-app machine's single-late-beat recovery.
* A **crash** (every serving lane halted) takes the node DOWN and
  schedules a reboot :data:`~repro.fleet.chaos.RESTART_DELAY_S` later if
  the restart budget allows, else evicts it permanently.  A rebooted
  node is a *fresh simulation* and serves
  :data:`~repro.fleet.resilience.PROBATION_S` of probation before
  counting as fully healthy again.
* **Routing** prefers HEALTHY nodes, falls back to PROBATION, then
  DEGRADED, and returns nothing when even those are gone (the cluster
  defers arrivals a tick).  QUARANTINED nodes keep stepping — a
  recovering hang can still finish its backlog — but receive no new
  work; DOWN and EVICTED nodes do not step at all.

Every transition lands in a ledger of ``(time, node, from, to,
reason)`` rows, the audit trail the chaos tests and benchmark read.

With ``failover=False`` the supervisor still tracks health (the
eviction bookkeeping and counters stay meaningful) but ``routable``
returns the full node list unchanged — the ablation arm of
``bench_fleet_chaos.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fleet.chaos import RESTART_DELAY_S, FleetFaultConfig
from repro.fleet.node import FleetNode
from repro.fleet.resilience import (
    EVICT_FACTOR,
    PROBATION_S,
    QUARANTINE_FACTOR,
    ResilienceConfig,
)
from repro.supervision.supervisor import escalation_rung

#: Small slop when comparing scheduled times against tick boundaries.
_TIME_EPS = 1e-12


class NodeHealth(enum.Enum):
    """Node-granularity health states."""

    HEALTHY = "healthy"
    PROBATION = "probation"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"
    DOWN = "down"
    EVICTED = "evicted"


#: States a node keeps stepping in (its simulation advances).
STEPPING_STATES = (
    NodeHealth.HEALTHY,
    NodeHealth.PROBATION,
    NodeHealth.DEGRADED,
    NodeHealth.QUARANTINED,
)

#: Routing preference tiers, best first.
_ROUTABLE_TIERS = (
    (NodeHealth.HEALTHY,),
    (NodeHealth.PROBATION,),
    (NodeHealth.DEGRADED,),
)


@dataclass
class NodeRecord:
    """Mutable supervision state of one node."""

    index: int
    health: NodeHealth = NodeHealth.HEALTHY
    #: Cluster time of the last completion (or last idle observation).
    last_progress_s: float = 0.0
    crashes: int = 0
    restarts_used: int = 0
    restart_due_s: Optional[float] = None
    probation_until_s: Optional[float] = None
    #: Current stall-escalation rung (0 = none), advanced one per tick.
    stall_rung: int = 0


class FleetSupervisor:
    """Health bookkeeping + routable-set policy for one fleet run."""

    def __init__(
        self,
        config: ResilienceConfig,
        chaos: Optional[FleetFaultConfig],
        nodes: int,
    ):
        if nodes < 1:
            raise ConfigurationError("FleetSupervisor needs at least one node")
        self.config = config
        self.chaos = chaos
        self.records = [NodeRecord(i) for i in range(nodes)]
        #: (time_s, node, from_state, to_state, reason) audit rows.
        self.ledger: List[Tuple[float, int, str, str, str]] = []
        self.crashes = 0
        self.restarts = 0
        self.evictions = 0

    # -- queries ----------------------------------------------------------

    def health(self, index: int) -> NodeHealth:
        return self.records[index].health

    def is_stepping(self, index: int) -> bool:
        """Whether the node's simulation advances this tick."""
        return self.records[index].health in STEPPING_STATES

    def routable(self, nodes: Sequence[FleetNode]) -> List[FleetNode]:
        """The nodes routers may pick from, best health tier first.

        With failover off this is the unfiltered node list — routers
        keep feeding dead nodes, which is the point of the ablation.
        """
        if not self.config.failover:
            return list(nodes)
        for tier in _ROUTABLE_TIERS:
            picked = [
                node for node in nodes if self.records[node.index].health in tier
            ]
            if picked:
                return picked
        return []

    def counts(self) -> Dict[str, int]:
        """``state value -> node count`` snapshot."""
        out = {state.value: 0 for state in NodeHealth}
        for record in self.records:
            out[record.health.value] += 1
        return out

    # -- tick lifecycle ---------------------------------------------------

    def restarts_due(self, now_s: float) -> List[int]:
        """Nodes whose reboot lands at or before ``now``, id order."""
        return [
            record.index
            for record in self.records
            if record.health is NodeHealth.DOWN
            and record.restart_due_s is not None
            and record.restart_due_s <= now_s + _TIME_EPS
        ]

    def tick(self, now_s: float) -> None:
        """Expire probation periods (call after restarts are applied)."""
        for record in self.records:
            if (
                record.health is NodeHealth.PROBATION
                and record.probation_until_s is not None
                and now_s + _TIME_EPS >= record.probation_until_s
            ):
                self._transition(record, NodeHealth.HEALTHY, now_s, "probation-served")
                record.probation_until_s = None

    def on_crash(self, index: int, now_s: float) -> NodeHealth:
        """A node's lanes all halted: go DOWN (reboot pending) or evict."""
        record = self.records[index]
        record.crashes += 1
        self.crashes += 1
        budget = self.chaos.max_restarts if self.chaos is not None else 0
        if record.restarts_used < budget:
            record.restarts_used += 1
            record.restart_due_s = now_s + RESTART_DELAY_S
            self._transition(record, NodeHealth.DOWN, now_s, "crash")
        else:
            self.evictions += 1
            record.restart_due_s = None
            self._transition(record, NodeHealth.EVICTED, now_s, "crash-budget-spent")
        record.stall_rung = 0
        return record.health

    def on_restarted(self, index: int, now_s: float) -> None:
        """The cluster rebooted the node (fresh simulation): probation."""
        record = self.records[index]
        record.restart_due_s = None
        record.probation_until_s = now_s + PROBATION_S
        record.last_progress_s = now_s
        record.stall_rung = 0
        self.restarts += 1
        self._transition(record, NodeHealth.PROBATION, now_s, "restart")

    def observe(
        self, index: int, now_s: float, progressed: bool, pending: int
    ) -> NodeHealth:
        """Post-step health update from one node's tick outcome.

        ``progressed`` is whether the node completed a request this
        tick.  Returns the node's (possibly escalated) health; the
        cluster strands the pending queue when the return value is
        EVICTED.
        """
        record = self.records[index]
        if record.health in (NodeHealth.DOWN, NodeHealth.EVICTED):
            return record.health
        if progressed or pending == 0:
            record.last_progress_s = now_s
            record.stall_rung = 0
            if record.health in (NodeHealth.DEGRADED, NodeHealth.QUARANTINED):
                self._transition(record, NodeHealth.HEALTHY, now_s, "recovered")
            return record.health
        c = self.config
        rung = escalation_rung(
            now_s - record.last_progress_s,
            c.stall_after_s,
            QUARANTINE_FACTOR,
            EVICT_FACTOR,
            record.stall_rung,
            _TIME_EPS,
        )
        if not rung:
            return record.health
        record.stall_rung = rung
        if rung >= 3 and record.health is NodeHealth.QUARANTINED:
            self.evictions += 1
            self._transition(record, NodeHealth.EVICTED, now_s, "stall-evicted")
        elif rung >= 2 and record.health in (
            NodeHealth.DEGRADED,
            NodeHealth.PROBATION,
        ):
            self._transition(record, NodeHealth.QUARANTINED, now_s, "stall")
        elif record.health in (NodeHealth.HEALTHY, NodeHealth.PROBATION):
            self._transition(record, NodeHealth.DEGRADED, now_s, "stall")
        return record.health

    # -- internals --------------------------------------------------------

    def _transition(
        self, record: NodeRecord, to: NodeHealth, now_s: float, reason: str
    ) -> None:
        if record.health is to:
            return
        self.ledger.append(
            (now_s, record.index, record.health.value, to.value, reason)
        )
        record.health = to
