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

The per-tick queries read state kept by the transitions rather than
scanning every record: :attr:`~FleetSupervisor.stepping` is the mask
the fleet engine steps by, and the DOWN and PROBATION sets are all
that :meth:`~FleetSupervisor.restarts_due` and
:meth:`~FleetSupervisor.tick` visit.  The stall clocks (last progress
and current rung) are arrays over the nodes, so the cluster's
post-step pass resets every node that progressed, or holds nothing, in
one :meth:`~FleetSupervisor.triage` call and runs
:meth:`~FleetSupervisor.observe` only on nodes whose health can
change.

With ``failover=False`` the supervisor still tracks health (the
eviction bookkeeping and counters stay meaningful) but ``routable``
returns the full node list unchanged — the ablation arm of
``bench_fleet_chaos.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

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

#: States in which a completion (or an empty queue) only restarts the
#: stall clock: no transition, so the cluster resets them in bulk.
SETTLED_STATES = (NodeHealth.HEALTHY, NodeHealth.PROBATION)

#: Routing preference tiers, best first.
_ROUTABLE_TIERS = (
    (NodeHealth.HEALTHY,),
    (NodeHealth.PROBATION,),
    (NodeHealth.DEGRADED,),
)


@dataclass
class NodeRecord:
    """Mutable supervision state of one node (its stall clock lives in
    the supervisor's :attr:`~FleetSupervisor.last_progress_s` and
    :attr:`~FleetSupervisor.stall_rung` arrays)."""

    index: int
    health: NodeHealth = NodeHealth.HEALTHY
    crashes: int = 0
    restarts_used: int = 0
    restart_due_s: Optional[float] = None
    probation_until_s: Optional[float] = None


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
        #: Per node, cluster time of the last completion (or last idle
        #: observation), and the current stall-escalation rung (0 =
        #: none), advanced one per tick.
        self.last_progress_s = np.zeros(nodes)
        self.stall_rung = np.zeros(nodes, dtype=np.int64)
        #: Per node, whether its health is in :data:`STEPPING_STATES`
        #: (the fleet engine's stepping mask) and in
        #: :data:`SETTLED_STATES`; both kept by :meth:`_transition`.
        self.stepping = np.ones(nodes, dtype=bool)
        self.settled = np.ones(nodes, dtype=bool)
        #: The nodes DOWN (reboot pending) and in PROBATION.
        self._members: Dict[NodeHealth, Set[int]] = {
            NodeHealth.DOWN: set(),
            NodeHealth.PROBATION: set(),
        }
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
        return bool(self.stepping[index])

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
        records = self.records
        return sorted(
            index
            for index in self._members[NodeHealth.DOWN]
            if records[index].restart_due_s <= now_s + _TIME_EPS
        )

    def tick(self, now_s: float) -> None:
        """Expire probation periods (call after restarts are applied)."""
        for index in sorted(self._members[NodeHealth.PROBATION]):
            record = self.records[index]
            if now_s + _TIME_EPS >= record.probation_until_s:
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
        self.stall_rung[index] = 0
        return record.health

    def on_restarted(self, index: int, now_s: float) -> None:
        """The cluster rebooted the node (fresh simulation): probation."""
        record = self.records[index]
        record.restart_due_s = None
        record.probation_until_s = now_s + PROBATION_S
        self.last_progress_s[index] = now_s
        self.stall_rung[index] = 0
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
            self.last_progress_s[index] = now_s
            self.stall_rung[index] = 0
            if record.health in (NodeHealth.DEGRADED, NodeHealth.QUARANTINED):
                self._transition(record, NodeHealth.HEALTHY, now_s, "recovered")
            return record.health
        c = self.config
        rung = escalation_rung(
            now_s - self.last_progress_s.item(index),
            c.stall_after_s,
            QUARANTINE_FACTOR,
            EVICT_FACTOR,
            self.stall_rung.item(index),
            _TIME_EPS,
        )
        if not rung:
            return record.health
        self.stall_rung[index] = rung
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

    def triage(
        self,
        now_s: float,
        live: np.ndarray,
        progressed: np.ndarray,
        pending: np.ndarray,
    ) -> np.ndarray:
        """:meth:`observe` over the ``live`` mask of nodes, in bulk where
        it can be; returns the mask of nodes ``observe`` must still see.

        A node in :data:`SETTLED_STATES` that progressed or holds
        nothing takes ``observe``'s reset path here.  A stalled node
        still under the first stall threshold is left alone: both
        factors exceed 1, so :func:`escalation_rung` gives it rung 0
        and ``observe`` would change nothing.  The caller passes every
        returned node to ``observe``, in node-id order.
        """
        active = progressed | (pending == 0)
        calm = live & self.settled & active
        self.last_progress_s[calm] = now_s
        self.stall_rung[calm] = 0
        stalled = (now_s - self.last_progress_s) > (
            self.config.stall_after_s + _TIME_EPS
        )
        return live & ~calm & (active | stalled)

    # -- internals --------------------------------------------------------

    def _transition(
        self, record: NodeRecord, to: NodeHealth, now_s: float, reason: str
    ) -> None:
        if record.health is to:
            return
        index = record.index
        self.ledger.append((now_s, index, record.health.value, to.value, reason))
        members = self._members.get(record.health)
        if members is not None:
            members.discard(index)
        members = self._members.get(to)
        if members is not None:
            members.add(index)
        self.stepping[index] = to in STEPPING_STATES
        self.settled[index] = to in SETTLED_STATES
        record.health = to
