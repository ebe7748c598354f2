"""Application lifecycle supervision: deadlines, quarantine, eviction.

The paper's runtime assumes every registered application keeps emitting
heartbeats until it finishes.  Real deployments break that assumption in
three ways, and each one poisons a shared-knowledge controller
differently:

* **crashed** — the app exits abruptly with work units left.  MP-HARS
  already reclaims its partition on ``AppFinished``, but nothing records
  *why* the app went away.
* **hung** — the app stops beating without exiting.  It keeps its cores
  (and its partition) forever while survivors starve; the stale-signal
  guards from PR 2 make the managers *hold*, which is exactly wrong
  here — holding preserves the hung app's allocation.
* **runaway** — the app escapes its pinning and runs far above its
  target maximum, starving siblings while looking "healthy" to its own
  monitor.

The :class:`Supervisor` is a bus-attached controller that watches every
application against a per-app heartbeat deadline derived from its target
(``grace_factor / t.min`` — the paper's targets are rates, so the
minimum rate bounds the longest legitimate beat-to-beat gap) and drives
a quarantine state machine::

    HEALTHY ──deadline──▶ SUSPECT ──×QUARANTINE_FACTOR──▶ QUARANTINED
       ▲                     │                                │
       └──── heartbeat ──────┴──────── heartbeat ─────────────┤
                                                              │
                                              ×EVICT_FACTOR   ▼
                                                           EVICTED

Escalation is one level per tick; a single late beat fully recovers a
suspect or quarantined app (transient dips during adaptation are
normal).  Only **eviction** takes resource actions — suspicion and
quarantine publish events and write the ledger, nothing else — so a
false suspicion can never perturb a healthy run.

On eviction the supervisor reclaims the app's cores through the same
actuation façade the managers use (cpuset cleared, affinities unpinned),
halts the app in the engine, and asks every controller that exposes
``unregister_app`` to drop it and repartition — for MP-HARS that forces
an immediate Algorithm 4 pass on the survivors' next beats instead of
waiting out the adaptation period.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.heartbeats.record import Heartbeat
from repro.kernel.bus import (
    AppEvicted,
    AppFinished,
    AppQuarantined,
    AppSuspected,
    HeartbeatEmitted,
    TickStart,
)
from repro.supervision.checkpoint import CheckpointedController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp


class AppHealth(enum.Enum):
    """Quarantine state machine states."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    EVICTED = "evicted"
    DONE = "done"


class FailureKind(enum.Enum):
    """Failure classification driving an escalation."""

    CRASHED = "crashed"
    HUNG = "hung"
    RUNAWAY = "runaway"


#: Before the first beat (serial input phases emit none), the deadline
#: is measured from run start and scaled by this factor.
STARTUP_GRACE_FACTOR = 8.0
#: A beat counts toward a runaway streak when the windowed rate exceeds
#: ``RUNAWAY_MARGIN × t.max``.
RUNAWAY_MARGIN = 1.5
#: Consecutive over-limit beats before suspicion; quarantine and
#: eviction follow at 2× and 3× the streak.
RUNAWAY_BEATS = 6
#: SUSPECT → QUARANTINED at ``deadline × QUARANTINE_FACTOR``.
QUARANTINE_FACTOR = 2.0
#: QUARANTINED → EVICTED at ``deadline × EVICT_FACTOR``.
EVICT_FACTOR = 3.0


@dataclass(frozen=True)
class SupervisorConfig:
    """Deadlines and escalation thresholds.

    ``grace_factor`` sets the base heartbeat deadline per app:
    ``grace_factor / t.min`` seconds.  The default is deliberately
    generous — a HARS manager probing its minimum state can legitimately
    stretch beat gaps to many multiples of the target period, and a
    false *eviction* must never happen in a healthy run.  Tests and
    benchmarks that inject true hangs pass a tighter factor to measure
    reclamation latency.
    """

    #: Heartbeat deadline = ``grace_factor / target.min_rate`` seconds.
    grace_factor: float = 16.0

    def __post_init__(self) -> None:
        if self.grace_factor <= 0:
            raise ConfigurationError("grace_factor must be positive")

    def deadline_s(self, min_rate: float) -> float:
        """Base heartbeat deadline for a target minimum rate."""
        if min_rate <= 0:
            raise ConfigurationError("target minimum rate must be positive")
        return self.grace_factor / min_rate


def escalation_rung(
    elapsed_s: float,
    base_s: float,
    quarantine_factor: float,
    evict_factor: float,
    previous: int,
    slack_s: float = 0.0,
) -> int:
    """The health-ladder rung (0 none, 1 suspect, 2 quarantine, 3 evict)
    for ``elapsed_s`` without progress.

    Rung *k* is reached strictly past ``base_s × (1, quarantine_factor,
    evict_factor)[k-1] + slack_s``, and a ladder climbs at most one
    rung per call above ``previous``, so a long stall cannot jump
    straight to eviction without publishing the intermediate rungs.
    Both the per-app :class:`Supervisor` and the serving fleet's
    :class:`~repro.fleet.supervisor.FleetSupervisor` escalate by it.
    """
    if elapsed_s > base_s * evict_factor + slack_s:
        rung = 3
    elif elapsed_s > base_s * quarantine_factor + slack_s:
        rung = 2
    elif elapsed_s > base_s + slack_s:
        rung = 1
    else:
        rung = 0
    return min(rung, previous + 1)


@dataclass
class QuarantineRecord:
    """One application's lifecycle history, as the ledger keeps it."""

    app_name: str
    status: AppHealth = AppHealth.HEALTHY
    failure: Optional[FailureKind] = None
    recoveries: int = 0
    suspected_at: Optional[float] = None
    quarantined_at: Optional[float] = None
    evicted_at: Optional[float] = None
    #: ``(time_s, new_status, detail)`` in occurrence order.
    transitions: List[Tuple[float, str, str]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "app_name": self.app_name,
            "status": self.status.value,
            "failure": self.failure.value if self.failure else None,
            "recoveries": self.recoveries,
            "suspected_at": self.suspected_at,
            "quarantined_at": self.quarantined_at,
            "evicted_at": self.evicted_at,
            "transitions": [list(t) for t in self.transitions],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QuarantineRecord":
        try:
            return cls(
                app_name=data["app_name"],
                status=AppHealth(data["status"]),
                failure=(
                    FailureKind(data["failure"]) if data["failure"] else None
                ),
                recoveries=int(data["recoveries"]),
                suspected_at=data["suspected_at"],
                quarantined_at=data["quarantined_at"],
                evicted_at=data["evicted_at"],
                transitions=[
                    (float(t[0]), str(t[1]), str(t[2]))
                    for t in data["transitions"]
                ],
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed quarantine record: {exc}"
            ) from None


class QuarantineLedger:
    """Per-application lifecycle records, in registration order.

    The ledger is the supervision subsystem's audit trail — *what*
    happened to each app, *when* each transition fired, and whether the
    app recovered — and is part of the supervisor's checkpoint so a
    restarted controller stack does not re-evict or forget evictions.
    """

    def __init__(self) -> None:
        self._records: Dict[str, QuarantineRecord] = {}

    def ensure(self, app_name: str) -> QuarantineRecord:
        record = self._records.get(app_name)
        if record is None:
            record = QuarantineRecord(app_name=app_name)
            self._records[app_name] = record
        return record

    def record(self, app_name: str) -> QuarantineRecord:
        try:
            return self._records[app_name]
        except KeyError:
            raise ConfigurationError(
                f"no ledger record for app {app_name!r}"
            ) from None

    def transition(
        self,
        app_name: str,
        time_s: float,
        status: AppHealth,
        failure: Optional[FailureKind] = None,
        detail: str = "",
    ) -> QuarantineRecord:
        record = self.ensure(app_name)
        previous = record.status
        record.status = status
        if failure is not None:
            record.failure = failure
        if status is AppHealth.SUSPECT:
            record.suspected_at = time_s
        elif status is AppHealth.QUARANTINED:
            record.quarantined_at = time_s
        elif status is AppHealth.EVICTED:
            record.evicted_at = time_s
        elif status is AppHealth.HEALTHY and previous in (
            AppHealth.SUSPECT,
            AppHealth.QUARANTINED,
        ):
            record.recoveries += 1
            record.failure = None
        record.transitions.append((time_s, status.value, detail))
        return record

    @property
    def app_names(self) -> Tuple[str, ...]:
        return tuple(self._records)

    def status_of(self, app_name: str) -> AppHealth:
        return self.record(app_name).status

    def evicted(self) -> Tuple[str, ...]:
        """Names of evicted apps, in eviction order."""
        return tuple(
            sorted(
                (n for n, r in self._records.items()
                 if r.status is AppHealth.EVICTED),
                key=lambda n: self._records[n].evicted_at or 0.0,
            )
        )

    def rows(self) -> List[Dict[str, Any]]:
        """One summary dict per app — what benchmarks and docs print."""
        return [record.as_dict() for record in self._records.values()]

    def as_dict(self) -> Dict[str, Any]:
        return {name: r.as_dict() for name, r in self._records.items()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QuarantineLedger":
        ledger = cls()
        if not isinstance(data, dict):
            raise ConfigurationError("quarantine ledger must be a dict")
        for name, record in data.items():
            ledger._records[name] = QuarantineRecord.from_dict(record)
        return ledger


@dataclass
class _WatchEntry:
    """Supervisor-internal per-app watch state."""

    app: "SimApp"
    deadline_s: float
    started_at: float
    runaway_streak: int = 0
    #: Age level already escalated to this tick-driven rung (0 = none,
    #: 1 = suspect, 2 = quarantine, 3 = evict) — one level per tick.
    rung: int = 0


class Supervisor(CheckpointedController):
    """Watches every app's heartbeat stream and drives quarantine.

    Attach it after the runtime managers; it is a pure observer until an
    app actually fails, so a supervised healthy run is bit-identical to
    an unsupervised one.
    """

    def __init__(self, config: Optional[SupervisorConfig] = None):
        self.config = config or SupervisorConfig()
        self.ledger = QuarantineLedger()
        self._watch: Dict[str, _WatchEntry] = {}
        #: Eviction count (cheap invariant hook for identity tests).
        self.evictions = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, sim: "Simulation") -> None:
        sim.bus.subscribe(TickStart, lambda event: self._on_tick(sim, event))
        sim.bus.subscribe(
            HeartbeatEmitted,
            lambda event: self._on_beat(sim, event.app, event.heartbeat),
        )
        sim.bus.subscribe(
            AppFinished, lambda event: self._on_finished(sim, event)
        )

    def on_start(self, sim: "Simulation") -> None:
        now = sim.clock.now_s
        for app in sim.apps:
            self._watch[app.name] = _WatchEntry(
                app=app,
                deadline_s=self.config.deadline_s(app.target.min_rate),
                started_at=now,
            )
            self.ledger.ensure(app.name)

    # -- deadline watching -------------------------------------------------

    def _on_tick(self, sim: "Simulation", event: TickStart) -> None:
        now = event.time_s
        for name, entry in self._watch.items():
            status = self.ledger.record(name).status
            if status in (AppHealth.EVICTED, AppHealth.DONE):
                continue
            age = entry.app.monitor.last_beat_age_s(now)
            if age is None:
                # No beat yet: serial input phases are silent by design,
                # so the pre-first-beat deadline is stretched.
                age = now - entry.started_at
                deadline = entry.deadline_s * STARTUP_GRACE_FACTOR
            else:
                deadline = entry.deadline_s
            rung = entry.rung = escalation_rung(
                age,
                deadline,
                QUARANTINE_FACTOR,
                EVICT_FACTOR,
                entry.rung,
            )
            if rung >= 1 and status is AppHealth.HEALTHY:
                self._suspect(
                    sim, entry, FailureKind.HUNG, now,
                    f"no heartbeat for {age:.3f}s (deadline {deadline:.3f}s)",
                )
            elif rung >= 2 and status is AppHealth.SUSPECT:
                self._quarantine(
                    sim, entry, FailureKind.HUNG, now,
                    f"still silent after {age:.3f}s",
                )
            elif rung >= 3 and status is AppHealth.QUARANTINED:
                self._evict(
                    sim, entry, FailureKind.HUNG, now,
                    f"hung: silent for {age:.3f}s "
                    f"(evict threshold "
                    f"{deadline * EVICT_FACTOR:.3f}s)",
                )

    # -- heartbeat side: recovery + runaway detection ----------------------

    def _on_beat(
        self, sim: "Simulation", app: "SimApp", heartbeat: Heartbeat
    ) -> None:
        entry = self._watch.get(app.name)
        if entry is None:
            return
        record = self.ledger.record(app.name)
        if record.status in (AppHealth.EVICTED, AppHealth.DONE):
            return
        now = heartbeat.time_s
        if record.status is not AppHealth.HEALTHY and (
            record.failure is FailureKind.HUNG
        ):
            # A beat arrived after all: transient stall, not a hang.
            entry.rung = 0
            self.ledger.transition(
                app.name, now, AppHealth.HEALTHY,
                detail="heartbeat resumed",
            )
        elif record.status is AppHealth.HEALTHY:
            entry.rung = 0

        rate = app.monitor.current_rate()
        limit = RUNAWAY_MARGIN * app.target.max_rate
        if rate is not None and rate > limit:
            entry.runaway_streak += 1
            self._check_runaway(sim, entry, record, rate, now)
        else:
            if entry.runaway_streak and record.status in (
                AppHealth.SUSPECT,
                AppHealth.QUARANTINED,
            ) and record.failure is FailureKind.RUNAWAY:
                self.ledger.transition(
                    app.name, now, AppHealth.HEALTHY,
                    detail="rate back under the runaway limit",
                )
            entry.runaway_streak = 0

    def _check_runaway(
        self,
        sim: "Simulation",
        entry: _WatchEntry,
        record: QuarantineRecord,
        rate: float,
        now: float,
    ) -> None:
        # Only escalate a runaway when some sibling is starving (below
        # its own ``t.min`` or past its own deadline): an app
        # over-performing alone on an idle machine harms nobody.
        if not self._sibling_starving(entry.app.name, now):
            return
        beats = RUNAWAY_BEATS
        detail = (
            f"rate {rate:.1f}/s > "
            f"{RUNAWAY_MARGIN:.2f}×t.max "
            f"for {entry.runaway_streak} beats"
        )
        if (
            entry.runaway_streak >= 3 * beats
            and record.status is AppHealth.QUARANTINED
        ):
            self._evict(sim, entry, FailureKind.RUNAWAY, now, detail)
        elif (
            entry.runaway_streak >= 2 * beats
            and record.status is AppHealth.SUSPECT
        ):
            self._quarantine(sim, entry, FailureKind.RUNAWAY, now, detail)
        elif (
            entry.runaway_streak >= beats
            and record.status is AppHealth.HEALTHY
        ):
            self._suspect(sim, entry, FailureKind.RUNAWAY, now, detail)

    def _sibling_starving(self, name: str, now: float) -> bool:
        for other_name, other in self._watch.items():
            if other_name == name:
                continue
            if self.ledger.record(other_name).status in (
                AppHealth.EVICTED,
                AppHealth.DONE,
            ):
                continue
            rate = other.app.monitor.current_rate()
            if rate is not None and rate < other.app.target.min_rate:
                return True
            age = other.app.monitor.last_beat_age_s(now)
            if age is not None and age > other.deadline_s:
                return True
        return False

    # -- exit classification -----------------------------------------------

    def _on_finished(self, sim: "Simulation", event: AppFinished) -> None:
        entry = self._watch.get(event.app_name)
        if entry is None:
            return
        record = self.ledger.record(event.app_name)
        if record.status in (AppHealth.EVICTED, AppHealth.DONE):
            return
        if entry.app.is_done():
            self.ledger.transition(
                event.app_name, event.time_s, AppHealth.DONE,
                detail="completed all work units",
            )
            return
        # AppFinished with work units left = abrupt exit: classify as a
        # crash and run the whole escalation immediately — there is no
        # ambiguity a grace period could resolve.
        detail = "exited with work units left"
        self._suspect(sim, entry, FailureKind.CRASHED, event.time_s, detail)
        self._quarantine(sim, entry, FailureKind.CRASHED, event.time_s, detail)
        self._evict(sim, entry, FailureKind.CRASHED, event.time_s, detail)

    # -- escalation actions ------------------------------------------------

    def _suspect(
        self,
        sim: "Simulation",
        entry: _WatchEntry,
        kind: FailureKind,
        now: float,
        detail: str,
    ) -> None:
        self.ledger.transition(
            entry.app.name, now, AppHealth.SUSPECT, kind, detail
        )
        sim.bus.publish(
            AppSuspected(
                app_name=entry.app.name,
                kind=kind.value,
                time_s=now,
                detail=detail,
            )
        )

    def _quarantine(
        self,
        sim: "Simulation",
        entry: _WatchEntry,
        kind: FailureKind,
        now: float,
        detail: str,
    ) -> None:
        self.ledger.transition(
            entry.app.name, now, AppHealth.QUARANTINED, kind, detail
        )
        sim.bus.publish(
            AppQuarantined(
                app_name=entry.app.name,
                kind=kind.value,
                time_s=now,
                detail=detail,
            )
        )

    def _evict(
        self,
        sim: "Simulation",
        entry: _WatchEntry,
        kind: FailureKind,
        now: float,
        detail: str,
    ) -> None:
        name = entry.app.name
        self.ledger.transition(name, now, AppHealth.EVICTED, kind, detail)
        self.evictions += 1
        sim.bus.publish(
            AppEvicted(app_name=name, kind=kind.value, time_s=now,
                       detail=detail)
        )
        # Reclaim resources through the same façade the managers use, so
        # actuation fault modelling applies here too.
        sim.actuator.set_cpuset(entry.app, None)
        sim.actuator.clear_affinities(entry.app)
        sim.retire_app(name)
        for controller in sim.controllers:
            unregister = getattr(controller, "unregister_app", None)
            if unregister is not None:
                unregister(sim, name)

    # -- checkpoint hooks --------------------------------------------------

    @property
    def checkpoint_id(self) -> str:
        return "supervisor"

    def checkpoint(self, now_s: float) -> Dict[str, Any]:
        """Snapshot the ledger (the supervisor's durable knowledge)."""
        from repro.experiments.serialize import checkpoint_payload

        return checkpoint_payload(
            self.checkpoint_id,
            now_s,
            {
                "controller": "Supervisor",
                "ledger": self.ledger.as_dict(),
                "evictions": self.evictions,
            },
        )

    def restore_checkpoint(
        self, sim: "Simulation", payload: Dict[str, Any]
    ) -> None:
        from repro.experiments.serialize import validate_checkpoint

        body = validate_checkpoint(payload)
        try:
            ledger = QuarantineLedger.from_dict(body["ledger"])
            evictions = int(body["evictions"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed supervisor checkpoint: {exc}"
            ) from None
        self.ledger = ledger
        self.evictions = evictions
        for name, entry in self._watch.items():
            self.ledger.ensure(name)
            if self.ledger.record(name).status not in (
                AppHealth.EVICTED,
                AppHealth.DONE,
            ):
                entry.rung = 0
                entry.runaway_streak = 0

    def _forget_volatile(self, sim: "Simulation") -> None:
        """What dies with the supervisor: the ledger and the watch,
        rebuilt from what the engine still knows (halted and finished
        apps)."""
        now = sim.clock.now_s
        self.ledger = QuarantineLedger()
        self.evictions = 0
        self._watch.clear()
        for app in sim.apps:
            self._watch[app.name] = _WatchEntry(
                app=app,
                deadline_s=self.config.deadline_s(app.target.min_rate),
                started_at=now,
            )
            record = self.ledger.ensure(app.name)
            if app.halted:
                # The engine remembers the halt even if we lost the
                # ledger: never resurrect a halted app.
                record.status = AppHealth.EVICTED
            elif app.is_done():
                record.status = AppHealth.DONE
