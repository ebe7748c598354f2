"""Typed kernel event bus.

The engine publishes a small set of typed events; everything else —
runtime managers, governors, the trace recorder, benchmarks — attaches
through subscriptions.  This replaces the hand-rolled
``Controller.on_tick``/``on_heartbeat`` fan-out loops the engine used to
run itself.

Dispatch is deterministic: handlers for an event type run in ascending
``(priority, subscription order)``.  The default priority is 0;
subscribers that must observe the effects of every other handler (the
trace recorder) use a larger priority.  Publishing is reentrant — a
handler may publish further events (a manager applying a state mid
heartbeat publishes ``StateApplied``) — but subscribing while a
dispatch is in flight only takes effect for subsequent events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import SystemState
    from repro.heartbeats.record import Heartbeat
    from repro.sim.process import SimApp


@dataclass(frozen=True)
class Event:
    """Base class of every bus event."""


@dataclass(frozen=True)
class TickStart(Event):
    """A simulation tick is about to execute (controllers adapt here)."""

    time_s: float


@dataclass(frozen=True)
class HeartbeatEmitted(Event):
    """An application emitted a heartbeat during the current tick."""

    app: "SimApp"
    heartbeat: "Heartbeat"


@dataclass(frozen=True)
class StateApplied(Event):
    """An Execute stage applied a system state to an application.

    ``big_cores``/``little_cores`` are the allocation the applying
    manager reports for the app — used cores for single-app HARS,
    owned partition slots for MP-HARS — i.e. exactly what its
    ``current_allocation`` would answer.
    """

    app_name: str
    state: "SystemState"
    big_cores: int
    little_cores: int


@dataclass(frozen=True)
class PowerSample(Event):
    """The ground-truth power model was integrated over one tick."""

    time_s: float
    watts: Mapping[str, float]


@dataclass(frozen=True)
class AppFinished(Event):
    """An application consumed its last work unit this tick."""

    app_name: str
    time_s: float


@dataclass(frozen=True)
class FaultInjected(Event):
    """The fault-injection layer degraded an observation or actuation.

    ``kind`` names the fault channel (``sensor-dropout``,
    ``sensor-noise``, ``sensor-stuck``, ``heartbeat-stall``,
    ``heartbeat-jitter``, ``dvfs``, ``affinity``); ``target`` names what
    was hit (a power rail, an app, a cluster).
    """

    kind: str
    target: str
    time_s: float
    detail: str = ""


@dataclass(frozen=True)
class AppSuspected(Event):
    """The supervisor marked an app suspect (first deadline trip).

    ``kind`` is the suspected failure class (``crashed``, ``hung``,
    ``runaway``); the app keeps its resources while suspect and returns
    to healthy if evidence clears (a heartbeat arrives, the rate drops
    back below the runaway threshold).
    """

    app_name: str
    kind: str
    time_s: float
    detail: str = ""


@dataclass(frozen=True)
class AppQuarantined(Event):
    """The supervisor quarantined an app (evidence persisted).

    Quarantine is still reversible — a recovered app (late heartbeat,
    rate back in range) transitions back to healthy; otherwise the next
    deadline evicts it.
    """

    app_name: str
    kind: str
    time_s: float
    detail: str = ""


@dataclass(frozen=True)
class AppEvicted(Event):
    """The supervisor evicted an app: its resources were reclaimed.

    The app is halted in the engine, its affinity/cpuset is cleared
    through the actuation façade, and the managers repartition so
    survivors absorb the freed cores.
    """

    app_name: str
    kind: str
    time_s: float
    detail: str = ""


@dataclass(frozen=True)
class ControllerRestored(Event):
    """A controller came back from a simulated crash+restart.

    ``warm`` tells whether knowledge was restored from a checkpoint
    (``checkpoint_time_s`` is the snapshot's timestamp) or the
    controller had to re-converge from its cold initial state.
    """

    controller: str
    time_s: float
    warm: bool
    checkpoint_time_s: Optional[float] = None


@dataclass(frozen=True)
class GuardrailTripped(Event):
    """A runtime guardrail engaged a protective action.

    ``guard`` names the tripping guardrail (``budget`` — the power cap
    was exceeded at the sensor and an emergency down-throttle fired;
    ``thermal`` — the modelled thermal state crossed its threshold and
    the effective cap tightened; ``damper`` — A↔B state thrashing was
    detected and the cheaper state is being held; ``watchdog`` — the
    estimator residuals crossed the misprediction threshold and the
    manager degraded to incremental safe mode).  ``app_name`` is ``"*"``
    for run-wide guards (the budget/thermal pair watch the board rail,
    not one app).
    """

    guard: str
    app_name: str
    time_s: float
    detail: str = ""


@dataclass(frozen=True)
class GuardrailReleased(Event):
    """A previously-tripped guardrail disengaged.

    Paired with :class:`GuardrailTripped` by ``guard``/``app_name``:
    power back under the cap, thermal state cooled below threshold, a
    damper hold expired, watchdog residuals recovered.
    """

    guard: str
    app_name: str
    time_s: float
    detail: str = ""


@dataclass(frozen=True)
class PolicySwapped(Event):
    """A controller's search policy was hot-swapped on a live session.

    Published by the adaptation control plane (:mod:`repro.acp`) when a
    ``swap`` request retargets a running manager — the next MAPE cycle
    plans under ``new_policy``, so the swap takes effect within one
    adaptation period.  ``controller`` is the manager's checkpoint id.
    """

    controller: str
    time_s: float
    old_policy: str
    new_policy: str
    detail: str = ""


@dataclass(frozen=True)
class FaultRecovered(Event):
    """A previously-degraded channel produced a good result again.

    Paired with :class:`FaultInjected` by ``kind``/``target``: a retry
    that succeeded, a stalled heartbeat finally delivered, a sensor
    reading clean again after a dropout or stuck episode.
    """

    kind: str
    target: str
    time_s: float
    detail: str = ""


Handler = Callable[[Event], None]

#: Priority for subscribers that must run after every default-priority
#: handler of the same event (e.g. the trace recorder, which needs the
#: allocations managers applied *during* the heartbeat).
LATE = 100


class EventBus:
    """Deterministic publish/subscribe hub for kernel events."""

    def __init__(self) -> None:
        self._handlers: Dict[Type[Event], List[Tuple[int, int, Handler]]] = {}
        self._seq = 0

    def subscribe(
        self,
        event_type: Type[Event],
        handler: Handler,
        priority: int = 0,
    ) -> Handler:
        """Register ``handler`` for events of exactly ``event_type``.

        Returns the handler so callers can keep it for
        :meth:`unsubscribe`.
        """
        entries = self._handlers.setdefault(event_type, [])
        entries.append((priority, self._seq, handler))
        self._seq += 1
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        return handler

    def unsubscribe(self, event_type: Type[Event], handler: Handler) -> None:
        """Remove a previously-registered handler (no-op if absent)."""
        entries = self._handlers.get(event_type, [])
        self._handlers[event_type] = [
            entry for entry in entries if entry[2] is not handler
        ]

    def publish(self, event: Event) -> None:
        """Dispatch ``event`` to its subscribers in priority order."""
        entries = self._handlers.get(type(event))
        if not entries:
            return
        for _, _, handler in tuple(entries):
            handler(event)

    def subscriber_count(self, event_type: Type[Event]) -> int:
        """How many handlers are registered for an event type."""
        return len(self._handlers.get(event_type, ()))
