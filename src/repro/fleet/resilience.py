"""Resilience policy for fleet serving: failover, retry, hedge, shed.

A :class:`ResilienceConfig` is the request-lifecycle counterpart of
:class:`~repro.fleet.chaos.FleetFaultConfig`: chaos decides how nodes
fail, resilience decides what the serving tier does about it.  Four
knobs, each independently switchable:

* **failover** — routers only see nodes the
  :class:`~repro.fleet.supervisor.FleetSupervisor` reports routable
  (HEALTHY, falling back to PROBATION, then DEGRADED), and requests
  stranded on a crashed node are re-queued to survivors with their
  original deadlines.  Off, the fleet behaves like PR 7 with faults:
  routers keep feeding dead nodes and stranded requests are lost
  outright — the ablation ``bench_fleet_chaos.py`` measures.
* **per-attempt timeouts + retry** — an attempt that has not completed
  ``attempt_timeout_s`` after dispatch is cancelled and re-dispatched
  with exponential backoff (:data:`RETRY_BACKOFF_S` doubling per
  attempt, capped at :data:`BACKOFF_CAP_S`), up to :data:`MAX_ATTEMPTS`;
  the attempt that exhausts the budget marks the request *timed out*.
* **hedging** — a request whose estimated completion time exceeds
  ``hedge_fraction`` of its deadline budget is duplicated onto the
  best *other* routable node ("Hurry-up"-style tail insurance).  First
  completion wins; the losing attempt is cancelled and counted.
* **admission control** — when averaged per-node queue depth or the
  best base-lane wait exceed configured limits the
  :class:`AdmissionController` browns out (new hot-lane traffic is
  demoted to base) or sheds (new arrivals are refused) until the
  signals fall below :data:`RELEASE_FRACTION` of the trip level — the
  hysteresis that keeps the controller from flapping at the limit.

With every knob at its default (and no chaos layer attached) the
cluster takes its original code paths and stays bit-identical to a run
built without a resilience layer at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

#: Admission-controller states, in escalation order.
ADMISSION_STATES = ("normal", "brownout", "shed")

#: Stall multiples (of ``stall_after_s``) at which a node reaches
#: QUARANTINED / EVICTED; escalation is one state per tick.
QUARANTINE_FACTOR = 2.0
EVICT_FACTOR = 4.0

#: Time a restarted node spends in PROBATION before it counts as HEALTHY
#: again (it is routable during probation only when no HEALTHY node
#: exists).
PROBATION_S = 1.0

#: Total dispatch budget per request (first attempt included).
MAX_ATTEMPTS = 3

#: Exponential backoff between attempts:
#: ``min(BACKOFF_CAP_S, RETRY_BACKOFF_S * 2**(attempt-1))``.
RETRY_BACKOFF_S = 0.05
BACKOFF_CAP_S = 0.4

#: Admission signals must fall below ``RELEASE_FRACTION`` x the trip
#: level before the admission state steps back down (hysteresis).
RELEASE_FRACTION = 0.8


@dataclass(frozen=True)
class ResilienceConfig:
    """Request-lifecycle policy for one fleet run.

    Parameters
    ----------
    failover:
        Route around non-routable nodes and re-queue crash-stranded
        requests to survivors (original deadlines preserved).
    stall_after_s:
        A node with pending requests and no completion for this long
        counts as stalled; the supervisor starts escalating.  A
        restarted node then spends :data:`PROBATION_S` in PROBATION.
    attempt_timeout_s:
        Per-attempt completion deadline measured from dispatch; None
        disables timeouts and retries entirely.  Retries follow
        :func:`backoff_s` up to :data:`MAX_ATTEMPTS` dispatches.
    hedge_fraction:
        Fraction of the deadline budget the estimated completion time
        may consume before the request is hedged to a second node;
        None disables hedging.
    shed_queue_depth / brownout_queue_depth:
        Mean per-routable-node queued requests beyond which arrivals
        are shed / hot-lane arrivals are demoted to base.  None
        disables the respective trigger.
    shed_wait_s:
        Best base-lane estimated wait beyond which arrivals are shed
        (the predicted-tail trigger).  None disables it.  Each trigger
        releases below :data:`RELEASE_FRACTION` of its trip level.
    """

    failover: bool = True

    # -- node health thresholds (FleetSupervisor) ------------------------
    stall_after_s: float = 2.0

    # -- per-attempt timeout + retry -------------------------------------
    attempt_timeout_s: Optional[float] = None

    # -- tail-latency hedging --------------------------------------------
    hedge_fraction: Optional[float] = None

    # -- overload protection (AdmissionController) -----------------------
    shed_queue_depth: Optional[float] = None
    brownout_queue_depth: Optional[float] = None
    shed_wait_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.stall_after_s <= 0:
            raise ConfigurationError("stall_after_s must be positive")
        if self.attempt_timeout_s is not None and self.attempt_timeout_s <= 0:
            raise ConfigurationError("attempt_timeout_s must be positive")
        if self.hedge_fraction is not None and not 0 < self.hedge_fraction <= 1:
            raise ConfigurationError("hedge_fraction must be in (0, 1]")
        for name in ("shed_queue_depth", "brownout_queue_depth", "shed_wait_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be positive")

    # -- enablement queries ----------------------------------------------

    @property
    def retry_enabled(self) -> bool:
        """Whether per-attempt timeouts (and so retries) are active."""
        return self.attempt_timeout_s is not None

    @property
    def hedge_enabled(self) -> bool:
        return self.hedge_fraction is not None

    @property
    def admission_enabled(self) -> bool:
        """Whether any overload trigger is configured."""
        return (
            self.shed_queue_depth is not None
            or self.brownout_queue_depth is not None
            or self.shed_wait_s is not None
        )

    @property
    def tracking_enabled(self) -> bool:
        """Whether the cluster must track per-request attempts."""
        return self.retry_enabled or self.hedge_enabled


def backoff_s(attempt: int) -> float:
    """Delay before dispatching attempt ``attempt + 1``."""
    if attempt < 1:
        raise ConfigurationError("backoff is defined for attempts >= 1")
    return min(BACKOFF_CAP_S, RETRY_BACKOFF_S * 2 ** (attempt - 1))


class AdmissionController:
    """Overload state machine with hysteresis: normal/brownout/shed.

    ``update`` is called once per tick with the fleet's routing-time
    load signals (mean queued requests per routable node, best
    base-lane estimated wait) and returns the admission state applied
    to that tick's *new arrivals* — retries, hedges and crash re-queues
    are never shed, they are already admitted work.
    """

    def __init__(self, config: ResilienceConfig):
        self.config = config
        self.state = "normal"
        #: state -> ticks spent there (telemetry / tests).
        self.ticks = {state: 0 for state in ADMISSION_STATES}

    def update(self, queue_depth: float, best_wait_s: float) -> str:
        c = self.config
        shed_trip = (
            c.shed_queue_depth is not None and queue_depth > c.shed_queue_depth
        ) or (c.shed_wait_s is not None and best_wait_s > c.shed_wait_s)
        shed_clear = (
            c.shed_queue_depth is None
            or queue_depth < c.shed_queue_depth * RELEASE_FRACTION
        ) and (
            c.shed_wait_s is None
            or best_wait_s < c.shed_wait_s * RELEASE_FRACTION
        )
        brown_trip = (
            c.brownout_queue_depth is not None
            and queue_depth > c.brownout_queue_depth
        )
        brown_clear = (
            c.brownout_queue_depth is None
            or queue_depth < c.brownout_queue_depth * RELEASE_FRACTION
        )
        if self.state == "shed":
            if shed_clear:
                self.state = "normal" if brown_clear else "brownout"
        elif shed_trip:
            self.state = "shed"
        elif self.state == "brownout":
            if brown_clear:
                self.state = "normal"
        elif brown_trip:
            self.state = "brownout"
        self.ticks[self.state] += 1
        return self.state
