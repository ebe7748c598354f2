"""The guardrail layer: budget enforcement, damping, and the watchdog.

One bus-attached :class:`GuardrailLayer` serves a whole run, the same
way one supervisor or one telemetry hub does.  It installs itself as
the ``guard`` hook on every MAPE loop (mirroring how the telemetry hub
installs :class:`~repro.telemetry.hub.MapeTelemetry`) and wires three
protections through the existing seams:

* the **BudgetEnforcer** composes a power-cap veto into the Algorithm 2
  sweep (``guard_filter`` — rejections show up as the search's
  ``filtered`` counter), and rides the per-tick
  :class:`~repro.kernel.bus.PowerSample` stream for the post-actuation
  check: a sensor reading above the cap fires an emergency
  down-throttle through the actuation façade and tightens the filter
  margin, so repeat offenders are vetoed earlier the next time.  An
  optional first-order :class:`~repro.guardrails.thermal.ThermalModel`
  tightens the effective cap while the modelled package is hot.
  In multi-app runs the cap is split into per-app *shares*; an app
  that finishes, is quarantined, or is evicted releases its share back
  to the survivors immediately (the recomputation happens inside the
  bus dispatch, so the next planned cycle already sees it).
* the **OscillationDamper** filters every planned state through a
  per-app sliding window and replaces A↔B thrash with a hysteresis
  hold of the cheaper state.
* the **MispredictionWatchdog** pairs each executed plan's estimates
  with the next boundary observation and, past its residual threshold,
  narrows the search to incremental HARS-I moves until the models earn
  trust back.

Every engagement and disengagement is announced on the kernel bus as
:class:`~repro.kernel.bus.GuardrailTripped` /
:class:`~repro.kernel.bus.GuardrailReleased`.  The layer is
a :class:`~repro.supervision.checkpoint.CheckpointedController`, so
the supervision :class:`~repro.supervision.checkpoint.Checkpointer`
snapshots it like any manager and it restarts through the same
protocol.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.core.policy import HARS_I
from repro.core.state import SystemState
from repro.errors import ConfigurationError, EstimationError
from repro.guardrails.config import (
    AMBIENT_C,
    DAMPER_FLIPS,
    FILTER_MARGIN,
    MIN_MARGIN,
    RELEASE_FRACTION,
    THERMAL_C_PER_W,
    THERMAL_CAP_FACTOR,
    THERMAL_RELEASE_C,
    THERMAL_TAU_S,
    THERMAL_THROTTLE_C,
    TRIP_MARGIN_DECAY,
    WATCHDOG_RECOVER,
    WATCHDOG_TRIP,
    GuardrailConfig,
)
from repro.guardrails.damper import OscillationDamper
from repro.guardrails.thermal import ThermalModel
from repro.guardrails.watchdog import MispredictionWatchdog
from repro.kernel.bus import (
    AppEvicted,
    AppFinished,
    AppQuarantined,
    GuardrailReleased,
    GuardrailTripped,
    PowerSample,
)
from repro.kernel.mape import (
    CycleContext,
    Knowledge,
    MapeManager,
    Observation,
    PlanResult,
)
from repro.supervision.checkpoint import CheckpointedController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policy import SearchSpace
    from repro.sim.engine import Simulation
    from repro.sim.process import SimApp

#: Tolerance on the sensor-vs-cap comparison: a reading a few ulps over
#: the cap is measurement rounding, not a violation.
_CAP_EPS = 1e-9


class BudgetEnforcer:
    """Power-cap bookkeeping: shares, margin, thermal state, throttle."""

    def __init__(self, config: GuardrailConfig):
        self.cap_w = config.power_cap_w
        #: Adaptive guard-filter margin; decays per budget trip.
        self.margin = FILTER_MARGIN
        #: The platform's constant board-rail draw (set at ``on_start``).
        #: The sensor cap is *total*-basis; the estimator covers the two
        #: clusters only, so the veto subtracts the board constant.
        self.board_power_w = 0.0
        self.thermal: Optional[ThermalModel] = (
            ThermalModel(
                ambient_c=AMBIENT_C,
                tau_s=THERMAL_TAU_S,
                c_per_w=THERMAL_C_PER_W,
                throttle_c=THERMAL_THROTTLE_C,
                release_c=THERMAL_RELEASE_C,
            )
            if config.thermal_enabled
            else None
        )
        self._explicit = config.explicit_caps()
        self._live: Set[str] = set()
        #: ``app -> watts`` share of the cap, ``None`` for uncapped.
        self.shares: Dict[str, Optional[float]] = {}
        #: ``(time_s, {app: share_w})`` per recomputation — the audit
        #: trail the guardrail↔supervision tests read.
        self.share_events: List[Tuple[float, Dict[str, float]]] = []
        #: Whether the emergency throttle is currently engaged.
        self.throttling = False
        #: Budget trips (sensor reading above the effective cap).
        self.trips = 0
        #: Thermal-regime entries (modelled temperature over threshold).
        self.thermal_trips = 0
        #: Ticks whose sensor reading violated the effective cap.
        self.violation_ticks = 0
        #: Longest contiguous violation streak, in simulated seconds —
        #: the acceptance metric (must stay under one MAPE period).
        self.max_violation_streak_s = 0.0
        #: Total simulated time spent with the throttle engaged.
        self.throttled_s = 0.0
        self._streak_s = 0.0
        self._throttle_start: Optional[float] = None

    # -- shares ------------------------------------------------------------

    def set_live(self, app_names: List[str], now_s: float) -> None:
        self._live = set(app_names)
        self._recompute(now_s)

    def release(self, app_name: str, now_s: float) -> bool:
        """Drop an app's share; returns whether anything changed."""
        if app_name not in self._live:
            return False
        self._live.discard(app_name)
        self._recompute(now_s)
        return True

    def admit(self, app_name: str, now_s: float) -> bool:
        """(Re-)admit an app (quarantine recovered); returns if changed."""
        if app_name in self._live:
            return False
        self._live.add(app_name)
        self._recompute(now_s)
        return True

    def _recompute(self, now_s: float) -> None:
        live = sorted(self._live)
        shares: Dict[str, Optional[float]] = {}
        implicit = [name for name in live if name not in self._explicit]
        for name in live:
            if name in self._explicit:
                shares[name] = self._explicit[name]
        if self.cap_w is not None and implicit:
            remaining = (
                self.cap_w
                - self.board_power_w
                - sum(
                    self._explicit[name]
                    for name in live
                    if name in self._explicit
                )
            )
            each = max(remaining, 0.0) / len(implicit)
            for name in implicit:
                shares[name] = each if each > 0 else None
        else:
            for name in implicit:
                shares[name] = None
        self.shares = shares
        self.share_events.append(
            (
                now_s,
                {
                    name: share
                    for name, share in shares.items()
                    if share is not None
                },
            )
        )

    def run_cap_w(self) -> Optional[float]:
        """The run-wide cap the sensor check enforces (total basis).

        Per-app caps are cluster-basis (an app's attributable draw), so
        summing them for the run-wide check adds the board constant back.
        """
        if self.cap_w is not None:
            return self.cap_w
        if self._live and all(name in self._explicit for name in self._live):
            return (
                sum(self._explicit[name] for name in self._live)
                + self.board_power_w
            )
        return None

    def _thermal_factor(self) -> float:
        if self.thermal is not None and self.thermal.hot:
            return THERMAL_CAP_FACTOR
        return 1.0

    def effective_cap_w(self) -> Optional[float]:
        """The run cap after thermal tightening (the sensor threshold)."""
        cap = self.run_cap_w()
        if cap is None:
            return None
        return cap * self._thermal_factor()

    def veto_cap_w(self, app_name: str) -> Optional[float]:
        """The estimated-power bound the guard filter enforces for an app."""
        share = self.shares.get(app_name)
        if share is None:
            return None
        return share * self.margin * self._thermal_factor()

    # -- post-actuation check ----------------------------------------------

    def observe(
        self, dt_s: float, total_w: float, time_s: float
    ) -> Tuple[List[Tuple[str, str, str]], bool]:
        """Account one tick's sensor reading.

        Returns ``(transitions, violating)``: transitions are
        ``(guard, "trip"|"release", detail)`` tuples for the layer to
        publish; ``violating`` asks for the emergency down-throttle to
        be (re-)asserted this tick.
        """
        transitions: List[Tuple[str, str, str]] = []
        if self.thermal is not None:
            change = self.thermal.update(dt_s, total_w)
            if change == "trip":
                self.thermal_trips += 1
                transitions.append(
                    (
                        "thermal",
                        "trip",
                        f"{self.thermal.temp_c:.1f}C >= "
                        f"{self.thermal.throttle_c:.1f}C",
                    )
                )
            elif change == "release":
                transitions.append(
                    ("thermal", "release", f"{self.thermal.temp_c:.1f}C")
                )
        cap = self.effective_cap_w()
        if cap is None:
            return transitions, False
        violating = total_w > cap + _CAP_EPS
        if violating:
            self.violation_ticks += 1
            self._streak_s += dt_s
            if self._streak_s > self.max_violation_streak_s:
                self.max_violation_streak_s = self._streak_s
            if not self.throttling:
                self.throttling = True
                self.trips += 1
                self.margin = max(MIN_MARGIN, self.margin * TRIP_MARGIN_DECAY)
                self._throttle_start = time_s
                transitions.append(
                    (
                        "budget",
                        "trip",
                        f"{total_w:.3f}W > cap {cap:.3f}W",
                    )
                )
        else:
            self._streak_s = 0.0
            if self.throttling and total_w <= cap * RELEASE_FRACTION:
                self.throttling = False
                if self._throttle_start is not None:
                    self.throttled_s += time_s - self._throttle_start
                    self._throttle_start = None
                transitions.append(
                    ("budget", "release", f"{total_w:.3f}W <= cap {cap:.3f}W")
                )
        return transitions, violating

    # -- checkpoint plumbing ----------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "margin": self.margin,
            "throttling": self.throttling,
            "trips": self.trips,
            "thermal_trips": self.thermal_trips,
            "violation_ticks": self.violation_ticks,
            "max_violation_streak_s": self.max_violation_streak_s,
            "throttled_s": self.throttled_s,
            "live": sorted(self._live),
            "thermal": (
                {
                    "temp_c": self.thermal.temp_c,
                    "hot": self.thermal.hot,
                    "peak_c": self.thermal.peak_c,
                }
                if self.thermal is not None
                else None
            ),
        }

    def restore(self, body: Dict[str, Any], now_s: float) -> None:
        self.margin = float(body.get("margin", FILTER_MARGIN))
        self.throttling = bool(body.get("throttling", False))
        self.trips = int(body.get("trips", 0))
        self.thermal_trips = int(body.get("thermal_trips", 0))
        self.violation_ticks = int(body.get("violation_ticks", 0))
        self.max_violation_streak_s = float(
            body.get("max_violation_streak_s", 0.0)
        )
        self.throttled_s = float(body.get("throttled_s", 0.0))
        self._throttle_start = now_s if self.throttling else None
        self._streak_s = 0.0
        live = body.get("live")
        if live is not None:
            self.set_live([str(name) for name in live], now_s)
        thermal = body.get("thermal")
        if self.thermal is not None and thermal is not None:
            self.thermal.restore(
                thermal.get("temp_c", self.thermal.ambient_c),
                thermal.get("hot", False),
                thermal.get("peak_c", self.thermal.ambient_c),
            )

    def reset(self, now_s: float, live: List[str]) -> None:
        """Cold start: margin, thermal, and throttle state are volatile."""
        self.margin = FILTER_MARGIN
        self.throttling = False
        self._throttle_start = None
        self._streak_s = 0.0
        if self.thermal is not None:
            self.thermal.reset()
        self.set_live(live, now_s)


class BudgetVeto:
    """Plan-stage guard filter for the power-budget cap.

    Callable with ``(candidate, current)`` for the scalar sweep and
    mask-capable (``box_mask``) for the vector planner; both admit a
    candidate when its estimate is unavailable (the sweep counts the
    failure), when it fits under the cap, or when it is a strictly
    downhill move from a current state that is itself over budget —
    vetoing the whole neighbourhood there would force the search to
    *hold* the hot state instead of descending toward the cap region.
    """

    __slots__ = ("estimation", "n_threads", "cap_w", "current_power")

    def __init__(
        self,
        estimation,
        n_threads: int,
        cap_w: float,
        current_power: Optional[float],
    ):
        self.estimation = estimation
        self.n_threads = n_threads
        self.cap_w = cap_w
        self.current_power = current_power

    def __call__(self, candidate: SystemState, current: SystemState) -> bool:
        # The estimation layer memoizes, so the sweep's own
        # evaluate_state re-uses these lookups.
        try:
            estimate = self.estimation.perf.estimate(
                candidate, self.n_threads
            )
            power = self.estimation.power.estimate(candidate, estimate)
        except EstimationError:
            # Let the sweep count it as an estimation failure.
            return True
        if power <= self.cap_w:
            return True
        return self.current_power is not None and power < self.current_power

    def box_mask(self, box):
        """Vectorized equivalent over a candidate box (same semantics).

        ``box.power`` is NaN exactly where the scalar calls would raise,
        and NaN compares False — the ``~box.valid`` term admits those.
        """
        allowed = (~box.valid) | (box.power <= self.cap_w)
        if self.current_power is not None:
            allowed = allowed | (box.power < self.current_power)
        return allowed


class GuardrailLayer(CheckpointedController):
    """Bus-attached runtime guardrails for one simulation run."""

    def __init__(self, config: GuardrailConfig):
        if not config.enabled:
            raise ConfigurationError(
                "GuardrailLayer needs at least one guardrail enabled; "
                "with the default config attach no layer at all "
                "(the bit-identity contract)"
            )
        self.config = config
        self.enforcer: Optional[BudgetEnforcer] = (
            BudgetEnforcer(config) if config.budget_enabled else None
        )
        self.damper: Optional[OscillationDamper] = (
            OscillationDamper(
                window=config.damper_window,
                flips=DAMPER_FLIPS,
                hold_periods=config.damper_hold_periods,
                states=config.damper_states,
            )
            if config.damper_enabled
            else None
        )
        self.watchdog: Optional[MispredictionWatchdog] = (
            MispredictionWatchdog(
                window=config.watchdog_window,
                trip_threshold=WATCHDOG_TRIP,
                recover_threshold=WATCHDOG_RECOVER,
            )
            if config.watchdog_enabled
            else None
        )
        #: Emergency down-throttles asserted through the actuation façade.
        self.emergency_throttles = 0
        #: In-window cycles the budget guard forced while over cap.
        self.forced_cycles = 0
        self._sim: Optional["Simulation"] = None
        self._last_sample_s = 0.0
        #: Per-app acknowledgment of the enforcer's violation counter:
        #: a boundary cycle is forced until the app has planned *after*
        #: the latest violating tick.
        self._violation_ack: Dict[str, int] = {}

    # -- Controller wiring -------------------------------------------------

    def attach(self, sim: "Simulation") -> None:
        self._sim = sim
        if self.enforcer is not None:
            # The budget check needs every tick's reading; subscribing
            # here is what makes the engine publish PowerSample at all,
            # and only guardrailed runs pay for it.
            sim.bus.subscribe(PowerSample, self._on_power_sample)
            sim.bus.subscribe(AppFinished, self._on_app_finished)
            sim.bus.subscribe(AppQuarantined, self._on_app_quarantined)
            sim.bus.subscribe(AppEvicted, self._on_app_evicted)

    def on_start(self, sim: "Simulation") -> None:
        if self.watchdog is not None:
            # Board power is attributable to a single app only when the
            # run has exactly one; co-run watchdogs judge rate residuals.
            self.watchdog.track_power = len(sim.apps) == 1
        if self.enforcer is not None:
            self.enforcer.board_power_w = sim.spec.board_power_w
            self.enforcer.set_live(
                [app.name for app in sim.apps], sim.clock.now_s
            )
        for controller in sim.controllers:
            if not isinstance(controller, MapeManager):
                continue
            if controller.mape.guard is None:
                controller.mape.guard = self
                controller.mape.planner.guard = self

    # -- bus handlers -------------------------------------------------------

    def _on_power_sample(self, event: PowerSample) -> None:
        enforcer = self.enforcer
        sim = self._sim
        if enforcer is None or sim is None:
            return
        dt_s = event.time_s - self._last_sample_s
        self._last_sample_s = event.time_s
        total_w = event.watts.get("total", 0.0)
        transitions, violating = enforcer.observe(dt_s, total_w, event.time_s)
        for guard, change, detail in transitions:
            self._announce(guard, "*", change, detail, time_s=event.time_s)
        if violating:
            # Emergency down-throttle, re-asserted every violating tick
            # — a manager that re-applies a hot state mid-throttle is
            # immediately overridden again.
            sim.actuator.set_min_frequencies()
            self.emergency_throttles += 1

    def _on_app_finished(self, event: AppFinished) -> None:
        self._release_share(event.app_name, event.time_s, "finished")

    def _on_app_quarantined(self, event: AppQuarantined) -> None:
        self._release_share(event.app_name, event.time_s, "quarantined")

    def _on_app_evicted(self, event: AppEvicted) -> None:
        self._release_share(event.app_name, event.time_s, "evicted")
        self._violation_ack.pop(event.app_name, None)
        if self.damper is not None:
            self.damper.forget(event.app_name)
        if self.watchdog is not None:
            self.watchdog.forget(event.app_name)

    def _release_share(self, app_name: str, time_s: float, why: str) -> None:
        enforcer = self.enforcer
        if enforcer is not None and enforcer.release(app_name, time_s):
            self._announce(
                "budget",
                app_name,
                "release",
                f"share released ({why}); survivors absorb it",
                time_s=time_s,
            )

    def _announce(
        self,
        guard: str,
        app_name: str,
        change: str,
        detail: str,
        time_s: Optional[float] = None,
    ) -> None:
        sim = self._sim
        if sim is None:
            return
        if time_s is None:
            time_s = sim.clock.now_s
        event_type = GuardrailTripped if change == "trip" else GuardrailReleased
        sim.bus.publish(
            event_type(
                guard=guard, app_name=app_name, time_s=time_s, detail=detail
            )
        )

    # -- MAPE guard hooks (installed on every loop) -------------------------

    def on_observation(
        self,
        sim: "Simulation",
        app: "SimApp",
        current: SystemState,
        observation: "Observation",
    ) -> None:
        enforcer = self.enforcer
        if enforcer is not None and enforcer.admit(app.name, sim.clock.now_s):
            # A fresh boundary observation from an app whose share was
            # released (quarantine) means it recovered: re-admit it.
            self._announce(
                "budget", app.name, "trip", "share re-admitted (recovered)"
            )
        watchdog = self.watchdog
        if watchdog is not None:
            change = watchdog.note_observation(
                app.name,
                observation.rate,
                sim.clock.now_s,
                sim.sensor.energy_j("total"),
            )
            if change:
                self._announce(
                    "watchdog",
                    app.name,
                    change,
                    (
                        "residuals over threshold: incremental safe mode"
                        if change == "trip"
                        else "residuals recovered: full search restored"
                    ),
                )

    def wants_cycle(self, sim: "Simulation", app: "SimApp") -> bool:
        """Whether the loop must plan even inside the target window.

        While the sensor reads over budget, an in-window rate must not
        suppress planning: the emergency throttle only pins frequencies,
        and shrinking the *allocation* under the cap takes a (vetoed)
        search.  The signal is "any violating tick since this app last
        planned" rather than the instantaneous throttle flag — bursty
        workloads dip under the release threshold between heartbeats,
        and a boundary landing in such a dip must not mask a budget
        that is violated the rest of the period.  Also true mid-hold so
        a damper cooldown keeps counting down instead of freezing when
        the held state satisfies the target.
        """
        enforcer = self.enforcer
        if (
            enforcer is not None
            and enforcer.shares.get(app.name) is not None
            and enforcer.violation_ticks > self._violation_ack.get(app.name, 0)
        ):
            self.forced_cycles += 1
            return True
        if self.damper is not None and self.damper.holding(app.name):
            return True
        return False

    def adjust_space(
        self, ctx: "CycleContext", space: "SearchSpace"
    ) -> "SearchSpace":
        watchdog = self.watchdog
        if watchdog is not None and watchdog.in_safe_mode(ctx.app.name):
            watchdog.note_safe_cycle()
            return HARS_I.space_for(ctx.analysis.satisfaction)
        return space

    def candidate_veto(self, knowledge: "Knowledge", ctx: "CycleContext"):
        enforcer = self.enforcer
        if enforcer is None:
            return None
        cap = enforcer.veto_cap_w(ctx.app.name)
        if cap is None:
            return None
        estimation = knowledge.estimation
        n_threads = ctx.app.n_threads
        try:
            current_estimate = estimation.perf.estimate(
                ctx.current, n_threads
            )
            current_power = estimation.power.estimate(
                ctx.current, current_estimate
            )
        except EstimationError:
            current_power = None
        return BudgetVeto(estimation, n_threads, cap, current_power)

    def adjust_plan(
        self,
        sim: "Simulation",
        knowledge: "Knowledge",
        ctx: "CycleContext",
        plan: "PlanResult",
    ) -> "PlanResult":
        damper = self.damper
        if damper is None:
            return plan
        app_name = ctx.app.name
        estimation = knowledge.estimation
        n_threads = ctx.app.n_threads

        def cheaper_of(first: SystemState, second: SystemState) -> SystemState:
            try:
                power_first = estimation.power.estimate(
                    first, estimation.perf.estimate(first, n_threads)
                )
                power_second = estimation.power.estimate(
                    second, estimation.perf.estimate(second, n_threads)
                )
            except EstimationError:
                return plan.state
            return first if power_first <= power_second else second

        state, change = damper.filter_plan(app_name, plan.state, cheaper_of)
        if change == "trip":
            self._announce(
                "damper",
                app_name,
                "trip",
                f"thrash detected; holding {state.describe()} "
                f"for {damper.hold_periods} periods",
            )
            if not damper.holding(app_name):
                # One-period hold: pair the release immediately.
                self._announce("damper", app_name, "release", "hold expired")
        elif change == "release":
            self._announce("damper", app_name, "release", "hold expired")
        if state == plan.state:
            return plan
        # The held state replaces the search winner; its estimates no
        # longer describe what is applied, so the watchdog prediction
        # for this cycle is dropped with it.
        return replace(plan, state=state, evaluated=None)

    def note_cycle(
        self, sim: "Simulation", ctx: "CycleContext", executed: bool
    ) -> None:
        if self.enforcer is not None:
            self._violation_ack[ctx.app.name] = self.enforcer.violation_ticks
        watchdog = self.watchdog
        if watchdog is None or not executed:
            return
        plan = ctx.plan
        if plan is None:
            return
        evaluated = plan.evaluated
        if evaluated is None or evaluated.state != plan.state:
            return
        watchdog.note_prediction(
            ctx.app.name,
            evaluated.est_rate,
            evaluated.est_power,
            sim.clock.now_s,
            sim.sensor.energy_j("total"),
        )

    # -- telemetry harvest ---------------------------------------------------

    def guardrail_stats(self) -> Dict[str, float]:
        """Deterministic scalar stats the telemetry hub exports."""
        stats: Dict[str, float] = {
            "emergency_throttles": float(self.emergency_throttles),
            "forced_cycles": float(self.forced_cycles),
        }
        enforcer = self.enforcer
        if enforcer is not None:
            stats.update(
                budget_trips=float(enforcer.trips),
                thermal_trips=float(enforcer.thermal_trips),
                violation_ticks=float(enforcer.violation_ticks),
                max_violation_streak_s=enforcer.max_violation_streak_s,
                throttled_seconds=enforcer.throttled_s,
                filter_margin=enforcer.margin,
            )
            if enforcer.thermal is not None:
                stats["thermal_peak_c"] = enforcer.thermal.peak_c
        if self.damper is not None:
            stats.update(
                damper_trips=float(self.damper.trips),
                damper_held_cycles=float(self.damper.held_cycles),
            )
        if self.watchdog is not None:
            stats.update(
                watchdog_trips=float(self.watchdog.trips),
                watchdog_safe_cycles=float(self.watchdog.safe_cycles),
            )
        return stats

    def residuals(self) -> List[float]:
        """Signed watchdog residuals (telemetry histogram feed)."""
        if self.watchdog is None:
            return []
        return list(self.watchdog.all_residuals)

    # -- checkpoint / restore ------------------------------------------------

    @property
    def checkpoint_id(self) -> str:
        return "guardrails"

    def checkpoint(self, now_s: float) -> Dict[str, Any]:
        from repro.experiments.serialize import checkpoint_payload

        body: Dict[str, Any] = {
            "controller": type(self).__name__,
            "emergency_throttles": self.emergency_throttles,
        }
        if self.enforcer is not None:
            body["enforcer"] = self.enforcer.snapshot()
        if self.damper is not None:
            body["damper"] = self.damper.snapshot()
        if self.watchdog is not None:
            body["watchdog"] = self.watchdog.snapshot()
        return checkpoint_payload(self.checkpoint_id, now_s, body)

    def restore_checkpoint(
        self, sim: "Simulation", payload: Dict[str, Any]
    ) -> None:
        from repro.experiments.serialize import validate_checkpoint

        body = validate_checkpoint(payload)
        self.emergency_throttles = int(body.get("emergency_throttles", 0))
        if self.enforcer is not None and body.get("enforcer") is not None:
            self.enforcer.restore(body["enforcer"], sim.clock.now_s)
        if self.damper is not None and body.get("damper") is not None:
            self.damper.restore(body["damper"])
        if self.watchdog is not None and body.get("watchdog") is not None:
            self.watchdog.restore(body["watchdog"])

    def _forget_volatile(self, sim: "Simulation") -> None:
        live = [
            app.name
            for app in sim.apps
            if not (app.halted or app.is_done())
        ]
        self._violation_ack.clear()
        if self.enforcer is not None:
            self.enforcer.reset(sim.clock.now_s, live)
        if self.damper is not None:
            self.damper.reset()
        if self.watchdog is not None:
            self.watchdog.reset()
