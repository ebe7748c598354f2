"""Guardrail configuration.

HARS trusts its offline-fitted linear estimators: nothing in
Algorithms 1–4 stops the search from admitting a state that blows a
power budget, ping-ponging between two neighbouring states every
adaptation period, or planning on a model that has drifted away from
the platform.  A :class:`GuardrailConfig` switches on up to three
independent protections (see :mod:`repro.guardrails.layer`):

* a **budget enforcer** — per-run (and per-app) power caps composed
  into the Algorithm 2 sweep as a guard filter plus a post-actuation
  sensor check with emergency down-throttle, optionally tightened by a
  modelled first-order thermal ramp;
* an **oscillation damper** — A↔B thrash detection over a sliding
  window of planned states with a hysteresis hold of the cheaper
  state;
* a **misprediction watchdog** — signed residual tracking between
  estimated and observed rate/power, degrading to incremental (HARS-I)
  safe-mode moves while the estimators are untrustworthy.

Everything defaults *off*: a default-constructed config has
``enabled == False`` and the runner attaches no layer at all, so the
run is bit-identical to one built before guardrails existed — the same
identity contract the fault, supervision, and telemetry layers honour.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: Mean absolute relative residual that trips the watchdog's safe mode.
WATCHDOG_TRIP = 0.35

#: Mean absolute relative residual below which safe mode releases.
WATCHDOG_RECOVER = 0.15

# -- budget enforcer -------------------------------------------------------
#: The guard filter vetoes candidates whose *estimated* power exceeds
#: ``margin × share``; headroom below 1.0 absorbs estimator optimism
#: before the sensor check has to act.  This is the starting margin.
FILTER_MARGIN = 0.95
#: Each post-actuation budget trip multiplies the margin by this decay
#: (down to :data:`MIN_MARGIN`), so a cap the estimator keeps
#: underestimating is enforced progressively harder.
TRIP_MARGIN_DECAY = 0.85
#: Floor of the adaptive filter margin.
MIN_MARGIN = 0.4
#: A tripped throttle releases once observed power falls back under
#: ``RELEASE_FRACTION × cap`` (hysteresis against re-trip chatter).
RELEASE_FRACTION = 0.95

# -- modelled thermal ramp ---------------------------------------------------
#: Ambient / idle temperature of the thermal model (°C).
AMBIENT_C = 45.0
#: First-order time constant of the package (seconds).
THERMAL_TAU_S = 10.0
#: Steady-state temperature rise per sustained watt (°C/W).
THERMAL_C_PER_W = 5.0
#: Above this modelled temperature the effective cap tightens and an
#: emergency down-throttle fires.
THERMAL_THROTTLE_C = 85.0
#: The tightened cap releases once the model cools below this.
THERMAL_RELEASE_C = 80.0
#: Multiplier applied to the cap (and every share) while hot.
THERMAL_CAP_FACTOR = 0.8

# -- oscillation damper ------------------------------------------------------
#: Minimum state flips inside a full damper window to call it thrashing.
DAMPER_FLIPS = 3


@dataclass(frozen=True)
class GuardrailConfig:
    """Which guardrails run.

    How hard they trip is fixed: the enforcer's margins and hysteresis
    are :data:`FILTER_MARGIN`, :data:`TRIP_MARGIN_DECAY`,
    :data:`MIN_MARGIN` and :data:`RELEASE_FRACTION`; the thermal ramp's
    model is :data:`AMBIENT_C` through :data:`THERMAL_CAP_FACTOR`; the
    damper trips on :data:`DAMPER_FLIPS` flips.
    """

    # -- budget enforcer ---------------------------------------------------
    #: Run-wide power cap in watts over the sensor's ``total`` rail, or
    #: ``None`` for no run cap.
    power_cap_w: Optional[float] = None
    #: Explicit per-app caps as ``(app_name, watts)`` pairs (MP-HARS).
    #: Apps without an entry share what remains of ``power_cap_w``
    #: equally; shares are recomputed when an app finishes, is
    #: quarantined, or is evicted.
    app_power_caps: Tuple[Tuple[str, float], ...] = ()
    #: Track a first-order thermal state alongside the budget check
    #: (constants :data:`AMBIENT_C` to :data:`THERMAL_CAP_FACTOR`).
    thermal_enabled: bool = False

    # -- oscillation damper ------------------------------------------------
    #: Sliding window of recent boundary plans inspected for A↔B
    #: thrash; ``0`` disables the damper.
    damper_window: int = 0
    #: Maximum distinct states a thrash cycle may involve.  The default
    #: catches the classic A↔B ping-pong; tight tolerance windows also
    #: produce longer A→B→C→A limit cycles, caught by raising this.
    damper_states: int = 2
    #: Adaptation periods the cheapest cycle member is held for.
    damper_hold_periods: int = 8

    # -- misprediction watchdog --------------------------------------------
    #: Residual samples per app needed before the watchdog judges the
    #: estimators (thresholds :data:`WATCHDOG_TRIP` /
    #: :data:`WATCHDOG_RECOVER`); ``0`` disables the watchdog.
    watchdog_window: int = 0

    def __post_init__(self) -> None:
        if self.power_cap_w is not None and self.power_cap_w <= 0:
            raise ConfigurationError("power_cap_w must be positive")
        seen = set()
        for entry in self.app_power_caps:
            if len(entry) != 2:
                raise ConfigurationError(
                    "app_power_caps entries must be (app_name, watts) pairs"
                )
            name, cap = entry
            if name in seen:
                raise ConfigurationError(
                    f"duplicate app power cap for {name!r}"
                )
            seen.add(name)
            if cap <= 0:
                raise ConfigurationError(
                    f"app power cap for {name!r} must be positive"
                )
        if self.thermal_enabled and not self.budget_enabled:
            raise ConfigurationError(
                "the thermal ramp tightens a power cap: set "
                "power_cap_w (or app_power_caps) to enable it"
            )
        if self.damper_window < 0:
            raise ConfigurationError("damper_window must be >= 0")
        if self.damper_window:
            if self.damper_window <= DAMPER_FLIPS:
                raise ConfigurationError(
                    f"a damper needs a window of more than {DAMPER_FLIPS} "
                    "plans"
                )
            if not 2 <= self.damper_states < self.damper_window:
                raise ConfigurationError(
                    "damper_states must be in [2, damper_window)"
                )
            if self.damper_hold_periods < 1:
                raise ConfigurationError("damper_hold_periods must be >= 1")
        if self.watchdog_window < 0:
            raise ConfigurationError("watchdog_window must be >= 0")
        if self.watchdog_window:
            if self.watchdog_window < 2:
                raise ConfigurationError(
                    "a watchdog needs a window of at least 2 residuals"
                )

    # -- enablement queries ------------------------------------------------

    @property
    def budget_enabled(self) -> bool:
        """Whether any power cap is configured."""
        return self.power_cap_w is not None or bool(self.app_power_caps)

    @property
    def damper_enabled(self) -> bool:
        return self.damper_window > 0

    @property
    def watchdog_enabled(self) -> bool:
        return self.watchdog_window > 0

    @property
    def enabled(self) -> bool:
        """Whether the layer does anything at all.

        ``False`` (the default config) means the runner never attaches
        the layer — the bit-identity contract.
        """
        return (
            self.budget_enabled
            or self.damper_enabled
            or self.watchdog_enabled
        )

    # -- conveniences ------------------------------------------------------

    def with_(self, **changes) -> "GuardrailConfig":
        """A copy with some fields replaced (sweep convenience)."""
        return replace(self, **changes)

    def explicit_caps(self) -> Dict[str, float]:
        """The per-app caps as a plain dict."""
        return dict(self.app_power_caps)
