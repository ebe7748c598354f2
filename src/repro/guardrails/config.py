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


@dataclass(frozen=True)
class GuardrailConfig:
    """Which guardrails run and how aggressively they trip."""

    # -- budget enforcer ---------------------------------------------------
    #: Run-wide power cap in watts over the sensor's ``total`` rail, or
    #: ``None`` for no run cap.
    power_cap_w: Optional[float] = None
    #: Explicit per-app caps as ``(app_name, watts)`` pairs (MP-HARS).
    #: Apps without an entry share what remains of ``power_cap_w``
    #: equally; shares are recomputed when an app finishes, is
    #: quarantined, or is evicted.
    app_power_caps: Tuple[Tuple[str, float], ...] = ()
    #: The guard filter vetoes candidates whose *estimated* power
    #: exceeds ``margin × share``; headroom below 1.0 absorbs estimator
    #: optimism before the sensor check has to act.
    filter_margin: float = 0.95
    #: Each post-actuation budget trip multiplies the margin by this
    #: decay (down to :attr:`min_margin`), so a cap the estimator keeps
    #: underestimating is enforced progressively harder.
    trip_margin_decay: float = 0.85
    #: Floor of the adaptive filter margin.
    min_margin: float = 0.4
    #: A tripped throttle releases once observed power falls back under
    #: ``release_fraction × cap`` (hysteresis against re-trip chatter).
    release_fraction: float = 0.95

    # -- modelled thermal ramp --------------------------------------------
    #: Track a first-order thermal state alongside the budget check.
    thermal_enabled: bool = False
    #: Ambient / idle temperature of the thermal model (°C).
    ambient_c: float = 45.0
    #: First-order time constant of the package (seconds).
    thermal_tau_s: float = 10.0
    #: Steady-state temperature rise per sustained watt (°C/W).
    thermal_c_per_w: float = 5.0
    #: Above this modelled temperature the effective cap tightens and
    #: an emergency down-throttle fires.
    thermal_throttle_c: float = 85.0
    #: The tightened cap releases once the model cools below this.
    thermal_release_c: float = 80.0
    #: Multiplier applied to the cap (and every share) while hot.
    thermal_cap_factor: float = 0.8

    # -- oscillation damper ------------------------------------------------
    #: Sliding window of recent boundary plans inspected for A↔B
    #: thrash; ``0`` disables the damper.
    damper_window: int = 0
    #: Minimum state flips inside a full window to call it thrashing.
    damper_flips: int = 3
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
        if not 0 < self.filter_margin <= 2:
            raise ConfigurationError("filter_margin must be in (0, 2]")
        if not 0 < self.trip_margin_decay <= 1:
            raise ConfigurationError("trip_margin_decay must be in (0, 1]")
        if not 0 < self.min_margin <= self.filter_margin:
            raise ConfigurationError(
                "min_margin must be in (0, filter_margin]"
            )
        if not 0 < self.release_fraction <= 1:
            raise ConfigurationError("release_fraction must be in (0, 1]")
        if self.thermal_enabled:
            if not self.budget_enabled:
                raise ConfigurationError(
                    "the thermal ramp tightens a power cap: set "
                    "power_cap_w (or app_power_caps) to enable it"
                )
            if self.thermal_tau_s <= 0:
                raise ConfigurationError("thermal_tau_s must be positive")
            if self.thermal_c_per_w <= 0:
                raise ConfigurationError("thermal_c_per_w must be positive")
            if not (
                self.ambient_c
                < self.thermal_release_c
                < self.thermal_throttle_c
            ):
                raise ConfigurationError(
                    "need ambient_c < thermal_release_c < thermal_throttle_c"
                )
            if not 0 < self.thermal_cap_factor <= 1:
                raise ConfigurationError(
                    "thermal_cap_factor must be in (0, 1]"
                )
        if self.damper_window < 0:
            raise ConfigurationError("damper_window must be >= 0")
        if self.damper_window:
            if self.damper_window < 3:
                raise ConfigurationError(
                    "a damper needs a window of at least 3 plans"
                )
            if not 2 <= self.damper_flips < self.damper_window:
                raise ConfigurationError(
                    "damper_flips must be in [2, damper_window)"
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
