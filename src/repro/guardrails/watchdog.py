"""Misprediction watchdog: degrade to safe mode when the models drift.

Every executed plan carries the estimates that justified it — the
Algorithm 2 winner's predicted heartbeat rate and power.  The watchdog
compares them against what actually happened one adaptation period
later: the observed boundary rate, and the sensor's exactly-integrated
average power over the interval.  Both residuals are *signed* relative
errors ``(observed − predicted) / predicted``, so telemetry can tell a
consistently optimistic model (negative rate residuals) from a noisy
one.

Past a mean-absolute-residual threshold over a sliding window the
watchdog declares the estimators untrustworthy and trips **safe mode**:
the planner is restricted to incremental HARS-I moves (±1 neighbour,
d = 1), whose outcome depends far less on model accuracy — a measured
step-and-check discipline — until the residuals of the *applied* states
recover below the release threshold.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple


class _AppWatchdog:
    """Per-app residual window and pending prediction."""

    __slots__ = ("residuals", "pending", "safe_mode")

    def __init__(self, window: int):
        #: Recent signed relative residuals, rate and power interleaved
        #: in arrival order.
        self.residuals: Deque[float] = deque(maxlen=window)
        #: ``(est_rate, est_power, time_s, energy_j)`` of the last
        #: executed plan, awaiting its follow-up observation.
        self.pending: Optional[Tuple[float, float, float, float]] = None
        self.safe_mode = False


class MispredictionWatchdog:
    """Signed residual tracking with a safe-mode state machine."""

    def __init__(
        self,
        window: int,
        trip_threshold: float,
        recover_threshold: float,
    ):
        self.window = window
        self.trip_threshold = trip_threshold
        self.recover_threshold = recover_threshold
        #: Power residuals only make sense when the sensor's board rail
        #: is attributable to one app; multi-app layers switch this off
        #: and the watchdog judges rate residuals alone.
        self.track_power = True
        self._apps: Dict[str, _AppWatchdog] = {}
        #: Safe-mode entries (→ ``GuardrailTripped``).
        self.trips = 0
        #: Boundary cycles planned under safe mode.
        self.safe_cycles = 0
        #: Every signed residual ever recorded (telemetry histogram).
        self.all_residuals: List[float] = []

    def _of(self, app_name: str) -> _AppWatchdog:
        data = self._apps.get(app_name)
        if data is None:
            data = self._apps[app_name] = _AppWatchdog(self.window)
        return data

    def in_safe_mode(self, app_name: str) -> bool:
        data = self._apps.get(app_name)
        return data is not None and data.safe_mode

    def note_prediction(
        self,
        app_name: str,
        est_rate: float,
        est_power: float,
        now_s: float,
        energy_j: float,
    ) -> None:
        """Remember an executed plan's estimates for later comparison.

        Overwrites any unresolved prediction: residuals are measured
        against the *latest applied* state, the only one the next
        observation can vouch for.
        """
        self._of(app_name).pending = (est_rate, est_power, now_s, energy_j)

    def note_observation(
        self,
        app_name: str,
        observed_rate: float,
        now_s: float,
        energy_j: float,
    ) -> str:
        """Resolve a pending prediction; returns ``"trip"``/``"release"``/``""``."""
        data = self._apps.get(app_name)
        if data is None or data.pending is None:
            return ""
        est_rate, est_power, pred_time_s, pred_energy_j = data.pending
        data.pending = None
        if est_rate > 0 and observed_rate > 0:
            self._record(data, (observed_rate - est_rate) / est_rate)
        if self.track_power and est_power > 0 and now_s > pred_time_s:
            observed_power = (energy_j - pred_energy_j) / (
                now_s - pred_time_s
            )
            if observed_power > 0:
                self._record(data, (observed_power - est_power) / est_power)
        return self._judge(data)

    def _record(self, data: _AppWatchdog, residual: float) -> None:
        data.residuals.append(residual)
        self.all_residuals.append(residual)

    def _judge(self, data: _AppWatchdog) -> str:
        if len(data.residuals) < self.window:
            return ""
        mean_abs = sum(abs(r) for r in data.residuals) / len(data.residuals)
        if not data.safe_mode and mean_abs > self.trip_threshold:
            data.safe_mode = True
            self.trips += 1
            return "trip"
        if data.safe_mode and mean_abs < self.recover_threshold:
            data.safe_mode = False
            return "release"
        return ""

    def note_safe_cycle(self) -> None:
        self.safe_cycles += 1

    def forget(self, app_name: str) -> None:
        """Drop per-app state (the app finished or was evicted)."""
        self._apps.pop(app_name, None)

    def reset(self) -> None:
        """Cold start: windows, pendings, and safe flags are volatile."""
        self._apps.clear()

    # -- checkpoint plumbing ----------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable residual windows and safe flags."""
        return {
            "trips": self.trips,
            "safe_cycles": self.safe_cycles,
            "apps": {
                name: {
                    "residuals": list(data.residuals),
                    "safe_mode": data.safe_mode,
                }
                for name, data in self._apps.items()
            },
        }

    def restore(self, body: Dict[str, object]) -> None:
        self.trips = int(body.get("trips", 0))
        self.safe_cycles = int(body.get("safe_cycles", 0))
        for name, entry in (body.get("apps") or {}).items():
            data = self._of(str(name))
            data.residuals.clear()
            for value in entry.get("residuals", ()):
                data.residuals.append(float(value))
            data.safe_mode = bool(entry.get("safe_mode", False))
