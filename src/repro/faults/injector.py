"""Seeded, composable fault injector.

One :class:`FaultInjector` serves every fault site of a simulation:

* the power sensor installs :meth:`filter_power` as its sample hook
  (dropout / noise / stuck-at on the periodic samples; the exact
  integrated energy — the simulation's ground truth — is never touched);
* the engine asks :meth:`heartbeat_fault` whether a heartbeat's bus
  delivery stalls or jitters;
* the actuation façade rolls :meth:`dvfs_write_ok` /
  :meth:`affinity_write_ok` per platform write and drives its
  retry-with-backoff policy off the answers.

All randomness comes from one private :class:`random.Random` seeded by
the config, and draws happen in a fixed order per call site, so a fault
schedule is exactly reproducible for a given config and workload.

Every degradation is announced on the kernel bus:
:class:`~repro.kernel.bus.FaultInjected` when a channel goes bad and
:class:`~repro.kernel.bus.FaultRecovered` when it produces a good
result again, so traces capture the full fault history.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.faults.config import FaultConfig
from repro.kernel.bus import EventBus, FaultInjected, FaultRecovered

#: Seed offset of the lifecycle RNG stream.  Lifecycle faults draw from
#: their own generator so enabling them never perturbs the established
#: sensor/heartbeat/actuation fault schedules of the same seed.
_LIFECYCLE_SEED_OFFSET = 0x9E3779B9

#: Seed offset of the thermal-ramp RNG stream, separate for the same
#: reason: enabling the ramp must not shift the per-sample dropout /
#: stuck / noise draws of an established seed.
_THERMAL_SEED_OFFSET = 0x85EBCA6B


class FaultInjector:
    """Turns a :class:`FaultConfig` into concrete fault decisions."""

    def __init__(self, config: FaultConfig, bus: EventBus):
        self.config = config
        self.bus = bus
        self.rng = random.Random(config.seed)
        self.lifecycle_rng = random.Random(config.seed + _LIFECYCLE_SEED_OFFSET)
        self.thermal_rng = random.Random(config.seed + _THERMAL_SEED_OFFSET)
        #: Injection / recovery counts per fault kind.
        self.injected: Dict[str, int] = {}
        self.recovered: Dict[str, int] = {}
        self._stuck_watts: Optional[Dict[str, float]] = None
        self._stuck_left = 0
        self._dropout_pending = False
        self._noise_pending = False
        self._ramp_total = 0
        self._ramp_left = 0
        self._fired_schedule: Set[int] = set()

    # -- bookkeeping + bus announcements ----------------------------------

    def note_injected(
        self, kind: str, target: str, time_s: float, detail: str = ""
    ) -> None:
        """Count an injected fault and announce it on the bus."""
        self.injected[kind] = self.injected.get(kind, 0) + 1
        self.bus.publish(
            FaultInjected(kind=kind, target=target, time_s=time_s, detail=detail)
        )

    def note_recovered(
        self, kind: str, target: str, time_s: float, detail: str = ""
    ) -> None:
        """Count a recovery and announce it on the bus."""
        self.recovered[kind] = self.recovered.get(kind, 0) + 1
        self.bus.publish(
            FaultRecovered(
                kind=kind, target=target, time_s=time_s, detail=detail
            )
        )

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def total_recovered(self) -> int:
        return sum(self.recovered.values())

    def summary(self) -> Dict[str, Tuple[int, int]]:
        """``kind -> (injected, recovered)`` for reports."""
        kinds = sorted(set(self.injected) | set(self.recovered))
        return {
            kind: (self.injected.get(kind, 0), self.recovered.get(kind, 0))
            for kind in kinds
        }

    # -- power sensor ------------------------------------------------------

    def filter_power(
        self, time_s: float, watts: Mapping[str, float]
    ) -> Optional[Mapping[str, float]]:
        """Corrupt one periodic power sample (the sensor's fault hook).

        Returns the watts the sensor reader *observes*: ``None`` for a
        dropped sample, a frozen copy during a stuck-at episode, a
        noise-scaled reading, or the true reading when no fault fires.
        An active thermal-ramp episode then adds its excursion on top of
        whatever the sample faults produced (except a full dropout).
        """
        observed = self._sample_fault(time_s, watts)
        cfg = self.config
        if (
            self._ramp_left == 0
            and cfg.thermal_ramp_rate
            and self.thermal_rng.random() < cfg.thermal_ramp_rate
        ):
            self._ramp_total = cfg.thermal_ramp_samples
            self._ramp_left = cfg.thermal_ramp_samples
            self.note_injected(
                "thermal-ramp",
                "power",
                time_s,
                f"{cfg.thermal_ramp_samples} samples, "
                f"peak +{cfg.thermal_ramp_heat_w}W",
            )
        if self._ramp_left > 0:
            # Triangular excursion: 0 at the episode edges, peak heat in
            # the middle.  Only the board and total rails heat up, so the
            # per-cluster big + little + board = total additivity holds.
            pos = self._ramp_total - self._ramp_left
            if self._ramp_total > 1:
                frac = 1.0 - abs(2.0 * pos / (self._ramp_total - 1) - 1.0)
            else:
                frac = 1.0
            extra = cfg.thermal_ramp_heat_w * frac
            self._ramp_left -= 1
            if observed is not None and extra > 0:
                heated = dict(observed)
                for channel in ("board", "total"):
                    if channel in heated:
                        heated[channel] += extra
                observed = heated
            if self._ramp_left == 0:
                self.note_recovered("thermal-ramp", "power", time_s)
        return observed

    def _sample_fault(
        self, time_s: float, watts: Mapping[str, float]
    ) -> Optional[Mapping[str, float]]:
        """The per-sample dropout / stuck / noise fault chain."""
        cfg = self.config
        if self._stuck_left > 0:
            self._stuck_left -= 1
            frozen = dict(self._stuck_watts or {})
            if self._stuck_left == 0:
                self._stuck_watts = None
                self.note_recovered("sensor-stuck", "power", time_s)
            return frozen
        if cfg.sensor_dropout_rate and self.rng.random() < cfg.sensor_dropout_rate:
            self._dropout_pending = True
            self.note_injected("sensor-dropout", "power", time_s)
            return None
        if self._dropout_pending:
            self._dropout_pending = False
            self.note_recovered("sensor-dropout", "power", time_s)
        if cfg.sensor_stuck_rate and self.rng.random() < cfg.sensor_stuck_rate:
            self._stuck_watts = dict(watts)
            self._stuck_left = cfg.sensor_stuck_samples - 1
            self.note_injected(
                "sensor-stuck",
                "power",
                time_s,
                f"{cfg.sensor_stuck_samples} samples",
            )
            if self._stuck_left == 0:
                self._stuck_watts = None
                self.note_recovered("sensor-stuck", "power", time_s)
            return dict(watts)
        if cfg.sensor_noise_rate and self.rng.random() < cfg.sensor_noise_rate:
            factor = max(0.0, 1.0 + self.rng.gauss(0.0, cfg.sensor_noise_std))
            self._noise_pending = True
            self.note_injected("sensor-noise", "power", time_s, f"x{factor:.4f}")
            return {channel: w * factor for channel, w in watts.items()}
        if self._noise_pending:
            self._noise_pending = False
            self.note_recovered("sensor-noise", "power", time_s)
        return watts

    # -- heartbeat delivery ------------------------------------------------

    def heartbeat_fault(
        self, app_name: str, time_s: float
    ) -> Optional[Tuple[str, int]]:
        """Whether this heartbeat's delivery is delayed.

        Returns ``(kind, delay_ticks)`` for a stall or jitter fault, or
        ``None`` for immediate delivery.  The *engine* announces both the
        injection (it knows the heartbeat index) and the recovery when
        the delayed heartbeat finally reaches the bus; this method only
        rolls the dice.
        """
        cfg = self.config
        if (
            cfg.heartbeat_stall_rate
            and self.rng.random() < cfg.heartbeat_stall_rate
        ):
            return ("heartbeat-stall", cfg.heartbeat_stall_ticks)
        if (
            cfg.heartbeat_jitter_rate
            and self.rng.random() < cfg.heartbeat_jitter_rate
        ):
            return ("heartbeat-jitter", self.rng.randint(1, cfg.heartbeat_jitter_ticks))
        return None

    # -- application / controller lifecycle --------------------------------

    def lifecycle_events(
        self, now_s: float, dt: float, candidates: Sequence[str]
    ) -> List[Tuple[str, str]]:
        """Lifecycle faults firing during the tick ``[now, now + dt)``.

        Returns ``(kind, target)`` pairs: scheduled events first (in
        declaration order, each at most once), then rate-driven rolls —
        one per live app per app channel, one for the controller channel
        — in a fixed order so the schedule is reproducible.  The engine
        resolves ``"*"`` targets and applies the faults; this method
        only decides.
        """
        cfg = self.config
        events: List[Tuple[str, str]] = []
        for index, event in enumerate(cfg.lifecycle_schedule):
            if index in self._fired_schedule:
                continue
            if event.at_s < now_s + dt - 1e-12:
                self._fired_schedule.add(index)
                events.append((event.kind, event.target))
        rng = self.lifecycle_rng
        for kind, rate in (
            ("app_crash", cfg.app_crash_rate),
            ("app_hang", cfg.app_hang_rate),
            ("app_runaway", cfg.app_runaway_rate),
        ):
            if not rate:
                continue
            p = min(1.0, rate * dt)
            for name in candidates:
                if rng.random() < p:
                    events.append((kind, name))
        if cfg.controller_restart_rate:
            p = min(1.0, cfg.controller_restart_rate * dt)
            if rng.random() < p:
                events.append(("controller_restart", "*"))
        return events

    # -- actuation ---------------------------------------------------------

    def actuation_enabled(self, kind: str) -> bool:
        """Whether the ``dvfs`` or ``affinity`` channel can fail at all."""
        if kind == "dvfs":
            return self.config.dvfs_failure_rate > 0
        if kind == "affinity":
            return self.config.affinity_failure_rate > 0
        return False

    def dvfs_write_ok(self, cluster_name: str, freq_mhz: int) -> bool:
        """Roll one DVFS write (the actuator's frequency gate)."""
        rate = self.config.dvfs_failure_rate
        return not (rate and self.rng.random() < rate)

    def affinity_write_ok(self, app_name: str) -> bool:
        """Roll one affinity/cpuset call."""
        rate = self.config.affinity_failure_rate
        return not (rate and self.rng.random() < rate)
