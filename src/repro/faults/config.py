"""Fault-model configuration.

HARS's observation and actuation channels can all lie on real hardware:
the INA231 power sensor drops or corrupts readings, heartbeat delivery
through the shared-memory segment stalls or jitters, and
``scaling_setspeed`` / ``sched_setaffinity`` writes fail transiently
under load.  A :class:`FaultConfig` gives every channel a configurable
failure rate; the seeded :class:`~repro.faults.injector.FaultInjector`
turns the rates into concrete, reproducible fault decisions.

With every rate at zero the configuration is *disabled*: the engine
skips the injector entirely and the whole stack is bit-identical to a
simulation built without a fault layer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple

from repro.errors import ConfigurationError

#: The fault channels a config can enable, as reported on the bus.
FAULT_KINDS = (
    "sensor-dropout",
    "sensor-noise",
    "sensor-stuck",
    "thermal-ramp",
    "heartbeat-stall",
    "heartbeat-jitter",
    "dvfs",
    "affinity",
)

#: Application/controller lifecycle fault kinds (PR 3).  Underscored
#: names match the ``repro.supervision`` failure taxonomy.
LIFECYCLE_KINDS = (
    "app_crash",
    "app_hang",
    "app_runaway",
    "controller_restart",
)

#: Speed multiplier a runaway app gains while uncontrolled.
APP_RUNAWAY_SPEED_FACTOR = 3.0

_RATE_FIELDS = (
    "sensor_dropout_rate",
    "sensor_noise_rate",
    "sensor_stuck_rate",
    "thermal_ramp_rate",
    "heartbeat_stall_rate",
    "heartbeat_jitter_rate",
    "dvfs_failure_rate",
    "affinity_failure_rate",
)

_LIFECYCLE_RATE_FIELDS = (
    "app_crash_rate",
    "app_hang_rate",
    "app_runaway_rate",
    "controller_restart_rate",
)


@dataclass(frozen=True)
class LifecycleEvent:
    """One deterministically-scheduled lifecycle fault.

    ``target`` names the app to hit (``"*"`` picks the first live app at
    fire time; ignored for ``controller_restart``); the event fires once
    during the tick that covers ``at_s``.
    """

    kind: str
    at_s: float
    target: str = "*"

    def __post_init__(self) -> None:
        if self.kind not in LIFECYCLE_KINDS:
            raise ConfigurationError(
                f"unknown lifecycle fault kind {self.kind!r}; "
                f"valid: {LIFECYCLE_KINDS}"
            )
        if self.at_s < 0:
            raise ConfigurationError("lifecycle event time must be >= 0")


@dataclass(frozen=True)
class FaultConfig:
    """Failure rates and shapes for every injectable fault channel.

    Rates are per-event probabilities: per periodic power *sample* for
    the sensor channels, per emitted heartbeat for the heartbeat
    channels, and per attempted platform write for the actuation
    channels.
    """

    #: Seed of the injector's private RNG (independent of workload seeds).
    seed: int = 0

    # -- power sensor (INA231 read-out) ----------------------------------
    #: Probability a periodic sample is lost entirely.
    sensor_dropout_rate: float = 0.0
    #: Probability a sample is corrupted by multiplicative noise.
    sensor_noise_rate: float = 0.0
    #: Relative std-dev of the multiplicative noise (0.05 = ±5 %).
    sensor_noise_std: float = 0.05
    #: Probability a sample freezes the sensor at its current reading.
    sensor_stuck_rate: float = 0.0
    #: Length of a stuck-at episode, in samples (including the first).
    sensor_stuck_samples: int = 8
    #: Probability a sample starts a thermal-ramp episode: ambient heating
    #: adds a triangular power excursion (ramp up, peak, ramp back) to the
    #: board and total rails over the next ``thermal_ramp_samples``
    #: readings — the sustained-drift shape that exercises the guardrail
    #: thermal model, unlike the instantaneous noise/stuck faults.
    thermal_ramp_rate: float = 0.0
    #: Peak extra watts at the middle of a thermal-ramp episode.
    thermal_ramp_heat_w: float = 1.5
    #: Length of a thermal-ramp episode, in samples (including the first).
    thermal_ramp_samples: int = 16

    # -- heartbeat delivery ----------------------------------------------
    #: Probability a heartbeat's delivery to the runtime stalls.
    heartbeat_stall_rate: float = 0.0
    #: Stall length in engine ticks.
    heartbeat_stall_ticks: int = 50
    #: Probability a heartbeat's delivery jitters by a few ticks.
    heartbeat_jitter_rate: float = 0.0
    #: Maximum jitter in engine ticks (actual delay uniform in [1, max]).
    heartbeat_jitter_ticks: int = 3

    # -- actuation (DVFS writes, affinity calls) -------------------------
    #: Probability one ``scaling_setspeed`` write is lost.
    dvfs_failure_rate: float = 0.0
    #: Probability one affinity/cpuset call fails.
    affinity_failure_rate: float = 0.0

    # -- application / controller lifecycle ------------------------------
    #: Per-app, per-simulated-second hazard of an abrupt crash (the app
    #: stops mid-workload; ``AppFinished`` fires with work left undone).
    app_crash_rate: float = 0.0
    #: Per-app, per-simulated-second hazard of a hang (the app stops
    #: emitting heartbeats but never exits).
    app_hang_rate: float = 0.0
    #: Per-app, per-simulated-second hazard of a runaway episode (the
    #: app escapes its pinning and runs uncontrolled).
    app_runaway_rate: float = 0.0
    #: Per-simulated-second hazard of a controller crash+restart.
    controller_restart_rate: float = 0.0
    #: Deterministically-scheduled lifecycle events (tests/benchmarks
    #: pin failures to exact times with these; rates stay random).
    lifecycle_schedule: Tuple[LifecycleEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS + _LIFECYCLE_RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1], got {rate!r}"
                )
        if self.sensor_noise_std < 0:
            raise ConfigurationError("sensor_noise_std must be >= 0")
        if self.thermal_ramp_heat_w < 0:
            raise ConfigurationError("thermal_ramp_heat_w must be >= 0")
        for name in (
            "sensor_stuck_samples",
            "thermal_ramp_samples",
            "heartbeat_stall_ticks",
            "heartbeat_jitter_ticks",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")

    # -- enablement queries ----------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any channel has a non-zero failure rate."""
        return (
            any(getattr(self, name) > 0 for name in _RATE_FIELDS)
            or self.lifecycle_enabled
        )

    @property
    def lifecycle_enabled(self) -> bool:
        """Whether any lifecycle fault can fire (rate or schedule)."""
        return (
            any(getattr(self, name) > 0 for name in _LIFECYCLE_RATE_FIELDS)
            or bool(self.lifecycle_schedule)
        )

    @property
    def sensor_enabled(self) -> bool:
        return (
            self.sensor_dropout_rate > 0
            or self.sensor_noise_rate > 0
            or self.sensor_stuck_rate > 0
            or self.thermal_ramp_rate > 0
        )

    @property
    def heartbeat_enabled(self) -> bool:
        return self.heartbeat_stall_rate > 0 or self.heartbeat_jitter_rate > 0

    @property
    def actuation_enabled(self) -> bool:
        return self.dvfs_failure_rate > 0 or self.affinity_failure_rate > 0

    # -- presets ----------------------------------------------------------

    @classmethod
    def disabled(cls) -> "FaultConfig":
        """All rates zero: the stack behaves exactly as without faults."""
        return cls()

    @classmethod
    def defaults(cls) -> "FaultConfig":
        """The documented default fault rates.

        Modelled on the noise levels MARS / Hurry-up report for embedded
        observation channels: occasional sample loss and stuck episodes,
        ±5 % read-out noise, rare-but-long heartbeat stalls, frequent
        small delivery jitter, and transiently failing platform writes.
        A full HARS run under these rates must complete without an
        unhandled exception.  Seeded at 0; ``dataclasses.replace`` picks
        another seed.
        """
        return cls(
            sensor_dropout_rate=0.02,
            sensor_noise_rate=0.05,
            sensor_noise_std=0.05,
            sensor_stuck_rate=0.005,
            sensor_stuck_samples=8,
            heartbeat_stall_rate=0.01,
            heartbeat_stall_ticks=50,
            heartbeat_jitter_rate=0.05,
            heartbeat_jitter_ticks=3,
            dvfs_failure_rate=0.05,
            affinity_failure_rate=0.02,
        )

    def scaled(self, factor: float) -> "FaultConfig":
        """A copy with every *rate* multiplied by ``factor`` (capped at 1).

        Shapes (noise std, episode lengths) are preserved — this is the
        knob the fault-tolerance benchmark sweeps.
        """
        if factor < 0:
            raise ConfigurationError("scale factor must be >= 0")
        updates = {
            name: min(1.0, getattr(self, name) * factor)
            for name in _RATE_FIELDS + _LIFECYCLE_RATE_FIELDS
        }
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(updates)
        return FaultConfig(**values)
