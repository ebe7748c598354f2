"""Power-sensor model.

The ODROID-XU3 carries INA231 current sensors on the big cluster, LITTLE
cluster, DRAM and GPU rails; the paper reads them with a 263 808 µs
sampling period and fits its power estimator against the samples.  This
module reproduces that observation channel: the simulation engine feeds
the sensor the ground-truth power of every tick, and the sensor exposes

* periodic *samples* (what calibration fits against), and
* exact integrated *energy* (what the experiments' perf/watt uses).

The two channels are deliberately separate: an installed ``fault_hook``
(the fault-injection layer) can drop, freeze, or corrupt the periodic
samples a sensor *reader* would see, while the integrated energy — the
simulation's ground truth — stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError

#: The paper's sensor sampling period (263,808 microseconds).
DEFAULT_SAMPLE_PERIOD_S = 0.263808

#: Power channels every reading carries.
CHANNELS = ("big", "little", "board", "total")

#: Sample-hook signature: ``(sample_time_s, true_watts) -> observed``
#: where ``None`` means the sample was lost.
SampleHook = Callable[
    [float, Mapping[str, float]], Optional[Mapping[str, float]]
]


@dataclass(frozen=True)
class PowerSample:
    """One periodic sensor reading."""

    time_s: float
    watts: Mapping[str, float]


class PowerSensor:
    """Integrates tick-level power into energy and periodic samples."""

    def __init__(self, sample_period_s: float = DEFAULT_SAMPLE_PERIOD_S):
        if sample_period_s <= 0:
            raise ConfigurationError("sample period must be positive")
        self.sample_period_s = sample_period_s
        self.samples: List[PowerSample] = []
        #: Samples lost to an installed fault hook.
        self.dropped_samples = 0
        #: Samples whose reading had at least one channel clamped to 0 —
        #: real INA231 registers are unsigned, so a negative reading
        #: (injected noise) can never reach a reader, and
        #: :meth:`best_average_w` cannot be dragged down by one.
        self.clamped_samples = 0
        #: Optional fault filter applied per periodic sample.
        self.fault_hook: Optional[SampleHook] = None
        self._energy_j: Dict[str, float] = {ch: 0.0 for ch in CHANNELS}
        self._elapsed_s = 0.0
        #: Samples taken so far (captured + dropped).  Sample boundaries
        #: are derived by *multiplying* this count by the period — a
        #: running float sum drifts against the summed tick durations and
        #: eventually skips or double-fires a boundary.
        self._samples_seen = 0
        #: Boundary comparison tolerance: ticks accumulate rounding error
        #: of a few ulps, so an exact-boundary sample (e.g. tick 16488 at
        #: the 10 ms-tick / 263.808 ms-period ratio) must not come down
        #: to the sign of that error.
        self._boundary_eps = sample_period_s * 1e-9
        self._last_watts: Dict[str, float] = {ch: 0.0 for ch in CHANNELS}
        #: The reading ``_last_watts`` was copied from by :meth:`record`;
        #: ``None`` once anything else may have written ``_last_watts``.
        self._reading: Optional[Mapping[str, float]] = None

    def record(self, dt_s: float, watts: Mapping[str, float]) -> None:
        """Account one simulation tick of duration ``dt_s`` at ``watts``.

        The power is treated as constant across the tick — the engine's
        tick (10 ms) is much shorter than the sensor period (263.8 ms),
        which mirrors the real measurement setup.

        Handed the same reading object as the call before, the sensor
        skips the validation and keeps its copy of the reading: the
        engine hands a reused reading on most ticks, and never mutates
        one.
        """
        if dt_s <= 0:
            raise ConfigurationError("tick duration must be positive")
        if watts is not self._reading:
            for channel in CHANNELS:
                if channel not in watts:
                    raise ConfigurationError(
                        f"power reading missing channel {channel!r}"
                    )
            self._last_watts = {ch: watts[ch] for ch in CHANNELS}
            self._reading = watts
        energy = self._energy_j
        for channel in CHANNELS:
            energy[channel] += watts[channel] * dt_s
        self._elapsed_s += dt_s
        # Most ticks cross no boundary: test that before the call.
        if (
            self._samples_seen + 1
        ) * self.sample_period_s <= self._elapsed_s + self._boundary_eps:
            self._take_due_samples()

    def sync(
        self,
        energy_j: Mapping[str, float],
        elapsed_s: float,
        watts: Mapping[str, float],
    ) -> float:
        """Adopt totals integrated elsewhere and take the samples now due.

        The fleet engine integrates every node's energy in arrays and
        calls this only when a row crosses a sample boundary, with the
        row's totals and the latest tick's reading.  Returns the next
        sample boundary (elapsed seconds).
        """
        self._energy_j = dict(energy_j)
        self._elapsed_s = elapsed_s
        self._last_watts = dict(watts)
        self._reading = None
        self._take_due_samples()
        return self.next_sample_s

    @property
    def next_sample_s(self) -> float:
        """Elapsed time of the next sample boundary."""
        return (self._samples_seen + 1) * self.sample_period_s

    @property
    def boundary_eps(self) -> float:
        """Tolerance of the sample-boundary comparison."""
        return self._boundary_eps

    def _take_due_samples(self) -> None:
        next_sample_s = (self._samples_seen + 1) * self.sample_period_s
        while next_sample_s <= self._elapsed_s + self._boundary_eps:
            observed: Optional[Mapping[str, float]] = self._last_watts
            if self.fault_hook is not None:
                observed = self.fault_hook(next_sample_s, self._last_watts)
                # The hook may edit the dict it was handed: the next
                # record() copies the reading afresh.
                self._reading = None
            if observed is None:
                self.dropped_samples += 1
            else:
                captured = dict(observed)
                if any(value < 0 for value in captured.values()):
                    self.clamped_samples += 1
                    captured = {
                        ch: (value if value >= 0 else 0.0)
                        for ch, value in captured.items()
                    }
                self.samples.append(
                    PowerSample(time_s=next_sample_s, watts=captured)
                )
            self._samples_seen += 1
            next_sample_s = (self._samples_seen + 1) * self.sample_period_s

    @property
    def elapsed_s(self) -> float:
        """Total observed time."""
        return self._elapsed_s

    def energy_j(self, channel: str = "total") -> float:
        """Exact integrated energy of a channel."""
        if channel not in self._energy_j:
            raise ConfigurationError(f"unknown power channel {channel!r}")
        return self._energy_j[channel]

    def average_power_w(self, channel: str = "total") -> float:
        """Energy / time — the denominator of the paper's perf/watt."""
        if self._elapsed_s == 0:
            raise ConfigurationError("no power recorded yet")
        return self.energy_j(channel) / self._elapsed_s

    def sampled_average_w(self, channel: str = "total") -> float:
        """Average over periodic samples — what a real sensor reader sees.

        Differs slightly from :meth:`average_power_w` because sampling
        quantizes; calibration uses this one for fidelity.
        """
        if not self.samples:
            raise ConfigurationError("no samples captured yet")
        return sum(s.watts[channel] for s in self.samples) / len(self.samples)

    def best_average_w(self, channel: str = "total") -> float:
        """Sampled average, falling back to integrated energy.

        The degradation policy for sensor dropout: readers prefer the
        sampled channel (fidelity to the real read-out), but when every
        sample was lost they degrade to the exact integrated average
        instead of failing.
        """
        if self.samples:
            return self.sampled_average_w(channel)
        return self.average_power_w(channel)

    def reset(self) -> None:
        """Clear all accumulated state (used between calibration runs).

        Sampling restarts mid-period too: the first sample after a reset
        lands one full period after it, regardless of where in the old
        period the reset happened.  An installed ``fault_hook`` stays.
        """
        self.samples.clear()
        self.dropped_samples = 0
        self.clamped_samples = 0
        self._energy_j = {ch: 0.0 for ch in CHANNELS}
        self._elapsed_s = 0.0
        self._samples_seen = 0
        self._last_watts = {ch: 0.0 for ch in CHANNELS}
        self._reading = None
