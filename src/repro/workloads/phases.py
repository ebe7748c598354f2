"""Per-unit work profiles: how much work each heartbeat interval carries.

PARSEC inputs are not uniform: bodytrack's per-frame cost tracks the
subject's motion, fluidanimate's per-frame cost follows the fluid state,
swaptions is embarrassingly regular.  A :class:`WorkProfile` maps a work
unit's index to its size (in work units), deterministically — noisy
profiles hash the unit index with the run seed so two runs with the same
seed replay identically regardless of tick size.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


class WorkProfile(abc.ABC):
    """Maps unit index → work size (work units)."""

    @abc.abstractmethod
    def work(self, unit_index: int, seed: int = 0) -> float:
        """Size of work unit ``unit_index`` for run ``seed``."""

    def mean_work(self, n_units: int) -> float:
        """Average unit size over a seed-0 run; used to scale targets."""
        if n_units < 1:
            raise ConfigurationError("n_units must be positive")
        return sum(self.work(i, 0) for i in range(n_units)) / n_units


@dataclass(frozen=True)
class ConstantProfile(WorkProfile):
    """Every unit costs the same (swaptions, blackscholes)."""

    unit_work: float

    def __post_init__(self) -> None:
        if self.unit_work <= 0:
            raise ConfigurationError("unit work must be positive")

    def work(self, unit_index: int, seed: int = 0) -> float:
        if unit_index < 0:
            raise ConfigurationError("negative unit index")
        return self.unit_work


@dataclass(frozen=True)
class StepProfile(WorkProfile):
    """Piecewise-constant phases: ``segments`` is ``((n_units, work), …)``.

    Indices past the last segment repeat the final work size.
    """

    segments: Tuple[Tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("StepProfile needs at least one segment")
        for n_units, work in self.segments:
            if n_units <= 0 or work <= 0:
                raise ConfigurationError(f"invalid segment ({n_units}, {work})")

    def work(self, unit_index: int, seed: int = 0) -> float:
        if unit_index < 0:
            raise ConfigurationError("negative unit index")
        offset = 0
        for n_units, work in self.segments:
            if unit_index < offset + n_units:
                return work
            offset += n_units
        return self.segments[-1][1]


@dataclass(frozen=True)
class SinusoidProfile(WorkProfile):
    """Smooth periodic variation around a base size (fluidanimate)."""

    base_work: float
    amplitude: float
    period_units: int

    def __post_init__(self) -> None:
        if self.base_work <= 0:
            raise ConfigurationError("base work must be positive")
        if not 0 <= self.amplitude < self.base_work:
            raise ConfigurationError("amplitude must be in [0, base_work)")
        if self.period_units < 2:
            raise ConfigurationError("period must span at least 2 units")

    def work(self, unit_index: int, seed: int = 0) -> float:
        if unit_index < 0:
            raise ConfigurationError("negative unit index")
        phase = 2.0 * math.pi * unit_index / self.period_units
        return self.base_work + self.amplitude * math.sin(phase)


@dataclass(frozen=True)
class NoisyProfile(WorkProfile):
    """Multiplicative log-normal-ish jitter over an inner profile.

    Each unit's factor is drawn from a generator seeded with
    ``(seed, unit_index)`` so the profile is stateless and replayable.
    """

    inner: WorkProfile
    sigma: float

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < 0.5:
            raise ConfigurationError("sigma must be in [0, 0.5)")

    def work(self, unit_index: int, seed: int = 0) -> float:
        if unit_index < 0:
            raise ConfigurationError("negative unit index")
        base = self.inner.work(unit_index, seed)
        if self.sigma == 0:
            return base
        rng = np.random.default_rng((seed & 0xFFFFFFFF, unit_index))
        factor = math.exp(self.sigma * float(rng.standard_normal()))
        return base * factor


@dataclass(frozen=True)
class TraceProfile(WorkProfile):
    """Replay recorded per-unit work sizes.

    Useful for trace-driven studies: record a real application's
    per-heartbeat work (e.g. frame decode times scaled by a calibrated
    core speed) and replay it deterministically.  Indices past the end
    of the trace wrap around, so a short trace can drive a long run.
    """

    sizes: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ConfigurationError("TraceProfile needs at least one size")
        if any(size <= 0 for size in self.sizes):
            raise ConfigurationError("trace sizes must be positive")

    def work(self, unit_index: int, seed: int = 0) -> float:
        if unit_index < 0:
            raise ConfigurationError("negative unit index")
        return self.sizes[unit_index % len(self.sizes)]


def record_profile(
    profile: WorkProfile, n_units: int, seed: int = 0
) -> TraceProfile:
    """Materialize any profile into a replayable trace."""
    if n_units < 1:
        raise ConfigurationError("n_units must be positive")
    return TraceProfile(
        sizes=tuple(profile.work(i, seed) for i in range(n_units))
    )


def describe_profile(profile: WorkProfile, n_units: int) -> dict:
    """Summary statistics for reports: mean, min, max, CoV (seed 0)."""
    sizes = [profile.work(i, 0) for i in range(n_units)]
    arr = np.asarray(sizes)
    mean = float(arr.mean())
    return {
        "mean": mean,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "cov": float(arr.std() / mean) if mean else 0.0,
    }
