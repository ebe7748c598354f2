"""Seeded open-loop arrival traces.

A fleet run is driven by a pre-generated request trace — open loop, the
way production load arrives: requests show up on their own schedule
whether or not the cluster keeps up (closed-loop heartbeat targets, by
contrast, only ever see the work the system admits).  Generating the
whole trace up front, from one seeded :class:`random.Random`, is what
makes the cluster deterministic: the trace depends only on the
:class:`~repro.fleet.config.FleetConfig`, never on how the nodes are
stepped.

Three shapes:

* ``poisson`` — stationary Poisson arrivals at the configured rate;
* ``diurnal`` — a non-homogeneous Poisson process whose rate follows a
  sinusoid (the classic day/night traffic curve, compressed to
  simulation scale);
* ``burst``  — on/off modulation: short windows at ``_BURST_SCALE``
  times the base rate, damped in between so the long-run mean stays
  put.

Service sizes are bimodal: most requests are small, a fraction
:data:`HEAVY_FRACTION` is :data:`HEAVY_SCALE` times larger.  The heavy
tail is what makes deadline-aware routing interesting — small requests
stuck behind a heavy one in FIFO order are exactly the deadline misses
the Hurry-up router exists to prevent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig

#: Mean request size in work units (one unit ≈ one little-core second
#: at the baseline frequency).
SERVICE_UNITS = 0.05

#: Fraction of requests drawn from the heavy mode of the bimodal
#: service-size distribution — the head-of-line blockers that make
#: deadline-aware routing matter.
HEAVY_FRACTION = 0.15

#: Size multiplier of the heavy mode.
HEAVY_SCALE = 6.0

#: Uniform jitter applied to every service size (± half of this range).
_SIZE_JITTER = (0.5, 1.5)

#: Application label stamped on every request (a telemetry label).
APP_ID = "search"

#: Period and depth of the ``diurnal`` trace's sinusoidal rate.
_DIURNAL_PERIOD_S = 20.0
_DIURNAL_DEPTH = 0.8

#: On/off modulation of the ``burst`` trace: for ``_BURST_DUTY`` of each
#: ``_BURST_PERIOD_S`` the rate is ``_BURST_SCALE`` times the base rate.
_BURST_PERIOD_S = 4.0
_BURST_DUTY = 0.3
_BURST_SCALE = 3.0

#: Off-window damping of the burst trace (keeps the long-run mean rate
#: close to the configured base rate).
_BURST_OFF_FACTOR = 0.4


@dataclass(frozen=True)
class Request:
    """One request of the open-loop trace.

    ``deadline_s`` is absolute simulated time (arrival + deadline
    budget); ``service_units`` is the work the serving lane must grant
    (one unit ≈ one little-core second at the baseline frequency).
    ``heavy`` marks the large mode of the bimodal size distribution.
    """

    index: int
    app: str
    arrival_s: float
    service_units: float
    deadline_s: float
    heavy: bool = False

    @property
    def budget_s(self) -> float:
        """Deadline budget relative to arrival."""
        return self.deadline_s - self.arrival_s


def make_trace(config: FleetConfig) -> Tuple[Request, ...]:
    """Generate the full arrival trace for one fleet run.

    Deterministic in ``config`` alone; arrivals are non-decreasing in
    time and indices follow arrival order.
    """
    rng = random.Random(config.seed)
    rate_fn = _RATE_SHAPES.get(config.trace)
    if rate_fn is None:
        raise ConfigurationError(f"unknown trace shape {config.trace!r}")
    base = config.arrival_rps
    requests = []
    now = 0.0
    for index in range(config.requests):
        rate = rate_fn(config, base, now)
        now += rng.expovariate(rate)
        heavy = rng.random() < HEAVY_FRACTION
        units = SERVICE_UNITS * rng.uniform(*_SIZE_JITTER)
        if heavy:
            units *= HEAVY_SCALE
        requests.append(
            Request(
                index=index,
                app=APP_ID,
                arrival_s=now,
                service_units=units,
                deadline_s=now + config.deadline_s,
                heavy=heavy,
            )
        )
    return tuple(requests)


def _poisson_rate(config: FleetConfig, base: float, now_s: float) -> float:
    return base


def _diurnal_rate(config: FleetConfig, base: float, now_s: float) -> float:
    """Sinusoidal day/night curve; floored so the process never stalls."""
    phase = 2.0 * math.pi * now_s / _DIURNAL_PERIOD_S
    return max(base * (1.0 + _DIURNAL_DEPTH * math.sin(phase)), base * 0.05)


def _burst_rate(config: FleetConfig, base: float, now_s: float) -> float:
    """On/off traffic: the first ``_BURST_DUTY`` of each period burns hot."""
    position = math.fmod(now_s, _BURST_PERIOD_S) / _BURST_PERIOD_S
    if position < _BURST_DUTY:
        return base * _BURST_SCALE
    return base * _BURST_OFF_FACTOR


_RATE_SHAPES = {
    "poisson": _poisson_rate,
    "diurnal": _diurnal_rate,
    "burst": _burst_rate,
}
