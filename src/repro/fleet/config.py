"""Fleet configuration: one frozen object describing a whole cluster run.

A :class:`FleetConfig` plays the same role for :mod:`repro.fleet` that
:class:`~repro.experiments.runner.RunShape` plays for single-board runs:
everything that defines the experiment apart from the routing policy.
It rides inside :class:`~repro.experiments.runner.RunConfig` (the
``fleet`` field) so the unified ``repro.experiments.run()`` entry point
dispatches fleet runs too.

The module is deliberately dependency-light — ``RunConfig`` imports it
eagerly, and pulling the whole simulation stack in at import time would
slow every ``import repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.fleet.chaos import FleetFaultConfig
from repro.fleet.resilience import ResilienceConfig

#: Arrival-trace shapes :func:`repro.fleet.trace.make_trace` understands.
TRACES = ("poisson", "diurnal", "burst")

#: Span of the timed rate window feeding the deadline targets (seconds).
RATE_SPAN_S = 2.0


@dataclass(frozen=True)
class FleetConfig:
    """Everything that defines a fleet run apart from the router.

    Parameters
    ----------
    nodes:
        Number of simulated big.LITTLE boards behind the load balancer.
    seed:
        Seed for the arrival trace (service sizes, gaps, deadlines).
    tick_s:
        Simulation tick of every node (coarser than the single-board
        default: each tick steps all ``nodes`` rows of the fleet engine).
    trace:
        Arrival-trace shape: ``"poisson"``, ``"diurnal"`` or ``"burst"``.
    requests:
        Total requests in the trace (fleet-wide, open loop).
    per_node_rps:
        Mean fleet arrival rate expressed per node; the trace generator
        uses ``per_node_rps * nodes`` as its base rate.
    deadline_s:
        Per-request latency deadline (arrival-relative).
    service_units:
        Mean request size in work units (one unit ≈ one little-core
        second at the baseline frequency).
    heavy_fraction:
        Fraction of requests drawn from the heavy mode of the bimodal
        service-size distribution — the head-of-line blockers that make
        deadline-aware routing matter.
    heavy_scale:
        Size multiplier of the heavy mode.
    lane_threads:
        Threads per serving lane (each node runs a ``hot`` and a ``base``
        lane; see :mod:`repro.fleet.node`).
    adapt_every:
        MP-HARS adaptation period (heartbeats) on every node.
    percentile:
        Tail percentile the per-lane deadline targets steer on.
    slack:
        Headroom fraction of the deadline the controller aims below:
        the comfort point is ``(1 - slack) * deadline_s``.
    chaos:
        Node mortality model (:class:`~repro.fleet.chaos.
        FleetFaultConfig`): seeded crash/hang/slowdown schedules.  None
        (or a fully disabled config) leaves the run bit-identical to a
        fleet built without a chaos layer.
    resilience:
        Request-lifecycle policy (:class:`~repro.fleet.resilience.
        ResilienceConfig`): failover routing, per-attempt retries,
        hedging, admission control.  None means defaults when chaos is
        on (failover only) and *no resilience layer at all* otherwise.
    """

    nodes: int = 50
    seed: int = 0
    tick_s: float = 0.02
    trace: str = "poisson"
    requests: int = 10_000
    per_node_rps: float = 8.0
    deadline_s: float = 0.5
    service_units: float = 0.05
    heavy_fraction: float = 0.15
    heavy_scale: float = 6.0
    lane_threads: int = 2
    adapt_every: int = 5
    percentile: float = 95.0
    slack: float = 0.4
    chaos: Optional[FleetFaultConfig] = None
    resilience: Optional[ResilienceConfig] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("a fleet needs at least one node")
        if self.trace not in TRACES:
            raise ConfigurationError(
                f"unknown trace {self.trace!r}; valid: {TRACES}"
            )
        if self.requests < 1:
            raise ConfigurationError("need at least one request")
        if self.per_node_rps <= 0:
            raise ConfigurationError("per_node_rps must be positive")
        if self.tick_s <= 0:
            raise ConfigurationError("tick must be positive")
        if self.deadline_s <= 0:
            raise ConfigurationError("deadline must be positive")
        if self.service_units <= 0:
            raise ConfigurationError("service_units must be positive")
        if not 0 <= self.heavy_fraction < 1:
            raise ConfigurationError("heavy_fraction must be in [0, 1)")
        if self.heavy_scale < 1:
            raise ConfigurationError("heavy_scale must be >= 1")
        if self.lane_threads < 1:
            raise ConfigurationError("lane_threads must be >= 1")
        if not 0 < self.percentile <= 100:
            raise ConfigurationError("percentile must be in (0, 100]")
        if not 0 < self.slack < 1:
            raise ConfigurationError("slack must be in (0, 1)")
        if self.chaos is not None and not isinstance(
            self.chaos, FleetFaultConfig
        ):
            raise ConfigurationError(
                f"chaos must be a FleetFaultConfig, got "
                f"{type(self.chaos).__name__}"
            )
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceConfig
        ):
            raise ConfigurationError(
                f"resilience must be a ResilienceConfig, got "
                f"{type(self.resilience).__name__}"
            )

    @property
    def arrival_rps(self) -> float:
        """Fleet-wide mean arrival rate the trace generator targets."""
        return self.per_node_rps * self.nodes
