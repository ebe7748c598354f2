"""Estimator-accuracy validation.

HARS's decisions are only as good as its two estimators, so a credible
reproduction should quantify their error against ground truth.  For a
sample of system states this module runs short measured simulations and
compares

* the **performance estimator**'s transferred rate prediction — rate at
  a reference state scaled by the modelled capacity ratio — against the
  measured rate, and
* the **power estimator**'s prediction (at the measured utilizations'
  modelled equivalents) against the sensor's measured CPU power,

reporting per-state relative errors and the MAPE.  The performance error
folds in everything the paper discusses: the fixed r0 assumption, the
equal-work-split assumption, and GTS-vs-pinned placement differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.perf_estimator import PerformanceEstimator
from repro.core.power_estimator import PowerEstimator
from repro.core.schedulers import CHUNK, apply_assignment
from repro.core.state import SystemState
from repro.errors import ConfigurationError
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.cluster import BIG, LITTLE
from repro.platform.spec import PlatformSpec
from repro.platform.topology import first_n
from repro.sim.engine import Simulation
from repro.sim.process import SimApp

#: Default state sample: spread across both clusters and the freq range.
DEFAULT_SAMPLE: Tuple[SystemState, ...] = (
    SystemState(4, 4, 1600, 1300),
    SystemState(4, 0, 1200, 800),
    SystemState(2, 2, 1000, 1000),
    SystemState(0, 4, 800, 1100),
    SystemState(1, 4, 1400, 1200),
    SystemState(3, 1, 900, 900),
)


@dataclass(frozen=True)
class StateAccuracy:
    """Measured vs predicted at one state."""

    state: SystemState
    measured_rate: float
    predicted_rate: float
    measured_watts: float
    predicted_watts: float

    @property
    def rate_error(self) -> float:
        """Relative rate error (signed; positive = overprediction)."""
        return (self.predicted_rate - self.measured_rate) / self.measured_rate

    @property
    def power_error(self) -> float:
        return (self.predicted_watts - self.measured_watts) / self.measured_watts


@dataclass(frozen=True)
class AccuracyReport:
    """Per-state accuracies plus aggregate MAPE."""

    benchmark: str
    reference_state: SystemState
    rows: Tuple[StateAccuracy, ...]

    @property
    def rate_mape(self) -> float:
        return sum(abs(r.rate_error) for r in self.rows) / len(self.rows)

    @property
    def power_mape(self) -> float:
        return sum(abs(r.power_error) for r in self.rows) / len(self.rows)

    def render(self) -> str:
        lines = [
            f"estimator accuracy — {self.benchmark} "
            f"(reference {self.reference_state.describe()})",
            f"{'state':>16s} {'rate meas/pred':>18s} {'err':>7s} "
            f"{'watts meas/pred':>18s} {'err':>7s}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.state.describe():>16s} "
                f"{row.measured_rate:8.3f}/{row.predicted_rate:<8.3f} "
                f"{row.rate_error:+6.1%} "
                f"{row.measured_watts:8.2f}/{row.predicted_watts:<8.2f} "
                f"{row.power_error:+6.1%}"
            )
        lines.append(
            f"MAPE: rate {self.rate_mape:.1%}, power {self.power_mape:.1%}"
        )
        return "\n".join(lines)


def _measure_state(
    spec: PlatformSpec,
    model_factory,
    state: SystemState,
    perf_estimator: PerformanceEstimator,
    probe_units: int,
) -> Tuple[float, float]:
    """Measured (rate, CPU watts) with HARS-style pinning at ``state``."""
    model = model_factory()
    model.reset()
    sim = Simulation(spec)
    app = sim.add_app(
        SimApp("probe", model, PerformanceTarget(1.0, 1.0, 1.0))
    )
    sim.machine.set_freq_mhz(BIG, state.f_big_mhz)
    sim.machine.set_freq_mhz(LITTLE, state.f_little_mhz)
    estimate = perf_estimator.estimate(state, app.n_threads)
    apply_assignment(
        app,
        estimate.assignment,
        first_n(spec, BIG, estimate.assignment.used_big),
        first_n(spec, LITTLE, estimate.assignment.used_little),
        CHUNK,
    )
    horizon = probe_units * 20.0 + 60.0
    # Skip any heartbeat-free startup phase (e.g. blackscholes' input
    # reading): the estimators model the steady heartbeat-emitting
    # region, so power is measured from the first heartbeat on.
    while len(app.log) == 0 and sim.clock.now_s < horizon:
        sim.step()
    sim.sensor.reset()
    sim.run(until_s=horizon)
    rate = app.log.overall_rate()
    if rate is None or rate <= 0:
        raise ConfigurationError(
            f"{state.describe()}: probe produced no measurable rate"
        )
    cpu_watts = sim.sensor.average_power_w(BIG) + sim.sensor.average_power_w(
        LITTLE
    )
    return rate, cpu_watts


def evaluate_accuracy(
    spec: PlatformSpec,
    model_factory,
    benchmark: str,
    perf_estimator: PerformanceEstimator,
    power_estimator: PowerEstimator,
    states: Sequence[SystemState] = DEFAULT_SAMPLE,
    probe_units: int = 30,
) -> AccuracyReport:
    """Measure the sample states and compare against the estimators.

    The first state is the reference the rate predictions scale from.
    ``model_factory`` must return a fresh workload (with at least
    ``probe_units`` heartbeats) per call.
    """
    if not states:
        raise ConfigurationError("need at least one state to evaluate")
    reference = states[0]
    reference.validate(spec)
    ref_rate, _ = _measure_state(
        spec, model_factory, reference, perf_estimator, probe_units
    )
    rows: List[StateAccuracy] = []
    n_threads = model_factory().n_threads
    for state in states:
        state.validate(spec)
        measured_rate, measured_watts = _measure_state(
            spec, model_factory, state, perf_estimator, probe_units
        )
        predicted_rate = perf_estimator.estimate_rate(
            state, reference, ref_rate, n_threads
        )
        estimate = perf_estimator.estimate(state, n_threads)
        predicted_watts = power_estimator.estimate(state, estimate)
        rows.append(
            StateAccuracy(
                state=state,
                measured_rate=measured_rate,
                predicted_rate=predicted_rate,
                measured_watts=measured_watts,
                predicted_watts=predicted_watts,
            )
        )
    return AccuracyReport(
        benchmark=benchmark, reference_state=reference, rows=tuple(rows)
    )
