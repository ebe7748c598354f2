"""Power-profiling microbenchmark.

The paper fits its power estimator against data "collected by the
microbenchmark, which stresses the cores and memory with running tasks"
and "can configure the number of cores, frequency level, and CPU
utilization" (Section 3.1.2).  This module provides both faces of that
tool:

* :class:`MicrobenchWorkload` — a duty-cycled spin workload that can run
  under the simulation engine (integration tests use it), and
* :func:`profile_power` — the profiling sweep itself: it drives the
  ground-truth power model through the configured operating points and
  records what the power *sensor* reports, producing the
  ``(C_used · U, watts)`` sample set the linear regression is fitted on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.platform.cluster import ClusterSpec
from repro.platform.machine import Machine
from repro.platform.power import CoreActivity, PowerModel
from repro.platform.sensor import PowerSensor
from repro.platform.spec import PlatformSpec
from repro.workloads.base import AdvanceResult, WorkloadModel, WorkloadTraits

#: Utilization levels the profiling sweep visits.
DEFAULT_UTILIZATIONS: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)

#: Seconds of sensor data collected per operating point.
DEFAULT_DWELL_S = 3.0

#: Sensor sampling tick of the profiling sweep.
PROFILE_TICK_S = 0.01


class MicrobenchWorkload(WorkloadModel):
    """Endless duty-cycled spin loop with a configurable utilization.

    Each thread consumes ``duty`` of whatever capacity it is granted and
    idles the rest, so a thread pinned alone on a core produces exactly
    ``duty`` core utilization.  It emits no heartbeats and never finishes
    on its own; runs are bounded by simulation time.
    """

    def __init__(self, n_threads: int, duty: float = 1.0):
        if not 0.0 < duty <= 1.0:
            raise ConfigurationError(f"duty {duty} not in (0, 1]")
        traits = WorkloadTraits(
            name="microbench", big_little_ratio=1.5, activity_factor=1.0
        )
        super().__init__(traits, n_threads)
        self.duty = duty
        #: Every thread spins: one immutable sequence serves every call.
        self._threads = range(n_threads)
        self.reset()

    def reset(self, seed: int = 0) -> None:
        self._work_done = 0.0

    def runnable_threads(self) -> range:
        return self._threads

    def advance(self, grants: Dict[int, float]) -> AdvanceResult:
        consumed = {i: g * self.duty for i, g in grants.items()}
        self._work_done += sum(consumed.values())
        return AdvanceResult(consumed=consumed)

    def is_done(self) -> bool:
        return False

    def total_heartbeats(self) -> int:
        return 0

    @property
    def work_done(self) -> float:
        """Total work executed (tests check duty-cycle accounting)."""
        return self._work_done


@dataclass(frozen=True)
class ProfilePoint:
    """One profiled operating point of one cluster."""

    cluster: str
    freq_mhz: int
    cores_used: int
    utilization: float
    watts: float  # sensor-reported cluster power


def profile_power(
    spec: PlatformSpec,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    dwell_s: float = DEFAULT_DWELL_S,
) -> List[ProfilePoint]:
    """Run the profiling sweep and return the sensor-observed samples.

    For every cluster, every DVFS operating point, every used-core count
    ``1..n`` and every utilization level, the ground-truth power model is
    observed through a :class:`PowerSensor` for ``dwell_s`` seconds,
    sampled every :data:`PROFILE_TICK_S`.  The
    *other* cluster idles at its minimum frequency during the run, and its
    idle draw is not attributed to the cluster under test — matching how
    the paper isolates per-cluster rails with the on-board sensors.
    """
    if dwell_s <= 0:
        raise ConfigurationError("dwell must be positive")
    model = PowerModel(spec)
    points: List[ProfilePoint] = []
    for cluster in spec.clusters:
        for freq in cluster.frequencies_mhz:
            for cores_used in range(1, cluster.n_cores + 1):
                for util in utilizations:
                    if not 0 < util <= 1:
                        raise ConfigurationError(f"utilization {util} not in (0,1]")
                    watts = _observe_point(
                        spec, model, cluster, freq, cores_used, util, dwell_s
                    )
                    points.append(
                        ProfilePoint(
                            cluster=cluster.name,
                            freq_mhz=freq,
                            cores_used=cores_used,
                            utilization=util,
                            watts=watts,
                        )
                    )
    return points


def _observe_point(
    spec: PlatformSpec,
    model: PowerModel,
    cluster: ClusterSpec,
    freq_mhz: int,
    cores_used: int,
    utilization: float,
    dwell_s: float,
) -> float:
    """Sensor-average cluster power at one microbenchmark setting."""
    machine = Machine(spec)
    for other in spec.clusters:
        machine.set_freq_mhz(other.name, other.min_freq_mhz)
    machine.set_freq_mhz(cluster.name, freq_mhz)
    activities = {
        core_id: CoreActivity(utilization=utilization, activity_factor=1.0)
        for core_id in cluster.core_ids[:cores_used]
    }
    # The operating point holds for the whole dwell, so one evaluation
    # is every tick's reading (and the sensor's reused-reading path).
    watts = model.platform_power(machine, activities)
    sensor = PowerSensor()
    elapsed = 0.0
    while elapsed < dwell_s:
        sensor.record(PROFILE_TICK_S, watts)
        elapsed += PROFILE_TICK_S
    # best_average_w degrades to the integrated average if every sample
    # in the dwell was dropped by a faulty sensor.
    return sensor.best_average_w(cluster.name)
