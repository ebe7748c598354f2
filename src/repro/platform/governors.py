"""Linux cpufreq governor models.

The paper's baseline pins everything at maximum frequency (the
``performance`` governor).  Real deployments often run ``ondemand`` —
jump to maximum frequency when a cluster gets busy, step down when it
idles — so the library ships the classic governor family as controllers,
both as substrate completeness and as an extra comparison point for
HARS (which replaces the governor entirely via per-cluster
``scaling_setspeed``).

Governors are :class:`~repro.sim.controller.Controller`\\ s driven by the
engine's per-core utilization of each tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.errors import ConfigurationError
from repro.platform.cluster import BIG, LITTLE
from repro.sim.controller import Controller

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulation


class PerformanceGovernor(Controller):
    """Pin both clusters at maximum frequency (the baseline's setting)."""

    def on_start(self, sim: "Simulation") -> None:
        sim.actuator.set_max_frequencies()


class PowersaveGovernor(Controller):
    """Pin both clusters at minimum frequency."""

    def on_start(self, sim: "Simulation") -> None:
        sim.actuator.set_min_frequencies()


class OndemandGovernor(Controller):
    """The classic ondemand policy, per cluster.

    Every ``sample_period_s`` of simulated time, per cluster: if the
    busiest core's utilization over the last tick exceeds
    ``up_threshold``, jump straight to the maximum frequency; otherwise
    set the lowest frequency that would keep that utilization below the
    threshold (``f ≥ f_cur · util / up_threshold``), exactly the
    ondemand scaling rule.
    """

    def __init__(
        self,
        up_threshold: float = 0.80,
        sample_period_s: float = 0.1,
    ):
        if not 0 < up_threshold <= 1:
            raise ConfigurationError("up_threshold must be in (0, 1]")
        if sample_period_s <= 0:
            raise ConfigurationError("sample period must be positive")
        self.up_threshold = up_threshold
        self.sample_period_s = sample_period_s
        self._next_sample_s = 0.0
        self.decisions = 0

    def on_start(self, sim: "Simulation") -> None:
        # Ondemand idles low and ramps on demand.
        sim.actuator.set_min_frequencies()
        self._next_sample_s = self.sample_period_s

    def on_tick(self, sim: "Simulation") -> None:
        if sim.clock.now_s + 1e-12 < self._next_sample_s:
            return
        self._next_sample_s = sim.clock.now_s + self.sample_period_s
        for cluster_name in (BIG, LITTLE):
            self._scale_cluster(sim, cluster_name)
        self.decisions += 1

    def _scale_cluster(self, sim: "Simulation", cluster_name: str) -> None:
        cluster = sim.spec.cluster(cluster_name)
        busiest = max(
            (
                sim.last_core_utilization.get(core_id, 0.0)
                for core_id in cluster.core_ids
            ),
            default=0.0,
        )
        current = sim.machine.freq_mhz(cluster_name)
        if busiest > self.up_threshold:
            sim.machine.set_freq_mhz(cluster_name, cluster.max_freq_mhz)
            return
        # Scale down to the lowest frequency that still keeps the
        # busiest core under the threshold at its current work rate.
        needed_mhz = current * busiest / self.up_threshold
        for freq in cluster.frequencies_mhz:
            if freq >= needed_mhz:
                sim.machine.set_freq_mhz(cluster_name, freq)
                return
        sim.machine.set_freq_mhz(cluster_name, cluster.max_freq_mhz)


#: Governor registry by cpufreq name.
GOVERNORS: Dict[str, type] = {
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "ondemand": OndemandGovernor,
}
