"""Ground-truth power model of the HMP platform.

This is the model the *simulated hardware* obeys — the equivalent of the
real silicon on the ODROID-XU3.  HARS never reads it directly; HARS only
sees the :class:`~repro.platform.sensor.PowerSensor` (which samples this
model) and its own *fitted linear* estimator
(:mod:`repro.core.power_estimator`).

Per cluster, with supply voltage ``V(f)`` from the core type's table::

    P_cluster = uncore
              + Σ_powered_cores  leakage(V)
              + Σ_powered_cores  C_dyn · (V/V_ref)² · (f/f0) · activity_core

where ``activity_core`` is the core's utilization this interval times the
running workload's switching-activity factor (idle cores retain a small
residual activity).  Board power is a constant added on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.platform.cluster import BIG, LITTLE, ClusterSpec
from repro.platform.machine import Machine
from repro.platform.spec import PlatformSpec


@dataclass(frozen=True)
class CoreActivity:
    """One core's behaviour over a measurement interval.

    Parameters
    ----------
    utilization:
        Fraction of the interval the core was executing (0..1).
    activity_factor:
        Switching-activity factor of the workload executed (0..1]; a
        compute-dense kernel like swaptions toggles more logic than a
        memory-stalled one like facesim.
    """

    utilization: float
    activity_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.utilization <= 1.0:
            raise ConfigurationError(f"utilization {self.utilization} not in [0,1]")
        if not 0.0 < self.activity_factor <= 1.0:
            raise ConfigurationError(
                f"activity_factor {self.activity_factor} not in (0,1]"
            )


#: Activity of a core with nothing scheduled on it.
IDLE = CoreActivity(utilization=0.0)


class PowerModel:
    """Evaluates instantaneous platform power from per-core activity."""

    def __init__(self, spec: PlatformSpec):
        self.spec = spec
        # (cluster name, freq) -> (dynamic coefficient, leakage watts):
        # both depend only on the operating point, and DVFS tables are a
        # dozen entries, so the cache is tiny and hits every tick.
        self._coeff_cache: Dict[Tuple[str, int], Tuple[float, float]] = {}

    def _coefficients(
        self, cluster: ClusterSpec, freq_mhz: int
    ) -> Tuple[float, float]:
        key = (cluster.name, freq_mhz)
        cached = self._coeff_cache.get(key)
        if cached is None:
            core_type = cluster.core_type
            # Matches CoreType.dynamic_power's evaluation order exactly:
            # C · (V/V_ref)² · (f/f0) is its left-associated prefix, so
            # coefficient · activity is bit-identical to the direct call.
            cached = (
                core_type.dynamic_power(freq_mhz, 1.0),
                core_type.leakage_power(freq_mhz),
            )
            self._coeff_cache[key] = cached
        return cached

    def platform_power(
        self, machine: Machine, activities: Mapping[int, CoreActivity]
    ) -> Dict[str, float]:
        """Instantaneous power of both clusters plus the board constant.

        ``activities`` maps core id → activity; cores absent from the
        mapping are idle.  Returns a dict with keys ``"big"``,
        ``"little"``, ``"board"`` and ``"total"`` — the same channels the
        XU3's INA231 sensors expose.
        """
        readings: Dict[str, float] = {}
        for cluster in self.spec.clusters:
            idle_activity = cluster.core_type.idle_activity
            # Idle cores keep a residual switching activity (imperfect
            # clock gating) plus full leakage.
            acts = [
                activities.get(core_id, IDLE)
                for core_id in machine.core_ids(cluster.name)
            ]
            effective = [
                max(a.utilization * a.activity_factor, idle_activity) for a in acts
            ]
            dyn_coeff, leak_w = self._coefficients(
                cluster, machine.freq_mhz(cluster.name)
            )
            readings[cluster.name] = cluster_power_sum(
                cluster.uncore_power_w, dyn_coeff, leak_w, effective
            )
        return self._with_board(readings)

    def platform_power_arrays(
        self,
        machine: Machine,
        busy_s: Sequence[float],
        busy_activity: Sequence[float],
        dt: float,
    ) -> Dict[str, float]:
        """Array-indexed equivalent of :meth:`platform_power`.

        ``busy_s[core_id]`` / ``busy_activity[core_id]`` are the tick's
        per-core busy seconds and busy·activity sums (zero for idle
        cores).  The clamp to an effective activity is written inline,
        not called per core, on the single-board tick's hot path;
        :func:`effective_activity_rows` is its fleet-engine twin.
        """
        readings: Dict[str, float] = {}
        for cluster in self.spec.clusters:
            idle_activity = cluster.core_type.idle_activity
            effective = []
            for core_id in machine.core_ids(cluster.name):
                core_busy = busy_s[core_id]
                if core_busy > 0:
                    util = core_busy / dt
                    if util > 1.0:
                        util = 1.0
                    activity = busy_activity[core_id] / core_busy
                    if activity > 1.0:
                        activity = 1.0
                    value = util * activity
                    effective.append(
                        idle_activity if value < idle_activity else value
                    )
                else:
                    effective.append(idle_activity)
            dyn_coeff, leak_w = self._coefficients(
                cluster, machine.freq_mhz(cluster.name)
            )
            readings[cluster.name] = cluster_power_sum(
                cluster.uncore_power_w, dyn_coeff, leak_w, effective
            )
        return self._with_board(readings)

    def _with_board(self, readings: Dict[str, float]) -> Dict[str, float]:
        """Add the board constant and the total to the cluster readings."""
        readings["board"] = self.spec.board_power_w
        readings["total"] = readings[BIG] + readings[LITTLE] + readings["board"]
        return readings


def cluster_power_sum(uncore_w, dyn_coeff, leak_w, effective):
    """One cluster's power: ``uncore_w``, then per core, in core order,
    ``+ dyn_coeff · activity`` and ``+ leak_w``.

    ``effective`` lists the cores' effective activities: floats for one
    board, or per-row columns (with per-row coefficients) for the fleet
    engine — elementwise, so every row gets the same float.
    """
    total = uncore_w
    for activity in effective:
        total = total + dyn_coeff * activity
        total = total + leak_w
    return total


def effective_activity_rows(core_busy, core_ba, dt, idle_activity):
    """``(row, core)`` effective activities for the fleet engine: the
    numpy twin of the clamp :meth:`PowerModel.platform_power_arrays`
    writes inline (a call per core would slow the scalar tick)."""
    busy_pos = core_busy > 0
    util = core_busy / dt
    util = np.where(util > 1.0, 1.0, util)
    activity = core_ba / np.where(busy_pos, core_busy, 1.0)
    activity = np.where(activity > 1.0, 1.0, activity)
    effective = util * activity
    effective = np.where(effective < idle_activity, idle_activity, effective)
    return np.where(busy_pos, effective, idle_activity)
