"""Figure 5.3: efficiency and overhead versus the explored-space size.

The distance parameter ``d`` of the HARS-EI search is swept over
{1, 3, 5, 7, 9} for both targets:

* 5.3(a) — geometric-mean perf/watt across the benchmarks, normalized to
  ``d = 1``; the paper observes efficiency rising to a knee near
  ``d = 5``;
* 5.3(b) — the runtime manager's average CPU utilization, growing with
  ``d`` but staying under ~6 % at ``d = 9``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import format_table
from repro.experiments.runner import RunConfig, RunShape, run
from repro.platform.spec import odroid_xu3
from repro.units import geometric_mean, mean
from repro.workloads.parsec import BENCHMARKS

#: The paper's sweep: d from 1 to 9 with a step of 2.
DISTANCES: Tuple[int, ...] = (1, 3, 5, 7, 9)

#: Target fractions evaluated (default and high).
TARGETS: Tuple[float, ...] = (0.5, 0.75)


@dataclass
class DistanceSweep:
    """Result of the Figure 5.3 sweep."""

    distances: Tuple[int, ...]
    #: target fraction → d → geomean perf/watt normalized to d = 1
    efficiency: Dict[float, Dict[int, float]] = field(default_factory=dict)
    #: target fraction → d → mean manager CPU percent
    cpu_percent: Dict[float, Dict[int, float]] = field(default_factory=dict)

    def knee(self, target_fraction: float, tolerance: float = 0.03) -> int:
        """Smallest ``d`` whose efficiency is within ``tolerance`` (3 %)
        of the sweep's best — the paper's observed threshold (d = 5)."""
        series = self.efficiency[target_fraction]
        best = max(series.values())
        for distance in sorted(series):
            if series[distance] >= best * (1 - tolerance):
                return distance
        return max(series)  # pragma: no cover - series is non-empty

    def render(self) -> str:
        rows = []
        for target in sorted(self.efficiency):
            for distance in self.distances:
                rows.append(
                    [
                        f"{target:.0%}",
                        distance,
                        self.efficiency[target][distance],
                        self.cpu_percent[target][distance],
                    ]
                )
        return format_table(
            ["target", "d", "norm perf/watt (vs d=1)", "manager CPU %"],
            rows,
        )


def run_fig5_3(
    benchmarks: Optional[List[str]] = None,
    n_units: Optional[int] = None,
) -> DistanceSweep:
    """Run the HARS-EI distance sweep over :data:`DISTANCES` for both
    :data:`TARGETS`."""
    spec = odroid_xu3()
    names = benchmarks if benchmarks is not None else list(BENCHMARKS)
    sweep = DistanceSweep(distances=DISTANCES)
    for target in TARGETS:
        raw_pp: Dict[int, List[float]] = {d: [] for d in DISTANCES}
        raw_cpu: Dict[int, List[float]] = {d: [] for d in DISTANCES}
        for name in names:
            shape = RunShape(
                benchmark=name, n_units=n_units, target_fraction=target
            )
            for distance in DISTANCES:
                metrics = run(
                    f"hars-d{distance}", shape, RunConfig(spec=spec)
                ).metrics
                raw_pp[distance].append(metrics.perf_per_watt)
                raw_cpu[distance].append(metrics.manager_cpu_percent)
        gm = {d: geometric_mean(raw_pp[d]) for d in DISTANCES}
        base = gm[DISTANCES[0]]
        sweep.efficiency[target] = {d: gm[d] / base for d in DISTANCES}
        sweep.cpu_percent[target] = {d: mean(raw_cpu[d]) for d in DISTANCES}
    return sweep
