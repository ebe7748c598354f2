"""Run-level metrics: the quantities the paper's figures plot.

The paper's efficiency metric is *normalized performance per watt*
(Section 3.1.3): normalized performance is ``min(g, h)/g`` — capped at 1
because overperformance has no benefit — and power is the run's average
total draw.  Figures normalize each version's perf/watt to the baseline
version and summarize across benchmarks with the geometric mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.units import geometric_mean


@dataclass(frozen=True)
class AppRunMetrics:
    """Per-application outcome of one run."""

    app_name: str
    heartbeats: int
    overall_rate: float
    mean_normalized_perf: float
    target_min: float
    target_avg: float
    target_max: float

    def __post_init__(self) -> None:
        if self.heartbeats < 0 or self.overall_rate < 0:
            raise ConfigurationError("negative run metric")
        if not 0 <= self.mean_normalized_perf <= 1:
            raise ConfigurationError(
                f"normalized perf {self.mean_normalized_perf} not in [0,1]"
            )


@dataclass(frozen=True)
class RunMetrics:
    """Whole-run outcome: applications + power + manager overhead."""

    version: str
    apps: Tuple[AppRunMetrics, ...]
    elapsed_s: float
    avg_power_w: float
    manager_overhead_s: float = 0.0
    final_state: str = ""

    def __post_init__(self) -> None:
        if not self.apps:
            raise ConfigurationError("run produced no application metrics")
        if self.elapsed_s <= 0 or self.avg_power_w <= 0:
            raise ConfigurationError("elapsed time and power must be positive")

    @property
    def perf_per_watt(self) -> float:
        """Normalized performance per watt.

        For a single application this is the paper's metric exactly; for
        multi-application cases (Figure 5.4's one-bar-per-case), the
        numerator is the *mean* of the apps' normalized performances over
        the *total* average power, so a version that starves one app to
        please another is penalized.
        """
        mean_perf = sum(a.mean_normalized_perf for a in self.apps) / len(
            self.apps
        )
        return mean_perf / self.avg_power_w

    @property
    def manager_cpu_percent(self) -> float:
        """Manager overhead as percent of one CPU (Figure 5.3b)."""
        return 100.0 * self.manager_overhead_s / self.elapsed_s

    def app(self, name: str) -> AppRunMetrics:
        for metrics in self.apps:
            if metrics.app_name == name:
                return metrics
        raise ConfigurationError(f"no metrics for app {name!r}")


def normalize_to_baseline(results: Mapping[str, RunMetrics]) -> Dict[str, float]:
    """Perf/watt of each version relative to the ``"baseline"`` version's."""
    if "baseline" not in results:
        raise ConfigurationError(
            "baseline version 'baseline' missing from results"
        )
    base = results["baseline"].perf_per_watt
    if base <= 0:
        raise ConfigurationError("baseline perf/watt must be positive")
    return {name: run.perf_per_watt / base for name, run in results.items()}


def geomean_across(
    per_benchmark: Sequence[Mapping[str, float]], versions: Sequence[str]
) -> Dict[str, float]:
    """Geometric mean of normalized scores per version (the "GM" bar)."""
    means: Dict[str, float] = {}
    for version in versions:
        values: List[float] = []
        for row in per_benchmark:
            if version not in row:
                raise ConfigurationError(
                    f"version {version!r} missing from a benchmark row"
                )
            values.append(row[version])
        means[version] = geometric_mean(values)
    return means
