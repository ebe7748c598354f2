"""Figure 5.1: perf/watt at the default target (50 % ± 5 %).

One bar group per PARSEC benchmark, five versions (Baseline, SO, HARS-I,
HARS-E, HARS-EI), every bar normalized to the baseline version, plus the
geometric mean ("GM").  The same machinery parameterized by target
fraction also produces Figure 5.2 (75 % ± 5 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.metrics import (
    RunMetrics,
    geomean_across,
    normalize_to_baseline,
)
from repro.experiments.report import grouped_bars
from repro.experiments.runner import RunConfig, RunShape, run
from repro.experiments.versions import SINGLE_APP_VERSIONS, version_label
from repro.platform.spec import PlatformSpec, odroid_xu3
from repro.workloads.parsec import BENCHMARKS, SHORT_CODES

#: Row label of the geometric-mean row.
GM = "GM"


@dataclass
class PerfWattComparison:
    """Result of one Figure-5.1-style comparison."""

    target_fraction: float
    versions: Tuple[str, ...]
    #: benchmark code ("BL") → version → perf/watt normalized to baseline
    normalized: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: benchmark code → version → raw RunMetrics
    raw: Dict[str, Dict[str, RunMetrics]] = field(default_factory=dict)

    @property
    def geomean(self) -> Dict[str, float]:
        """The "GM" bar group."""
        return geomean_across(list(self.normalized.values()), list(self.versions))

    def render(self) -> str:
        data = dict(self.normalized)
        data[GM] = self.geomean
        title = (
            f"Perf/watt normalized to baseline "
            f"(target {self.target_fraction:.0%} ± 5% of max)"
        )
        return grouped_bars(
            [*self.normalized.keys(), GM],
            [version_label(v) for v in self.versions],
            {
                row: {
                    version_label(v): values[v] for v in self.versions
                }
                for row, values in data.items()
            },
            title=title,
        )


def run_perf_watt_comparison(
    target_fraction: float,
    spec: Optional[PlatformSpec] = None,
    benchmarks: Optional[List[str]] = None,
    versions: Tuple[str, ...] = SINGLE_APP_VERSIONS,
    n_units: Optional[int] = None,
) -> PerfWattComparison:
    """Run the full benchmark × version grid at one target fraction.

    ``n_units`` scales every benchmark down for quick runs (``None`` uses
    the native-input sizes).
    """
    spec = spec or odroid_xu3()
    names = benchmarks if benchmarks is not None else list(BENCHMARKS)
    comparison = PerfWattComparison(
        target_fraction=target_fraction, versions=versions
    )
    for name in names:
        shape = RunShape(
            benchmark=name,
            n_units=n_units,
            target_fraction=target_fraction,
        )
        per_version: Dict[str, RunMetrics] = {}
        for version in versions:
            per_version[version] = run(
                version, shape, RunConfig(spec=spec)
            ).metrics
        code = SHORT_CODES.get(name, name.upper())
        comparison.raw[code] = per_version
        comparison.normalized[code] = normalize_to_baseline(per_version)
    return comparison


def run_fig5_1(
    n_units: Optional[int] = None,
    benchmarks: Optional[List[str]] = None,
) -> PerfWattComparison:
    """Figure 5.1: the default performance target."""
    return run_perf_watt_comparison(0.5, benchmarks=benchmarks, n_units=n_units)
