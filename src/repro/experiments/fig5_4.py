"""Figure 5.4: multi-application perf/watt.

Six benchmark pairs run concurrently under four versions (Baseline,
CONS-I, MP-HARS-I, MP-HARS-E), each pair's bar normalized to its
baseline, plus the geometric mean.  The paper's headline: MP-HARS-E beats
the baseline and CONS-I on geomean (by 217 % and 46 % there), except in
case 6 (BO+BL) where CONS-I wins because blackscholes' heartbeat-free
startup lets the global model settle before blackscholes competes.
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
from repro.experiments.versions import MULTI_APP_VERSIONS, version_label
from repro.platform.spec import odroid_xu3
from repro.workloads.parsec import SHORT_CODES, resolve_name

#: The paper's six cases, in figure order.
CASES: Tuple[Tuple[str, str], ...] = (
    ("bodytrack", "swaptions"),      # case 1
    ("blackscholes", "swaptions"),   # case 2
    ("fluidanimate", "blackscholes"),  # case 3
    ("bodytrack", "fluidanimate"),   # case 4
    ("fluidanimate", "swaptions"),   # case 5
    ("bodytrack", "blackscholes"),   # case 6
)

GM = "GM"


def case_label(pair: Tuple[str, str], index: int) -> str:
    """Figure-style label: ``case4:BO+FL``."""
    codes = "+".join(SHORT_CODES[resolve_name(name)] for name in pair)
    return f"case{index + 1}:{codes}"


@dataclass
class MultiAppComparison:
    """Result of the Figure 5.4 grid."""

    versions: Tuple[str, ...]
    #: case label → version → perf/watt normalized to baseline
    normalized: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: case label → version → raw metrics
    raw: Dict[str, Dict[str, RunMetrics]] = field(default_factory=dict)

    @property
    def geomean(self) -> Dict[str, float]:
        return geomean_across(list(self.normalized.values()), list(self.versions))

    def render(self) -> str:
        data = dict(self.normalized)
        data[GM] = self.geomean
        return grouped_bars(
            [*self.normalized.keys(), GM],
            [version_label(v) for v in self.versions],
            {
                row: {version_label(v): values[v] for v in self.versions}
                for row, values in data.items()
            },
            title="Multi-application perf/watt normalized to baseline",
        )


def run_fig5_4(n_units: Optional[int] = None) -> MultiAppComparison:
    """Run the six-case (:data:`CASES`), four-version
    (:data:`MULTI_APP_VERSIONS`) multi-application grid."""
    spec = odroid_xu3()
    comparison = MultiAppComparison(versions=MULTI_APP_VERSIONS)
    for index, pair in enumerate(CASES):
        shapes = [RunShape(benchmark=name, n_units=n_units) for name in pair]
        per_version: Dict[str, RunMetrics] = {}
        for version in MULTI_APP_VERSIONS:
            per_version[version] = run(
                version, shapes, RunConfig(spec=spec)
            ).metrics
        label = case_label(pair, index)
        comparison.raw[label] = per_version
        comparison.normalized[label] = normalize_to_baseline(per_version)
    return comparison
