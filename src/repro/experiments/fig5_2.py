"""Figure 5.2: perf/watt at the high target (75 % ± 5 %).

Same grid as Figure 5.1 at a more demanding target.  The paper's
observation to reproduce: the efficiency gains of SO and HARS over the
baseline *shrink* versus the default target, because less slack remains
between the target and the maximum state.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.fig5_1 import PerfWattComparison, run_perf_watt_comparison

#: The high target fraction (75 % ± 5 % of maximum achievable).
HIGH_TARGET_FRACTION = 0.75


def run_fig5_2(
    n_units: Optional[int] = None,
    benchmarks: Optional[List[str]] = None,
) -> PerfWattComparison:
    """Figure 5.2: the high performance target."""
    return run_perf_watt_comparison(
        HIGH_TARGET_FRACTION, benchmarks=benchmarks, n_units=n_units
    )


def gain_compression(
    default_run: PerfWattComparison, high_run: PerfWattComparison
) -> dict:
    """Per-version ratio of high-target GM gain to default-target GM gain.

    Values below 1 confirm the paper's compression finding.
    """
    default_gm = default_run.geomean
    high_gm = high_run.geomean
    return {
        version: high_gm[version] / default_gm[version]
        for version in default_gm
        if version in high_gm and default_gm[version] > 0
    }
