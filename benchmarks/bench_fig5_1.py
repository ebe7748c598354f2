"""Figure 5.1 — perf/watt at the default target (50 % ± 5 %).

Six PARSEC benchmarks × five versions (Baseline, SO, HARS-I, HARS-E,
HARS-EI), normalized to the baseline, plus the geometric mean.

Paper shape to match: baseline worst everywhere; HARS-I well above the
baseline but below SO; HARS-E comparable to SO; SO clearly ahead of HARS
on blackscholes (the r0 misprediction); HARS-EI ≥ HARS-E with the gap on
ferret (pipeline imbalance).

Input size: with ``REPRO_BENCH_UNITS=N`` the shape asserts hold for
every N from 54 to 60 (the largest checked).  Every N from 40 to 53
fails one assert, HARS-E within 15 % of SO on the geometric mean: the
ratio rises, not strictly, from 0.817 at N = 40 to 0.848 at N = 53,
and is 0.850 at N = 54.  A reduced-size run needs N >= 54.
"""

from conftest import bench_units, run_once

from repro.experiments.fig5_1 import run_fig5_1


def test_fig5_1(benchmark):
    comparison = run_once(benchmark, run_fig5_1, bench_units())
    print()
    print(comparison.render())
    gm = comparison.geomean

    # Ordering across the geometric mean.
    assert 1.0 == comparison.normalized["SW"]["baseline"]
    assert gm["baseline"] < gm["hars-i"] < gm["hars-e"]
    assert gm["hars-e"] >= 2.0  # "significantly outperforms the baseline"
    # HARS-E comparable to the static optimal (within ~15 % on GM).
    assert gm["hars-e"] / gm["so"] > 0.85
    # HARS-EI at least matches HARS-E.
    assert gm["hars-ei"] >= 0.98 * gm["hars-e"]
    # blackscholes: SO largely outperforms HARS (wrong r0).
    assert comparison.normalized["BL"]["so"] > 1.1 * (
        comparison.normalized["BL"]["hars-e"]
    )
