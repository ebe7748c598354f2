"""Figure 5.2 — perf/watt at the high target (75 % ± 5 %).

Same grid as Figure 5.1 at the demanding target.  Paper shape: every
adaptive version still clearly beats the baseline, but the gains are
*smaller* than at the default target because less energy slack remains.
"""

from conftest import bench_units, run_once

from repro.experiments.fig5_1 import run_fig5_1
from repro.experiments.fig5_2 import gain_compression, run_fig5_2


def test_fig5_2(benchmark):
    high = run_once(benchmark, run_fig5_2, bench_units())
    default = run_fig5_1(n_units=bench_units())
    print()
    print(high.render())
    compression = gain_compression(default, high)
    print("\nGM gain at 75% target / GM gain at 50% target:")
    for version, ratio in compression.items():
        print(f"  {version}: {ratio:.2f}")

    gm = high.geomean
    assert gm["hars-e"] > 1.3  # still significantly above baseline
    # The paper's compression finding: smaller gains at the high target.
    for version in ("so", "hars-e", "hars-ei"):
        assert compression[version] < 1.0
