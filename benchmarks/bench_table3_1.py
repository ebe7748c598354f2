"""Table 3.1 — thread assignment to the big and little clusters.

Regenerates the assignment table for the evaluation platform
(C_B = C_L = 4, r = 1.5) and checks the published rows.
"""

from conftest import run_once

from repro.experiments.table3_1 import build_table, render_table


def test_table3_1(benchmark):
    rows = run_once(benchmark, build_table, 16)
    print()
    print("Table 3.1 — thread assignment (C_B = C_L = 4, r = 1.5)")
    print(render_table(rows))
    # The paper's own configuration: 8 threads on the 4+4 XU3.
    eight = rows[7].assignment
    assert (eight.t_big, eight.t_little) == (6, 2)
    assert (eight.used_big, eight.used_little) == (4, 2)
