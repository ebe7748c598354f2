"""Reference runs reproduce their recorded digests byte for byte.

``digests.json`` holds the sha256 digests (see :mod:`tests.golden`)
recorded when the simulator still had three interchangeable tick and
planner paths whose outputs the parity suites proved identical; the
one remaining path must keep producing the same bytes.  A failure means
a change moved a metric or a trace row, not merely a speed.

The four end-to-end planner runs are asserted by
``tests/kernel/test_batchplan.py::TestEndToEndProfileParity``; the
native-size HARS-E run here, and again (with its wall time) by
``benchmarks/bench_kernel_overhead.py``.

Regenerate only when a behaviour change is intended, and say so in the
change log::

    PYTHONPATH=src python -m tests.golden.test_golden_digests --write
"""

import json
import sys

from tests.golden import GOLDEN_PATH, GOLDEN_RUNS, load_golden, outcome_digest


def test_kernel_overhead_run_matches_golden_digest():
    name = "hars-e-swaptions-x400"
    assert outcome_digest(GOLDEN_RUNS[name]()) == load_golden()[name]


def test_golden_file_covers_every_run():
    assert sorted(load_golden()) == sorted(GOLDEN_RUNS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.golden.test_golden_digests --write")
    digests = {name: outcome_digest(make()) for name, make in GOLDEN_RUNS.items()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
