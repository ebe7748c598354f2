"""Golden run digests: byte-level fingerprints of reference runs.

A digest is the sha256 of canonical JSON over ``dataclasses.asdict`` of
a run's :class:`~repro.experiments.metrics.RunMetrics` plus every trace
row of every application.  Floats are written as ``repr(float(x))``
strings, so a numpy scalar's repr cannot move a digest between numpy
versions; dict keys are sorted and separators fixed.

The reference runs live in :data:`GOLDEN_RUNS` so the tests that assert
them (``tests/golden/test_golden_digests.py`` and the end-to-end parity
class in ``tests/kernel/test_batchplan.py``) and the kernel-overhead
benchmark replay exactly the shapes that were recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from pathlib import Path
from typing import Any, Callable, Dict

from repro.experiments.runner import RunConfig, RunShape, run

#: Where the recorded digests live, keyed by :data:`GOLDEN_RUNS` name.
GOLDEN_PATH = Path(__file__).with_name("digests.json")

#: The single-app shape the end-to-end planner runs share.
SINGLE_SHAPE = RunShape(
    benchmark="swaptions",
    n_units=80,
    n_threads=8,
    target_fraction=0.5,
    tolerance=0.1,
    seed=7,
)

#: The two-app MP-HARS-E co-run.
MULTI_SHAPES = (
    RunShape(
        benchmark="swaptions",
        n_units=60,
        n_threads=4,
        target_fraction=0.5,
        tolerance=0.1,
        seed=3,
    ),
    RunShape(
        benchmark="bodytrack",
        n_units=60,
        n_threads=4,
        target_fraction=0.6,
        tolerance=0.1,
        seed=4,
    ),
)

#: The kernel-overhead benchmark's native-size HARS-E run.
KERNEL_OVERHEAD_SHAPE = RunShape(benchmark="swaptions", n_units=400)


def _canonical(value: Any) -> Any:
    """``value`` with every float as its ``repr`` string, JSON-ready."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, numbers.Integral):
        return int(value)
    return repr(float(value))


def outcome_digest(outcome) -> str:
    """sha256 of the canonical JSON of a run's metrics and trace rows."""
    payload = {
        "metrics": _canonical(dataclasses.asdict(outcome.metrics)),
        "trace": {
            name: _canonical(outcome.trace.points(name))
            for name in sorted(outcome.trace.app_names)
        },
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: name -> zero-argument callable producing the reference run.
GOLDEN_RUNS: Dict[str, Callable[[], Any]] = {
    "hars-i-swaptions-x80": lambda: run("hars-i", SINGLE_SHAPE, RunConfig()),
    "hars-e-swaptions-x80": lambda: run("hars-e", SINGLE_SHAPE, RunConfig()),
    "hars-ei-swaptions-x80": lambda: run("hars-ei", SINGLE_SHAPE, RunConfig()),
    "mp-hars-e-swaptions-bodytrack-x60": lambda: run(
        "mp-hars-e", list(MULTI_SHAPES), RunConfig()
    ),
    "hars-e-swaptions-x400": lambda: run(
        "hars-e", KERNEL_OVERHEAD_SHAPE, RunConfig()
    ),
}


def load_golden() -> Dict[str, str]:
    """The recorded digests, keyed by :data:`GOLDEN_RUNS` name."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
