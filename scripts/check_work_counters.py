"""Work-counter gate: fail when a benchmark journey does more calls.

Wall times cannot gate CI (shared hosts move them by up to 2x between
runs of the same code), but the traced per-layer call counts of the
repo benchmark (``perfbench/``) are exact for a given seed and size.
``perf_counters.json`` at the repo root records, per workload, every
``*.calls`` metric of one traced journey at the smoke size the
benchmark's own tests use; only counts that repeated exactly over three
recording runs are kept.  The benchmark has no span on the fleet
engine or on GTS's full scan, so the gate counts some calls itself
(:data:`COUNTED_CALLS`): the fleet engine's ticks and its per-row calls
into the control plane — the engine's Python work that grows with the
nodes — the single-board GTS scans, which a needlessly strict
placement proof multiplies without changing any output, the vector
planner's candidate-box builds, which a lost box memo would raise to
one per plan, the ACP client's Unix-socket connections, which a
connection per request would multiply by the RPC count, the ACP
session's encodes of a power reading, which encoding every sensor event
afresh would multiply (125 to 2,815 per journey at the gate's size),
and the fleet resilience layer's per-node calls — velocity-factor sets
and supervisor observations — which a chaos or post-step loop over
every node would raise to one per node and tick.
Boxes are memoized on the process-wide state-space tensors, so each
measurement starts from an empty tensor memo: its box builds are then
its own journeys' distinct boxes, whatever ran before it.
The ``acp_control`` daemon runs in a subprocess the counters
cannot see into, so its GTS scans, box builds and reading encodes are
counted over an in-process replay of the journey's drive loop
(:func:`replay_acp_drive`).

Check (exit status 1 when any recorded count rises)::

    python scripts/check_work_counters.py

Re-record after a change that lowers a count on purpose (say so in
CHANGES.md)::

    python scripts/check_work_counters.py --write

The script imports the benchmark and edits nothing under it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import journeys  # noqa: E402  (perfbench/journeys.py)
import run  # noqa: E402  (perfbench/run.py)
import speed  # noqa: E402  (perfbench/speed.py)
from repro.acp.client import AcpClient  # noqa: E402
from repro.kernel import estimation  # noqa: E402

COUNTERS_PATH = ROOT / "perf_counters.json"

#: Journey scale per workload: the benchmark smoke tests' sizes.
SCALE = {"paper_runs": 0.4}
DEFAULT_SCALE = 0.1
SEED = 3
#: Recording runs a count must repeat exactly over to be kept.
RECORD_RUNS = 3
#: Methods the gate counts: (module, class, attribute, count name).
_ENGINE = ("repro.fleet.engine", "FleetEngine")
COUNTED_CALLS = (
    (*_ENGINE, "step", "fleet.engine.step.calls"),
    (*_ENGINE, "_write_back", "fleet.engine.write_back.calls"),
    (*_ENGINE, "_read_back", "fleet.engine.read_back.calls"),
    ("repro.sched.gts", "GtsScheduler", "_place_fresh", "sched.scan.calls"),
    (
        "repro.kernel.batchplan",
        "CandidateBox",
        "__init__",
        "kernel.box_build.calls",
    ),
    (
        "repro.fleet.node",
        "FleetNode",
        "set_velocity_factor",
        "fleet.chaos.velocity_set.calls",
    ),
    (
        "repro.fleet.supervisor",
        "FleetSupervisor",
        "observe",
        "fleet.supervise.observe.calls",
    ),
    ("repro.acp.client", "UnixTransport", "_connect", "acp.connect.calls"),
    (
        "repro.acp.wire",
        "SensorLines",
        "_encode_reading",
        "acp.reading_encode.calls",
    ),
)
#: Counts of the ``acp_control`` serve daemon's work.  The daemon is a
#: subprocess, so the gate replays the journey's drive loop in process
#: over a loopback client and takes these counts from that replay.
DAEMON_COUNTS = (
    "sched.scan.calls",
    "kernel.box_build.calls",
    "acp.reading_encode.calls",
)


@contextlib.contextmanager
def counting_calls(counts: Counter) -> Iterator[None]:
    """Count calls of the :data:`COUNTED_CALLS` methods into ``counts``."""
    originals = []
    for module, cls_name, attr, name in COUNTED_CALLS:
        cls = getattr(importlib.import_module(module), cls_name)
        originals.append((cls, attr, cls.__dict__[attr], name))

    def counted(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls, attr, fn, name in originals:
        setattr(cls, attr, counted(fn, name))
    try:
        yield
    finally:
        for cls, attr, fn, _ in originals:
            setattr(cls, attr, fn)


def measure_counts(workload: str, probe: "speed.SpeedProbe") -> Dict[str, float]:
    """Every ``*.calls`` metric of one traced journey of ``workload``,
    and the :data:`COUNTED_CALLS` counts per journey."""
    with estimation._tensor_memo_lock:
        estimation._tensor_memo.clear()
    own_counts: Counter = Counter()
    with counting_calls(own_counts):
        result, detail = run.measure(
            workload,
            seed=SEED,
            seconds=0.0,
            trace=True,
            probe=probe,
            scale=SCALE.get(workload, DEFAULT_SCALE),
        )
    if detail["problems"]:
        raise SystemExit(f"{workload}: output checks failed: {detail['problems']}")
    counts = {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith(".calls")
    }
    # Every journey of a run, traced or not, is the same seeded journey.
    # A count of zero is recorded too: work that an event-driven path
    # skips entirely must stay skipped.
    journey_count = detail["journeys"] + detail["untraced_journeys"]
    for *_, name in COUNTED_CALLS:
        counts[name] = own_counts[name] / journey_count
    if workload == "acp_control":
        counts.update(replay_acp_drive())
    return counts


def replay_acp_drive() -> Dict[str, float]:
    """The :data:`DAEMON_COUNTS` of one ``acp_control`` journey's drive
    loop (attach excluded), replayed in process over a loopback client."""
    journey = journeys.AcpControl(
        SEED, scale=SCALE.get("acp_control", DEFAULT_SCALE)
    )
    own_counts: Counter = Counter()
    with AcpClient("loopback") as client:
        # The attach measures the apps' max rates, with GTS scans of its
        # own, unless an earlier run in this process cached them.
        handle = client.attach("mp-hars-e", journey.shapes, stream_events=True)
        with counting_calls(own_counts):
            loop = journey._drive(handle)
    if loop["detached"].get("state") != "finished":
        raise SystemExit("acp_control: the in-process replay did not finish")
    return {name: float(own_counts[name]) for name in DAEMON_COUNTS}


def record(probe: "speed.SpeedProbe") -> Dict[str, Dict[str, float]]:
    counters: Dict[str, Dict[str, float]] = {}
    for workload in run.WORKLOAD_NAMES:
        runs = [measure_counts(workload, probe) for _ in range(RECORD_RUNS)]
        counters[workload] = {
            name: value
            for name, value in sorted(runs[0].items())
            if all(other.get(name) == value for other in runs[1:])
        }
    return counters


def check(
    recorded: Dict[str, Dict[str, float]], probe: "speed.SpeedProbe"
) -> List[str]:
    """One line per count that rose above its recorded value."""
    rises = []
    for workload in run.WORKLOAD_NAMES:  # the recording order
        counts = recorded.get(workload)
        if counts is None:
            continue
        measured = measure_counts(workload, probe)
        for name, limit in counts.items():
            value = measured.get(name, 0.0)
            status = "ROSE" if value > limit else "ok"
            print(f"{workload:>14} {name:<32} {limit:>12g} -> {value:<12g} {status}")
            if value > limit:
                rises.append(f"{workload}: {name} rose {limit:g} -> {value:g}")
    return rises


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"re-record {COUNTERS_PATH.name} instead of checking it",
    )
    args = parser.parse_args(argv)
    probe = speed.SpeedProbe().start()
    try:
        if args.write:
            counters = record(probe)
            COUNTERS_PATH.write_text(
                json.dumps(counters, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"wrote {COUNTERS_PATH}")
            return 0
        rises = check(json.loads(COUNTERS_PATH.read_text("utf-8")), probe)
    finally:
        probe.stop()
    for line in rises:
        print(line, file=sys.stderr)
    return 1 if rises else 0


if __name__ == "__main__":
    sys.exit(main())
