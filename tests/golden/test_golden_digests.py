"""Reference runs reproduce their recorded digests byte for byte.

``digests.json`` holds the sha256 digests (see :mod:`tests.golden`)
recorded when the simulator still had three interchangeable tick and
planner paths whose outputs the parity suites proved identical; the
one remaining path must keep producing the same bytes.  A failure means
a change moved a metric or a trace row, not merely a speed.

The four end-to-end planner runs are asserted by
``tests/kernel/test_batchplan.py::TestEndToEndProfileParity``; the
native-size HARS-E run here, and again (with its wall time) by
``benchmarks/bench_kernel_overhead.py``.  The serving-fleet run (crash
wave, retries, hedging) and the ratio-learning run (a performance-model
swap every adaptation period) are asserted here too, as are two more
fleet runs covering the other routing paths: least-loaded routing, and
a burst under a crash wave with failover off and admission control on
(brownout demotion, wait-triggered shedding, routing onto dead nodes).

Five more runs cover the restart protocol and both health ladders: a
HARS-E and an MP-HARS-E run with two mid-run ``controller_restart``
faults, each warm (checkpointed) and cold, under supervision,
guardrails and telemetry (the MP-HARS pair also hangs one app until the
supervisor evicts it); and a fleet whose seeded hangs, crashes and
slowdowns walk nodes through every supervisor transition.  The two warm
restart runs also pin their telemetry snapshot and final checkpoint
store (``"<name>/state"``).

One run drives every AdaptiveHarsManager plugin at once (Kalman
filter, ratio learning, escape, stage-aware placement) on x264.

Two more fleet runs pin the fleet engine: the ``fleet_serving``
benchmark journey itself (100 nodes, 4000 requests, seed 1), and a
chaos fleet with three threads per lane, where threads share cores and
a lane's backlog sums three in-service requests.

One fleet run pins a node crash read against a rebooted incarnation's
boot epoch: nodes crash, reboot and crash again, and a crash that falls
while its node is down is dropped.

Two runs pin the actuation-fault path: a HARS-E and an MP-HARS-E run
whose DVFS and affinity writes fail at a seeded half rate, so the
actuator's retries, backoff windows and the injector's roll order reach
both the run digest and the state digest.

Four runs pin single-board tick paths that no manager run above
reaches: ferret under HARS-EI (the pipeline model, the interleaving
scheduler and grant rounds 2 and 3), blackscholes under ``baseline``
(GTS alone: unpinned threads placed by their tracked load) and under
``ondemand`` (DVFS writes between ticks, read from the engine's
per-core utilization), and a HARS-E run with an ``app_runaway`` fault
(a speed factor other than 1, affinities cleared every tick).

Regenerate only when a behaviour change is intended, and say so in the
change log::

    PYTHONPATH=src python -m tests.golden.test_golden_digests --write
"""

import json
import sys

import pytest

from repro.fleet.cluster import FleetCluster
from repro.kernel.actuation import Actuator
from repro.platform.cluster import BIG
from repro.platform.machine import Machine
from repro.platform.spec import odroid_xu3
from repro.sched.gts import GtsScheduler, on_big_table
from repro.sim.engine import Simulation
from repro.workloads.pipeline import PipelineWorkload
from repro.telemetry.registry import flatten_snapshot
from tests.golden import (
    FLEET_CRASH_REBOOT_CRASH_CONFIG,
    FLEET_HANG_LADDER_CONFIG,
    GOLDEN_PATH,
    GOLDEN_RUNS,
    STATE_PINS,
    adaptive_stage_aware_run,
    load_golden,
    outcome_digest,
    state_digest,
)


def test_kernel_overhead_run_matches_golden_digest():
    name = "hars-e-swaptions-x400"
    assert outcome_digest(GOLDEN_RUNS[name]()) == load_golden()[name]


def test_fleet_run_matches_golden_digest():
    name = "fleet-deadline-risk-x20-crash-hedge"
    assert outcome_digest(GOLDEN_RUNS[name]()) == load_golden()[name]


def test_least_loaded_fleet_run_matches_golden_digest():
    name = "fleet-least-loaded-x20"
    assert outcome_digest(GOLDEN_RUNS[name]()) == load_golden()[name]


def test_brownout_no_failover_fleet_run_matches_golden_digest():
    name = "fleet-deadline-risk-x20-brownout-no-failover"
    result = GOLDEN_RUNS[name]()
    # The digest must really cover brownout demotion, the admission
    # wait signal (shed trips on best base-lane wait) and routing onto
    # crashed nodes.
    assert result.resilience["demoted"] > 0
    assert result.resilience["shed"] > 0
    assert result.resilience["crashes"] > 0
    assert outcome_digest(result) == load_golden()[name]


def test_ratio_learning_run_matches_golden_digest():
    name = "hars-e-ratio-learning-blackscholes-x120"
    assert outcome_digest(GOLDEN_RUNS[name]()) == load_golden()[name]


@pytest.mark.parametrize(
    "name, manager",
    [
        ("hars-e-restart-warm-x80", "hars:swaptions"),
        ("hars-e-restart-cold-x80", "hars:swaptions"),
        ("mp-hars-e-restart-warm-hang-x60", "mp-hars"),
        ("mp-hars-e-restart-cold-hang-x60", "mp-hars"),
    ],
)
def test_controller_restart_run_matches_golden_digest(name, manager):
    outcome = GOLDEN_RUNS[name]()
    warm = "true" if "-warm-" in name else "false"
    # The digest must really cover two restores of every checkpointed
    # controller, warm or cold as the run's name says.
    restores = {
        labels: value
        for (sample, labels), value in flatten_snapshot(
            outcome.telemetry.registry.snapshot()
        ).items()
        if sample == "controller_restores_total"
    }
    assert restores == {
        (("controller", controller), ("warm", warm)): 2.0
        for controller in (manager, "supervisor", "guardrails")
    }
    if "-hang-" in name:
        assert "bodytrack-1" in outcome.supervisor.ledger.evicted()
    assert outcome_digest(outcome) == load_golden()[name]
    if name in STATE_PINS:
        assert state_digest(outcome) == load_golden()[f"{name}/state"]


def test_adaptive_stage_aware_run_matches_golden_digest(monkeypatch):
    name = "adaptive-hars-e-x264-stage-aware-x120"
    placements = []
    place_stage_aware = Actuator.place_stage_aware

    def counting(self, *args, **kwargs):
        placements.append(args[0].name)
        return place_stage_aware(self, *args, **kwargs)

    monkeypatch.setattr(Actuator, "place_stage_aware", counting)
    outcome, manager = adaptive_stage_aware_run()
    # The digest must really cover the escape, stage-aware placement
    # and a learned ratio away from the 1.5 prior.
    assert manager.escapes >= 1
    assert placements
    assert manager.ratio_learner.ratio != 1.5
    assert outcome_digest(outcome) == load_golden()[name]


def test_hang_ladder_fleet_run_matches_golden_digest():
    name = "fleet-deadline-risk-x20-hang-ladder"
    cluster = FleetCluster(FLEET_HANG_LADDER_CONFIG, router="deadline-risk")
    result = cluster.run()
    # Every rung of the node ladder, and the crash/reboot side, fired.
    reasons = {row[4] for row in cluster.supervisor.ledger}
    assert {
        "stall", "stall-evicted", "recovered", "crash", "restart",
        "probation-served",
    } <= reasons
    assert outcome_digest(result) == load_golden()[name]


def test_fleet_serving_run_matches_golden_digest():
    name = "fleet-serving-x100-seed1"
    assert outcome_digest(GOLDEN_RUNS[name]()) == load_golden()[name]


def test_lane3_chaos_fleet_run_matches_golden_digest():
    name = "fleet-lane3-chaos-x20"
    result = GOLDEN_RUNS[name]()
    # The digest must really cover cancels, crashes and three threads
    # per lane.
    assert result.resilience["hedge_cancelled"] > 0
    assert result.resilience["crashes"] > 0
    assert outcome_digest(result) == load_golden()[name]


def test_crash_reboot_crash_fleet_run_matches_golden_digest():
    name = "fleet-deadline-risk-x20-crash-reboot-crash"
    cluster = FleetCluster(
        FLEET_CRASH_REBOOT_CRASH_CONFIG, router="deadline-risk"
    )
    result = cluster.run()
    # The digest must really cover crashes in a second incarnation:
    # nodes 3 and 11 reboot and crash again (evicted, one restart
    # each), and node 7's crash at 2.0 s, while it is down, is dropped.
    crashes = [
        (row[1], row[4])
        for row in cluster.supervisor.ledger
        if row[4] in ("crash", "crash-budget-spent")
    ]
    assert (3, "crash-budget-spent") in crashes
    assert (11, "crash-budget-spent") in crashes
    assert crashes.count((7, "crash")) == 1
    assert (7, "crash-budget-spent") not in crashes
    assert (
        result.resilience["crashes"],
        result.resilience["restarts"],
        result.resilience["evictions"],
    ) == (6, 4, 2)
    assert outcome_digest(result) == load_golden()[name]


@pytest.mark.parametrize(
    "name",
    ["hars-e-actuation-faults-x80", "mp-hars-e-actuation-faults-x60"],
)
def test_actuation_fault_run_matches_golden_digest(name):
    outcome = GOLDEN_RUNS[name]()
    # The digest must really cover failed and retried writes on both
    # actuation channels.
    counts = {
        (sample, dict(labels)["kind"]): value
        for (sample, labels), value in flatten_snapshot(
            outcome.telemetry.registry.snapshot()
        ).items()
        if sample in ("faults_injected_total", "faults_recovered_total")
    }
    for sample in ("faults_injected_total", "faults_recovered_total"):
        for kind in ("dvfs", "affinity"):
            assert counts.get((sample, kind), 0) > 0, (sample, kind)
    assert outcome_digest(outcome) == load_golden()[name]
    assert state_digest(outcome) == load_golden()[f"{name}/state"]


def _counting(monkeypatch, owner, attribute, record):
    """Wrap ``owner.attribute`` so each call passes ``record`` its
    arguments and result."""
    method = getattr(owner, attribute)

    def wrapped(self, *args):
        result = method(self, *args)
        record(args, result)
        return result

    monkeypatch.setattr(owner, attribute, wrapped)


def test_pipeline_interleaving_run_matches_golden_digest(monkeypatch):
    name = "hars-ei-ferret-x60"
    calls = {"ticks": 0, "advances": 0}

    def count(key):
        def record(args, result):
            calls[key] += 1

        return record

    _counting(monkeypatch, Simulation, "step", count("ticks"))
    _counting(monkeypatch, PipelineWorkload, "advance", count("advances"))
    outcome = GOLDEN_RUNS[name]()
    # The digest must really cover later grant rounds (blocked stages
    # hand their core time on) and interleaved placements spanning
    # both clusters.
    assert calls["advances"] > calls["ticks"]
    assert any(p.big_cores and p.little_cores for p in outcome.trace.points("ferret"))
    assert outcome_digest(outcome) == load_golden()[name]


def test_gts_baseline_run_matches_golden_digest(monkeypatch):
    name = "baseline-blackscholes-x40"
    on_big = on_big_table(odroid_xu3())
    picked = set()
    _counting(
        monkeypatch,
        GtsScheduler,
        "_pick_partitioned",
        lambda args, core: picked.add(on_big[core]),
    )
    outcome = GOLDEN_RUNS[name]()
    # The digest must really cover load-driven picks onto both clusters.
    assert picked == {True, False}
    assert outcome_digest(outcome) == load_golden()[name]


def test_ondemand_run_matches_golden_digest(monkeypatch):
    name = "ondemand-blackscholes-x40"
    big_writes = set()

    def record(args, result):
        if args[0] == BIG:
            big_writes.add(args[1])

    _counting(monkeypatch, Machine, "set_freq_mhz", record)
    outcome = GOLDEN_RUNS[name]()
    # The digest must really cover the governor moving the big cluster.
    assert len(big_writes) > 1
    assert outcome_digest(outcome) == load_golden()[name]


def test_app_runaway_run_matches_golden_digest():
    name = "hars-e-app-runaway-x80"
    outcome = GOLDEN_RUNS[name]()
    # The digest must really cover a runaway app.
    assert outcome.fault_injector.injected == {"app_runaway": 1}
    assert outcome_digest(outcome) == load_golden()[name]


def test_golden_file_covers_every_run():
    pinned = list(GOLDEN_RUNS) + [f"{name}/state" for name in STATE_PINS]
    assert sorted(load_golden()) == sorted(pinned)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.golden.test_golden_digests --write")
    digests = {}
    for name, make in GOLDEN_RUNS.items():
        outcome = make()
        digests[name] = outcome_digest(outcome)
        if name in STATE_PINS:
            digests[f"{name}/state"] = state_digest(outcome)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
