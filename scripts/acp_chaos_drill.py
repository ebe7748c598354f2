#!/usr/bin/env python3
"""ACP crash drill: SIGKILL a real daemon mid-run and prove nothing lies.

Four arms, each a hard gate (the script exits non-zero on any failure),
with the measured numbers written to ``BENCH_acp_chaos.json``:

1. **zero-fault identity** — a loopback client wrapped in a *disabled*
   ``AcpFaultConfig`` is bit-identical (summaries + trace rows) to a
   plain loopback client: the chaos shim is byte-transparent when off.
2. **full-chaos identity** — the same journey under seeded
   drop+dup+reorder+corrupt+disconnect injection: every RPC terminates
   typed, commands apply exactly once, and the outcome is *still*
   bit-identical — chaos at the wire never perturbs the physics.
3. **controlled-cut drill** — a real ``hars-repro serve`` subprocess is
   SIGKILLed at a deterministic point (after ``advance(3.0)`` +
   ``checkpoint``, all inline in simulated time), restarted against the
   same ``--state-dir``, and the same client reconnects and resumes via
   ``attach(resume=...)``.  The resulting ``RunOutcome`` must equal,
   bit for bit, the identical interrupted journey performed in-process
   (two loopback ``AcpServer``s sharing a state dir) — the daemon
   boundary, the SIGKILL, and ``CheckpointStore.recover`` add nothing
   and lose nothing.
4. **hot-kill liveness** — SIGKILL while the daemon's background driver
   is mid-run at an arbitrary wall-clock instant, restart, reconnect,
   resume, and finish.  The cut point is nondeterministic, so this arm
   asserts liveness (typed completion, heartbeats flowing), not bits.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)
sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
)

from repro.acp.chaos import AcpFaultConfig  # noqa: E402
from repro.acp.client import AcpClient, RetryPolicy  # noqa: E402
from repro.acp.server import AcpServer  # noqa: E402
from repro.experiments.runner import RunConfig, RunShape  # noqa: E402
from repro.experiments.serialize import run_metrics_to_dict  # noqa: E402

from provenance import provenance  # noqa: E402  (benchmarks/provenance.py)

#: Retry policy generous enough to ride out a daemon restart window.
RECONNECT = RetryPolicy(max_attempts=12, backoff_s=0.1, max_backoff_s=1.0)

CHAOS = AcpFaultConfig(
    seed=11,
    drop_rate=0.12,
    dup_rate=0.15,
    reorder_rate=0.10,
    corrupt_rate=0.25,
    delay_rate=0.05,
    delay_s=0.001,
    disconnect_rate=0.08,
)


def fail(message, daemon=None):
    print(f"FAIL: {message}", file=sys.stderr)
    if daemon is not None and daemon.poll() is None:
        daemon.terminate()
        try:
            out, _ = daemon.communicate(timeout=10)
            print(f"--- daemon output ---\n{out}", file=sys.stderr)
        except subprocess.TimeoutExpired:
            daemon.kill()
    sys.exit(1)


def outcome_fingerprint(outcome):
    """Everything ``assert_identical`` compares, as one JSON-able blob."""
    return {
        "metrics": run_metrics_to_dict(outcome.metrics),
        "trace": {
            name: [
                [
                    p.time_s,
                    p.hb_index,
                    p.rate,
                    p.big_cores,
                    p.little_cores,
                    p.big_freq_mhz,
                    p.little_freq_mhz,
                ]
                for p in outcome.trace.points(name)
            ]
            for name in outcome.trace.app_names
        },
        "max_rate": outcome.max_rate,
        "target": [
            outcome.target.min_rate,
            outcome.target.avg_rate,
            outcome.target.max_rate,
        ],
    }


def start_daemon(socket_path, state_dir):
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--socket",
            socket_path,
            "--state-dir",
            state_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    deadline = time.time() + 30
    while time.time() < deadline:
        line = daemon.stdout.readline()
        if not line:
            fail("daemon exited before announcing its endpoint", daemon)
        if line.startswith("acp: listening on unix://"):
            return daemon
    fail("daemon never announced its unix endpoint", daemon)


def sigkill(daemon):
    daemon.send_signal(signal.SIGKILL)
    daemon.wait(timeout=15)
    daemon.stdout.close()


# -- arms ---------------------------------------------------------------------


def journey(client, session_id, units):
    """The fixed control journey every identity arm replays."""
    handle = client.attach(
        "hars-ei",
        RunShape(benchmark="swaptions", n_units=units),
        RunConfig(telemetry=True, checkpoint=2.0),
        session_id=session_id,
    )
    for _ in range(6):
        handle.advance(2.0)
    handle.swap_policy("hars-i")
    for _ in range(4):
        handle.advance(2.0)
    outcome = handle.result()
    handle.detach()
    return outcome


def arm_zero_fault(units):
    start = time.time()
    plain = journey(AcpClient(server=AcpServer(threaded=False)), "ref", units)
    shimmed = journey(
        AcpClient(server=AcpServer(threaded=False), faults=AcpFaultConfig()),
        "ref",
        units,
    )
    if outcome_fingerprint(plain) != outcome_fingerprint(shimmed):
        fail("zero-fault shim perturbed the run (bit-identity broken)")
    print("arm 1 zero-fault identity: OK (bit-identical to plain loopback)")
    return plain, {"bit_identical": True, "wall_s": round(time.time() - start, 3)}


def arm_full_chaos(reference, units):
    start = time.time()
    server = AcpServer(threaded=False)
    client = AcpClient(
        server=server,
        faults=CHAOS,
        retry=RetryPolicy(max_attempts=10, backoff_s=0.001, max_backoff_s=0.01),
    )
    chaotic = journey(client, "ref", units)
    if outcome_fingerprint(reference) != outcome_fingerprint(chaotic):
        fail("full-chaos run diverged from the clean run")
    injected = dict(client._transport.injected)
    if sum(injected.values()) == 0:
        fail("full-chaos arm injected nothing; the drill proved nothing")
    print(
        "arm 2 full-chaos identity: OK "
        f"(injected {injected}, client retries {client.stats['retries']}, "
        f"server dedup hits {server.dedup_hits})"
    )
    return {
        "bit_identical": True,
        "injected": injected,
        "client_retries": client.stats["retries"],
        "server_dedup_hits": server.dedup_hits,
        "server_retries_seen": server.retries_seen,
        "server_frames_corrupt": server.frames_corrupt,
        "wall_s": round(time.time() - start, 3),
    }


def interrupted_journey_inline(state_dir, units):
    """The controlled-cut journey, in-process: two loopback servers
    sharing a state dir stand in for daemon-before and daemon-after."""
    before = AcpServer(state_dir=state_dir, threaded=False)
    handle = AcpClient(server=before).attach(
        "hars-ei",
        RunShape(benchmark="swaptions", n_units=units),
        RunConfig(telemetry=True, checkpoint=2.0),
        session_id="drill",
    )
    handle.advance(3.0)
    handle.checkpoint()
    # The "crash": `before` is simply never used again.
    after = AcpServer(state_dir=state_dir, threaded=False)
    client = AcpClient(server=after)
    if "drill" not in client.sessions()["recovered"]:
        fail("inline reference: state dir lost the drill checkpoint")
    resumed = client.attach(
        "hars-ei",
        RunShape(benchmark="swaptions", n_units=units),
        RunConfig(telemetry=True, checkpoint=2.0),
        session_id="drill",
        resume=True,
    )
    if not resumed.last_status.get("resumed_from"):
        fail("inline reference: resume did not warm-restore")
    outcome = resumed.result()
    resumed.detach()
    return outcome


def arm_controlled_cut(units):
    start = time.time()
    tmp = tempfile.mkdtemp(prefix="acp-drill-")
    socket_path = os.path.join(tmp, "acp.sock")
    state_dir = os.path.join(tmp, "state")

    daemon = start_daemon(socket_path, state_dir)
    client = AcpClient(f"unix://{socket_path}", retry=RECONNECT)
    handle = client.attach(
        "hars-ei",
        RunShape(benchmark="swaptions", n_units=units),
        RunConfig(telemetry=True, checkpoint=2.0),
        session_id="drill",
    )
    handle.advance(3.0)  # inline: deterministic simulated-time cut point
    handle.checkpoint()
    sigkill(daemon)
    print(f"arm 3: daemon SIGKILLed at sim t=3.0s (pid gone, state in {state_dir})")

    daemon = start_daemon(socket_path, state_dir)
    try:
        listing = client.sessions()  # same client object reconnects
        if "drill" not in listing["recovered"]:
            fail("restarted daemon did not recover the drill store", daemon)
        resumed = client.attach(
            "hars-ei",
            RunShape(benchmark="swaptions", n_units=units),
            RunConfig(telemetry=True, checkpoint=2.0),
            session_id="drill",
            resume=True,
        )
        if not resumed.last_status.get("resumed_from"):
            fail("resume after restart did not warm-restore", daemon)
        outcome = resumed.result(timeout_s=300)
        resumed.detach()
    finally:
        client.close()
        if daemon.poll() is None:
            daemon.terminate()
            daemon.communicate(timeout=15)

    reference = interrupted_journey_inline(
        os.path.join(tmp, "ref-state"), units
    )
    if outcome_fingerprint(outcome) != outcome_fingerprint(reference):
        fail("controlled-cut drill diverged from the in-process journey")
    print(
        "arm 3 controlled-cut drill: OK (SIGKILL + restart + resume "
        "bit-identical to the in-process interrupted run)"
    )
    return {
        "bit_identical_to_inline": True,
        "resumed_controllers": resumed.last_status["resumed_from"],
        "client_retries": client.stats["retries"],
        "wall_s": round(time.time() - start, 3),
    }


def arm_hot_kill(units):
    start = time.time()
    tmp = tempfile.mkdtemp(prefix="acp-drill-hot-")
    socket_path = os.path.join(tmp, "acp.sock")
    state_dir = os.path.join(tmp, "state")

    daemon = start_daemon(socket_path, state_dir)
    client = AcpClient(f"unix://{socket_path}", retry=RECONNECT)
    shapes = [
        RunShape(benchmark="swaptions", n_units=units),
        RunShape(benchmark="bodytrack", n_units=units),
    ]
    handle = client.attach(
        "mp-hars-ei",
        shapes,
        RunConfig(telemetry=True, checkpoint=2.0),
        session_id="hot",
    )
    handle.run()  # background driver
    time.sleep(1.0)  # an arbitrary wall-clock instant, mid-run
    sigkill(daemon)
    print("arm 4: daemon SIGKILLed hot (background driver mid-run)")

    daemon = start_daemon(socket_path, state_dir)
    try:
        listing = client.sessions()
        if "hot" not in listing["recovered"]:
            fail("hot-kill: no recovered store after restart", daemon)
        resumed = client.attach(
            "mp-hars-ei",
            shapes,
            RunConfig(telemetry=True, checkpoint=2.0),
            session_id="hot",
            resume=True,
        )
        resumed.run()
        outcome = resumed.result(timeout_s=300)
        if any(a.heartbeats <= 0 for a in outcome.metrics.apps):
            fail("hot-kill: an app resumed with no heartbeats", daemon)
        resumed.detach()
    finally:
        client.close()
        if daemon.poll() is None:
            daemon.terminate()
            daemon.communicate(timeout=15)
    print(
        "arm 4 hot-kill liveness: OK ("
        + "  ".join(
            f"{a.app_name}={a.heartbeats}hb" for a in outcome.metrics.apps
        )
        + ")"
    )
    return {
        "completed": True,
        "apps": {
            a.app_name: a.heartbeats for a in outcome.metrics.apps
        },
        "client_retries": client.stats["retries"],
        "wall_s": round(time.time() - start, 3),
    }


def main():
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--units", type=int, default=60, help="work units per identity arm"
    )
    parser.add_argument(
        "--hot-units",
        type=int,
        default=400,
        help="work units per app in the hot-kill arm",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(__file__), os.pardir, "BENCH_acp_chaos.json"
        ),
    )
    args = parser.parse_args()

    reference, zero = arm_zero_fault(args.units)
    chaos = arm_full_chaos(reference, args.units)
    cut = arm_controlled_cut(args.units)
    hot = arm_hot_kill(args.hot_units)

    report = {
        "benchmark": "acp_chaos_drill",
        **provenance(),
        "units": args.units,
        "chaos_config": {
            "seed": CHAOS.seed,
            "drop_rate": CHAOS.drop_rate,
            "dup_rate": CHAOS.dup_rate,
            "reorder_rate": CHAOS.reorder_rate,
            "corrupt_rate": CHAOS.corrupt_rate,
            "delay_rate": CHAOS.delay_rate,
            "disconnect_rate": CHAOS.disconnect_rate,
        },
        "arms": {
            "zero_fault_identity": zero,
            "full_chaos_identity": chaos,
            "controlled_cut_drill": cut,
            "hot_kill_liveness": hot,
        },
    }
    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"ACP chaos drill: OK (report: {out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
