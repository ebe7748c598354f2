#!/usr/bin/env python3
"""ACP daemon smoke test: the CI gate for the real process boundary.

Starts ``hars-repro serve`` as a *subprocess* on a Unix socket plus an
ephemeral HTTP port, then drives it the way an operator would:

1. attach a two-app MP-HARS run over the Unix socket,
2. start it and hot-swap HARS-E → HARS-I mid-run,
3. scrape live Prometheus text from ``GET /metrics`` while it runs,
4. wait for the result, check both apps completed,
5. detach cleanly and shut the daemon down.

Exits non-zero (with a diagnostic) on any failed step.
"""

import os
import subprocess
import sys
import tempfile
import time
import urllib.request

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.acp.client import AcpClient  # noqa: E402
from repro.experiments.runner import RunConfig, RunShape  # noqa: E402


def fail(message, server=None):
    print(f"FAIL: {message}", file=sys.stderr)
    if server is not None:
        server.terminate()
        out, _ = server.communicate(timeout=10)
        print(f"--- daemon output ---\n{out}", file=sys.stderr)
    sys.exit(1)


def main():
    tmp = tempfile.mkdtemp(prefix="acp-smoke-")
    socket_path = os.path.join(tmp, "acp.sock")
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--socket",
            socket_path,
            "--http",
            "0",
            "--state-dir",
            os.path.join(tmp, "state"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )

    # The daemon announces its endpoints on stdout; the HTTP port is
    # ephemeral, so parse it from the announcement.
    http_base = None
    deadline = time.time() + 30
    announced = []
    while time.time() < deadline:
        line = server.stdout.readline()
        if not line:
            fail("daemon exited before announcing endpoints", server)
        announced.append(line.strip())
        if line.startswith("acp: listening on http://"):
            http_base = line.split("acp: listening on ", 1)[1].strip()
        if http_base and any("unix://" in l for l in announced):
            break
    if http_base is None:
        fail(f"no http endpoint announced (got: {announced})", server)
    print(f"daemon up: unix://{socket_path} and {http_base}")

    client = AcpClient(f"unix://{socket_path}")
    try:
        hello = client.hello()
        if hello["server"] != "hars-repro-acp":
            fail(f"unexpected hello: {hello}", server)

        shapes = [
            RunShape(benchmark="swaptions", n_units=400),
            RunShape(benchmark="bodytrack", n_units=400),
        ]
        handle = client.attach(
            "mp-hars-e",
            shapes,
            RunConfig(telemetry=True, checkpoint=2.0),
        )
        print(f"attached {handle.session_id} (mp-hars-e, 2 apps)")

        status = handle.run()
        if status["state"] != "running":
            fail(f"run did not start: {status}", server)
        time.sleep(0.5)  # let it get properly mid-run

        swap = handle.swap_policy("hars-i")
        if swap["policy"] != "HARS-I" or not swap["controllers"]:
            fail(f"swap failed: {swap}", server)
        print(
            f"swapped HARS-E -> HARS-I at t={swap['time_s']:.2f}s "
            f"(controllers: {', '.join(swap['controllers'])})"
        )

        metrics = (
            urllib.request.urlopen(http_base + "/metrics", timeout=30)
            .read()
            .decode()
        )
        for needle in (
            "acp_sessions_attached_total",
            f'session="{handle.session_id}"',
            "heartbeats_total",
        ):
            if needle not in metrics:
                fail(f"/metrics is missing {needle!r}", server)
        print(f"scraped /metrics live ({len(metrics.splitlines())} lines)")

        outcome = handle.result(timeout_s=300)
        apps = sorted(a.app_name for a in outcome.metrics.apps)
        if apps != ["bodytrack-1", "swaptions-0"]:
            fail(f"unexpected result apps: {apps}", server)
        if any(a.heartbeats <= 0 for a in outcome.metrics.apps):
            fail("an app finished with no heartbeats", server)
        swapped_events = [
            e for e in handle.events() if e.type == "policy-swapped"
        ]
        if len(swapped_events) != 1:
            fail(f"expected 1 policy-swapped event: {swapped_events}", server)
        print(
            "result: "
            + "  ".join(
                f"{a.app_name}={a.heartbeats}hb@{a.overall_rate:.1f}hb/s"
                for a in outcome.metrics.apps
            )
        )

        detached = handle.detach()
        if detached["state"] != "finished":
            fail(f"detach left state {detached['state']}", server)
        print("detached cleanly")
    finally:
        client.close()
        server.terminate()
        try:
            server.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()

    print("ACP smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
