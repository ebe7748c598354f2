"""Session leases: TTL grants, frame refresh, orphaning, resume.

The inline tests drive an injectable clock, so lease time is fully
deterministic; the daemon test uses the real clock and the background
reaper, asserting the liveness half of the contract (an abandoned
session orphans *without* any further client frame, and its driver
thread is gone).
"""

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.acp import wire
from repro.acp.client import AcpClient, AcpError
from repro.acp.server import AcpServer
from repro.acp.transport import AcpDaemon
from repro.experiments.runner import RunConfig, RunShape

SHAPE = RunShape(benchmark="swaptions", n_units=60)
CONFIG = RunConfig(telemetry=True, checkpoint=2.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def clocked():
    clock = FakeClock()
    server = AcpServer(threaded=False, lease_ttl_s=10.0, clock=clock)
    return clock, server, AcpClient(server=server)


class TestLeaseLifecycle:
    def test_any_frame_refreshes_the_lease(self, clocked):
        clock, server, client = clocked
        handle = client.attach("hars-ei", SHAPE, CONFIG, session_id="leased")
        assert handle.last_status["lease_ttl_s"] == 10.0
        for step in range(1, 6):
            clock.now = step * 8.0  # always past the original deadline
            handle.advance(1.0)  # ...but each frame re-arms it
        assert [
            s["session_id"] for s in client.sessions()["sessions"]
        ] == ["leased"]
        assert server.lease_expirations == 0

    def test_reply_refreshes_the_lease(self, clocked, monkeypatch):
        # A dispatch that takes 0.9 TTL (a blocking `result` wait) must
        # not eat into the client's time for its next frame.
        clock, server, client = clocked
        handle = client.attach("hars-ei", SHAPE, CONFIG, session_id="leased")
        dispatch = server._dispatch

        def slow_dispatch(frame):
            frames = dispatch(frame)
            clock.now += 9.0
            return frames

        monkeypatch.setattr(server, "_dispatch", slow_dispatch)
        handle.advance(1.0)  # arrives at 0, replies at 9
        monkeypatch.setattr(server, "_dispatch", dispatch)
        clock.now = 10.5  # TTL + 0.5 after the frame arrived
        handle.advance(1.0)
        assert server.lease_expirations == 0

    def test_expiry_orphans_checkpoints_and_releases(self, clocked):
        clock, server, client = clocked
        handle = client.attach("hars-ei", SHAPE, CONFIG, session_id="leased")
        handle.advance(3.0)
        clock.now = 100.0
        listing = client.sessions()
        assert listing["sessions"] == []
        [orphan] = listing["orphaned"]
        assert orphan["session_id"] == "leased"
        assert orphan["state"] == "orphaned"
        assert orphan["prior_state"] == "running"
        assert server.lease_expirations == 1
        # The checkpoint store is registered for resume.
        assert "leased" in listing["recovered"]
        text = server.metrics_text()
        assert "acp_lease_expired_total 1.0" in text
        assert 'acp_sessions{state="orphaned"} 1.0' in text

    def test_orphaned_session_refuses_commands_typed(self, clocked):
        clock, server, client = clocked
        handle = client.attach("hars-ei", SHAPE, CONFIG, session_id="leased")
        handle.advance(1.0)
        clock.now = 100.0
        with pytest.raises(AcpError) as excinfo:
            handle.advance(1.0)
        assert excinfo.value.code == wire.ERR_ORPHANED
        assert "resume" in str(excinfo.value)

    def test_resume_warm_restores_an_orphan(self, clocked):
        clock, server, client = clocked
        handle = client.attach("hars-ei", SHAPE, CONFIG, session_id="leased")
        handle.advance(4.0)
        clock.now = 100.0
        client.sessions()  # the sweep runs, the orphan lands
        resumed = client.attach(
            "hars-ei", SHAPE, CONFIG, session_id="leased", resume=True
        )
        assert resumed.last_status["resumed_from"]
        outcome = resumed.result()
        assert outcome.metrics.apps[0].heartbeats > 0
        # Orphan bookkeeping is cleared by the re-attach.
        listing = client.sessions()
        assert listing["orphaned"] == []

    def test_sessions_report_remaining_lease(self, clocked):
        clock, server, client = clocked
        client.attach("hars-ei", SHAPE, CONFIG, session_id="leased")
        clock.now = 4.0
        [status] = client.sessions()["sessions"]
        assert status["lease_expires_in_s"] == pytest.approx(6.0)

    def test_unleased_sessions_never_expire(self):
        clock = FakeClock()
        server = AcpServer(threaded=False, clock=clock)  # no default TTL
        client = AcpClient(server=server)
        client.attach("hars-ei", SHAPE, CONFIG, session_id="eternal")
        clock.now = 1e9
        assert [
            s["session_id"] for s in client.sessions()["sessions"]
        ] == ["eternal"]

    def test_attach_can_request_its_own_ttl(self):
        clock = FakeClock()
        server = AcpServer(threaded=False, clock=clock)
        client = AcpClient(server=server)
        client.attach(
            "hars-ei", SHAPE, CONFIG, session_id="short", lease_ttl_s=2.0
        )
        clock.now = 3.0
        listing = client.sessions()
        assert listing["sessions"] == []
        assert [o["session_id"] for o in listing["orphaned"]] == ["short"]

    def test_bad_ttl_refused(self, clocked):
        _, _, client = clocked
        with pytest.raises(ConfigurationError):
            client.attach(
                "hars-ei", SHAPE, CONFIG, session_id="bad", lease_ttl_s=-1.0
            )

    def test_server_rejects_nonpositive_default_ttl(self):
        with pytest.raises(ConfigurationError):
            AcpServer(lease_ttl_s=0.0)


class TestTeardown:
    """Detach and lease expiry both drop every per-session entry except
    the seq window, which a retried detach replays from."""

    PER_SESSION = (
        "_sessions",
        "_threads",
        "_stop_flags",
        "_finished",
        "_leases",
        "_attach_fingerprints",
        "_attach_responses",
    )

    def assert_forgotten(self, server, session_ids):
        for name in self.PER_SESSION:
            assert not set(session_ids) & set(getattr(server, name)), name
        assert set(session_ids) <= set(server._windows)

    def test_detach_forgets_the_session(self, clocked):
        _, server, client = clocked
        ids = [f"cycle{i}" for i in range(3)]
        for sid in ids:
            handle = client.attach(
                "hars-ei", RunShape("swaptions", n_units=10), session_id=sid
            )
            handle.result()
            handle.detach()
        assert client.sessions()["sessions"] == []
        self.assert_forgotten(server, ids)

    def test_lease_expiry_forgets_the_session(self, clocked):
        clock, server, client = clocked
        handle = client.attach("hars-ei", SHAPE, CONFIG, session_id="leased")
        handle.run()
        clock.now = 100.0
        assert [o["session_id"] for o in client.sessions()["orphaned"]] == [
            "leased"
        ]
        self.assert_forgotten(server, ["leased"])


class TestDaemonReaper:
    def test_inflight_result_wait_counts_as_liveness(self, tmp_path):
        """A client blocked in a long ``result`` RPC sends no frames,
        but its in-flight frame proves it is live: the reaper must
        refresh the lease instead of orphaning the session under it."""
        daemon = AcpDaemon(
            socket_path=str(tmp_path / "acp.sock"),
            state_dir=str(tmp_path / "state"),
            lease_ttl_s=1.0,
        )
        daemon.start()
        try:
            with AcpClient(f"unix://{daemon.socket_path}") as client:
                handle = client.attach(
                    "mp-hars-ei",
                    [
                        RunShape(benchmark="swaptions", n_units=2000),
                        RunShape(benchmark="bodytrack", n_units=2000),
                    ],
                    CONFIG,
                    session_id="patient",
                )
                handle.run()
                # The run takes well over the 1s TTL of wall-clock time;
                # result() is one blocking RPC for all of it.
                outcome = handle.result(timeout_s=120.0)
                assert outcome.metrics.apps[0].heartbeats == 2000
                assert daemon.acp.lease_expirations == 0
                handle.detach()  # would raise ERR_ORPHANED before the fix
        finally:
            daemon.stop()


    def test_abandoned_session_orphans_without_frames(self, tmp_path):
        """The background reaper fires on wall time alone, the driver
        thread exits, and the session resumes after re-attach."""
        daemon = AcpDaemon(
            socket_path=str(tmp_path / "acp.sock"),
            state_dir=str(tmp_path / "state"),
            lease_ttl_s=1.0,
        )
        daemon.start()
        try:
            with AcpClient(f"unix://{daemon.socket_path}") as client:
                handle = client.attach(
                    "mp-hars-ei",
                    [
                        RunShape(benchmark="swaptions", n_units=4000),
                        RunShape(benchmark="bodytrack", n_units=4000),
                    ],
                    CONFIG,
                    session_id="abandoned",
                )
                handle.run()  # background driver starts
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if daemon.acp.lease_expirations > 0:
                        break
                    time.sleep(0.1)
                assert daemon.acp.lease_expirations == 1
                # No leaked driver thread.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and any(
                    t.name == "acp-abandoned" for t in threading.enumerate()
                ):
                    time.sleep(0.05)
                assert not any(
                    t.name == "acp-abandoned" for t in threading.enumerate()
                )
                listing = client.sessions()
                assert [o["session_id"] for o in listing["orphaned"]] == [
                    "abandoned"
                ]
                resumed = client.attach(
                    "mp-hars-ei",
                    [
                        RunShape(benchmark="swaptions", n_units=4000),
                        RunShape(benchmark="bodytrack", n_units=4000),
                    ],
                    CONFIG,
                    session_id="abandoned",
                    resume=True,
                )
                assert resumed.last_status["resumed_from"]
                resumed.detach()
        finally:
            daemon.stop()
