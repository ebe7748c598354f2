"""Control-plane resilience under seeded wire chaos.

Three layers of guarantees, in escalating order of violence:

* **SeqWindow / RetryPolicy units** — the dedup and backoff primitives
  behave per their contracts in isolation;
* **loopback chaos** — with drop/dup/reorder/corrupt/delay/disconnect
  injected at seeded rates, every RPC still terminates in a typed
  result or :class:`AcpError`, commands apply exactly once
  (``policy_swaps_total`` counts distinct swap seqs, not deliveries),
  and the final outcome is *bit-identical* to the clean run — chaos at
  the wire never perturbs the physics;
* **daemon fuzz** — corrupted and truncated bytes over the real Unix
  socket and HTTP transports always produce typed error frames, never
  a crashed connection thread, a poisoned next session, or a hang.
"""

import json
import re
import socket

import pytest

from repro.errors import ConfigurationError
from repro.acp import wire
from repro.acp.chaos import ACP_FAULT_KINDS, AcpFaultConfig, FaultyTransport
from repro.acp.client import (
    AcpClient,
    AcpError,
    AcpTransportError,
    RetryPolicy,
)
from repro.acp.server import AcpServer
from repro.acp.transport import AcpDaemon
from repro.experiments.runner import RunConfig, RunShape

from tests.acp.test_loopback_identity import assert_identical


# -- units --------------------------------------------------------------------


class TestSeqWindow:
    def frames(self, tag):
        return [wire.make_frame("swap-ack", "s", 99, {"tag": tag})]

    def test_new_then_duplicate_replays(self):
        window = wire.SeqWindow()
        verdict, cached = window.admit(1, "swap")
        assert (verdict, cached) == (wire.SEQ_NEW, None)
        response = self.frames("first")
        window.record(1, "swap", response)
        verdict, cached = window.admit(1, "swap")
        assert verdict == wire.SEQ_DUPLICATE
        assert cached == response

    def test_pending_while_in_flight(self):
        window = wire.SeqWindow()
        window.admit(1, "run")
        verdict, _ = window.admit(1, "run")
        assert verdict == wire.SEQ_PENDING

    def test_stale_behind_window(self):
        window = wire.SeqWindow()
        window.admit(5, "run")
        window.record(5, "run", self.frames("x"))
        verdict, _ = window.admit(3, "run")
        assert verdict == wire.SEQ_STALE

    def test_type_mismatch_refused(self):
        window = wire.SeqWindow()
        window.admit(1, "swap")
        window.record(1, "swap", self.frames("x"))
        verdict, _ = window.admit(1, "detach")
        assert verdict == wire.SEQ_MISMATCH

    def test_cache_eviction_turns_duplicate_into_stale(self):
        window = wire.SeqWindow()
        last = wire.SEQ_CACHE_LIMIT + 1
        for seq in range(1, last + 1):
            window.admit(seq, "run")
            window.record(seq, "run", self.frames(seq))
        assert window.admit(1, "run")[0] == wire.SEQ_STALE
        assert window.admit(2, "run")[0] == wire.SEQ_DUPLICATE
        assert window.admit(last, "run")[0] == wire.SEQ_DUPLICATE

    def test_error_responses_replay_too(self):
        window = wire.SeqWindow()
        window.admit(1, "swap")
        refusal = [wire.error_frame("s", 1, "no such policy")]
        window.record(1, "swap", refusal)
        verdict, cached = window.admit(1, "swap")
        assert verdict == wire.SEQ_DUPLICATE
        assert cached == refusal


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_s=0.1, max_backoff_s=0.3)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.3)
        assert policy.delay_s(9) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)


class TestFaultConfigValidation:
    def test_rates_bounded(self):
        with pytest.raises(ConfigurationError):
            AcpFaultConfig(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            AcpFaultConfig(corrupt_rate=-0.1)
        with pytest.raises(ConfigurationError):
            AcpFaultConfig(delay_s=-1.0)

    def test_enabled(self):
        assert not AcpFaultConfig().enabled
        assert AcpFaultConfig(dup_rate=0.01).enabled


class _RecordingTransport:
    """Counts deliveries and answers every line with a canned frame."""

    def __init__(self):
        self.delivered = []
        self.torn = []

    def exchange(self, line, timeout_s):
        self.delivered.append(line)
        return [wire.encode_frame(wire.make_frame("welcome", "", 1, {}))]

    def send_torn(self, prefix, timeout_s):
        self.torn.append(prefix)


class TestFaultyTransportDeterminism:
    CONFIG = AcpFaultConfig(
        seed=7,
        drop_rate=0.2,
        dup_rate=0.2,
        reorder_rate=0.2,
        corrupt_rate=0.2,
        disconnect_rate=0.1,
    )

    def drive(self):
        inner = _RecordingTransport()
        faulty = FaultyTransport(inner, self.CONFIG)
        for seq in range(1, 40):
            line = wire.encode_frame(
                wire.make_frame("run", "sess-a", seq, {"seconds": 1.0})
            )
            try:
                faulty.exchange(line, timeout_s=5.0)
            except AcpTransportError:
                pass
        return faulty, inner

    def test_same_seed_same_timeline(self):
        first, inner_a = self.drive()
        second, inner_b = self.drive()
        assert first.injected == second.injected
        assert inner_a.delivered == inner_b.delivered
        assert inner_a.torn == inner_b.torn
        assert sum(first.injected.values()) > 0

    def test_disabled_config_is_transparent(self):
        inner = _RecordingTransport()
        faulty = FaultyTransport(inner, AcpFaultConfig())
        line = wire.encode_frame(wire.make_frame("hello", "", 1, {}))
        faulty.exchange(line, timeout_s=5.0)
        assert inner.delivered == [line]
        assert all(count == 0 for count in faulty.injected.values())


# -- loopback chaos -----------------------------------------------------------

SHAPE = RunShape(benchmark="swaptions", n_units=60)
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
RETRY = RetryPolicy(max_attempts=10, backoff_s=0.001, max_backoff_s=0.01)


def journey(client, session_id):
    """A fixed control journey: attach, step, swap, step, finish."""
    handle = client.attach(
        "hars-ei",
        SHAPE,
        RunConfig(telemetry=True, checkpoint=2.0),
        session_id=session_id,
    )
    for _ in range(6):
        handle.advance(2.0)
    handle.swap_policy("hars-i")
    handle.checkpoint()
    for _ in range(4):
        handle.advance(2.0)
    outcome = handle.result()
    handle.detach()
    return outcome


class TestZeroFaultIdentity:
    def test_disabled_faults_bit_identical_to_plain_loopback(self):
        plain = journey(AcpClient(server=AcpServer(threaded=False)), "ref")
        shimmed = AcpClient(
            server=AcpServer(threaded=False), faults=AcpFaultConfig()
        )
        assert_identical(plain, journey(shimmed, "ref"))
        assert shimmed.stats["retries"] == 0


class TestFullChaosLoopback:
    def test_chaotic_journey_is_bit_identical_and_exactly_once(self):
        plain = journey(AcpClient(server=AcpServer(threaded=False)), "ref")

        server = AcpServer(threaded=False)
        client = AcpClient(server=server, faults=CHAOS, retry=RETRY)
        chaotic = journey(client, "ref")

        assert_identical(plain, chaotic)
        shim = client._transport
        assert isinstance(shim, FaultyTransport)
        # The drill is only meaningful if the wire actually misbehaved.
        for kind in ("drop", "dup", "corrupt"):
            assert shim.injected[kind] > 0, shim.injected
        assert client.stats["retries"] > 0
        assert server.dedup_hits > 0
        assert server.retries_seen > 0
        assert server.frames_corrupt > 0

    def test_policy_swaps_counted_once_under_full_duplication(self):
        """Every frame delivered twice; the swap still applies once."""
        server = AcpServer(threaded=False)
        client = AcpClient(
            server=server,
            faults=AcpFaultConfig(seed=3, dup_rate=1.0),
            retry=RETRY,
        )
        handle = client.attach(
            "hars-ei",
            SHAPE,
            RunConfig(telemetry=True),
            session_id="dup-everything",
        )
        handle.advance(4.0)
        handle.swap_policy("hars-i")
        handle.advance(4.0)
        swaps = [
            float(m.group(1))
            for m in re.finditer(
                r"policy_swaps_total\{[^}]*\} (\S+)", server.metrics_text()
            )
        ]
        assert sum(swaps) == 1.0
        assert server.dedup_hits > 0
        text = server.metrics_text()
        assert re.search(r"acp_dedup_hits_total \d", text)
        assert re.search(r"acp_retries_total \d", text)

    def test_every_rpc_terminates_typed_even_when_retries_exhaust(self):
        """One attempt + a lossy wire: the failure is a typed AcpError,
        never a hang or an unhandled exception."""
        client = AcpClient(
            server=AcpServer(threaded=False),
            faults=AcpFaultConfig(seed=5, drop_rate=1.0),
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        with pytest.raises(AcpError) as excinfo:
            client.hello()
        assert excinfo.value.code == "transport"


class TestStaleAndMismatchedSeqs:
    def attach(self, server):
        client = AcpClient(server=server)
        client.attach(
            "hars-ei", SHAPE, RunConfig(), session_id="seqs"
        )
        return client

    def test_stale_seq_gets_typed_error(self):
        server = AcpServer(threaded=False)
        self.attach(server)
        high = wire.make_frame("run", "seqs", 50, {"seconds": 0.5})
        server.handle_frame(high)
        stale = wire.make_frame("run", "seqs", 7, {"seconds": 0.5})
        [response] = server.handle_frame(stale)
        assert response.type == "error"
        assert response.payload["code"] == wire.ERR_STALE_SEQ

    def test_reused_seq_with_new_type_is_refused_not_replayed(self):
        server = AcpServer(threaded=False)
        self.attach(server)
        server.handle_frame(wire.make_frame("run", "seqs", 9, {"seconds": 0.5}))
        [response] = server.handle_frame(
            wire.make_frame("detach", "seqs", 9, {})
        )
        assert response.type == "error"
        assert response.payload["code"] == wire.ERR_STALE_SEQ

    def test_duplicate_advance_does_not_advance_twice(self):
        server = AcpServer(threaded=False)
        self.attach(server)
        frame = wire.make_frame("run", "seqs", 12, {"seconds": 2.0})
        [first] = server.handle_frame(frame)
        [replay] = server.handle_frame(frame)
        assert replay.payload["time_s"] == first.payload["time_s"]
        assert server.dedup_hits == 1

    def test_duplicate_checkpoint_replays_same_snapshot(self):
        server = AcpServer(threaded=False)
        client = AcpClient(server=server)
        client.attach(
            "hars-ei",
            SHAPE,
            RunConfig(checkpoint=2.0),
            session_id="seqs",
        )
        server.handle_frame(wire.make_frame("run", "seqs", 30, {"seconds": 3.0}))
        frame = wire.make_frame("checkpoint", "seqs", 31, {})
        [first] = server.handle_frame(frame)
        [replay] = server.handle_frame(frame)
        assert replay.payload == first.payload


class TestClientRetry:
    class Flaky:
        def __init__(self, inner, failures):
            self.inner = inner
            self.failures = failures
            self.calls = 0

        def exchange(self, line, timeout_s):
            self.calls += 1
            if self.failures > 0:
                self.failures -= 1
                raise OSError("injected connection reset")
            return self.inner.exchange(line, timeout_s)

    def test_transient_failures_recovered_within_policy(self):
        client = AcpClient(
            server=AcpServer(threaded=False),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.0),
        )
        client._transport = self.Flaky(client._transport, failures=2)
        assert client.hello()["server"] == "hars-repro-acp"
        assert client.stats["retries"] == 2

    def test_exhausted_attempts_raise_typed_transport_error(self):
        client = AcpClient(
            server=AcpServer(threaded=False),
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
        )
        client._transport = self.Flaky(client._transport, failures=99)
        with pytest.raises(AcpError) as excinfo:
            client.hello()
        assert excinfo.value.code == "transport"
        assert client._transport.calls == 3

    def test_result_deadline_spans_attempts(self):
        """result(timeout_s) is one wall-clock budget, not per-attempt."""
        import time as _time

        client = AcpClient(
            server=AcpServer(threaded=False),
            retry=RetryPolicy(max_attempts=1000, backoff_s=0.02),
        )
        handle = client.session("ghost")
        client._transport = self.Flaky(client._transport, failures=10**6)
        start = _time.monotonic()
        with pytest.raises(AcpError) as excinfo:
            handle.result(timeout_s=0.3)
        elapsed = _time.monotonic() - start
        assert excinfo.value.code == "deadline"
        assert elapsed < 5.0


# -- daemon fuzz --------------------------------------------------------------


@pytest.fixture()
def daemon(tmp_path):
    d = AcpDaemon(
        socket_path=str(tmp_path / "acp.sock"),
        http_port=0,
        state_dir=str(tmp_path / "state"),
    )
    d.start()
    yield d
    d.stop()


def raw_unix(path, data, timeout=30.0):
    """Send raw bytes, return the raw response text."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).decode("utf-8", "replace")


def scrape_counter(daemon, name):
    with AcpClient(f"unix://{daemon.socket_path}") as client:
        text = client.metrics_text()
    match = re.search(rf"^{name} (\S+)$", text, re.MULTILINE)
    assert match, f"{name} missing from /metrics"
    return float(match.group(1))


class TestTornLineRegression:
    def test_partial_trailing_line_is_discarded_not_dispatched(self, daemon):
        """A client dying mid-write must not crash the connection
        thread, poison the next session, or half-apply a frame."""
        valid = wire.encode_frame(
            wire.make_frame("hello", "", 1, {})
        )
        response = raw_unix(daemon.socket_path, valid[: len(valid) // 2].encode())
        data = json.loads(response.splitlines()[0])
        assert data["type"] == "error"
        assert data["payload"]["code"] == wire.ERR_TORN_LINE
        assert scrape_counter(daemon, "acp_frames_corrupt_total") >= 1.0
        # The daemon is unpoisoned: a fresh client attaches and runs.
        with AcpClient(f"unix://{daemon.socket_path}") as client:
            handle = client.attach("hars-ei", SHAPE, RunConfig())
            assert handle.run()["state"] == "running"
            handle.result(timeout_s=120)
            handle.detach()

    def test_non_utf8_bytes_are_contained(self, daemon):
        response = raw_unix(daemon.socket_path, b"\xff\xfe\x00garbage\n")
        data = json.loads(response.splitlines()[0])
        assert data["type"] == "error"
        assert data["payload"]["code"] == wire.ERR_BAD_FRAME


class TestTransportFuzz:
    def corrupted_lines(self, count=40):
        import random

        rng = random.Random("acp-fuzz")
        base = wire.encode_frame(
            wire.make_frame("run", "nope", 3, {"seconds": 1.0})
        )
        for _ in range(count):
            line = list(base)
            for _ in range(rng.randrange(1, 4)):
                line[rng.randrange(len(line))] = chr(33 + rng.randrange(90))
            yield "".join(line)

    def test_unix_fuzz_always_typed_error_frames(self, daemon):
        for line in self.corrupted_lines():
            response = raw_unix(
                daemon.socket_path, (line + "\n").encode("utf-8", "replace")
            )
            for out in response.splitlines():
                data = json.loads(out)
                assert isinstance(data.get("type"), str)
        # Still alive, still serving.
        with AcpClient(f"unix://{daemon.socket_path}") as client:
            assert client.hello()["server"] == "hars-repro-acp"

    def test_unix_truncation_fuzz(self, daemon):
        import random

        rng = random.Random("acp-truncate")
        base = wire.encode_frame(
            wire.make_frame("sessions", "", 4, {})
        )
        for _ in range(15):
            cut = rng.randrange(1, len(base))
            response = raw_unix(daemon.socket_path, base[:cut].encode())
            data = json.loads(response.splitlines()[0])
            assert data["type"] == "error"
            assert data["payload"]["code"] == wire.ERR_TORN_LINE
        with AcpClient(f"unix://{daemon.socket_path}") as client:
            assert client.sessions()["sessions"] == []

    def test_http_fuzz_always_typed_error_frames(self, daemon):
        import urllib.request

        base = f"http://127.0.0.1:{daemon.http_port}"
        for line in self.corrupted_lines(count=15):
            request = urllib.request.Request(
                base + "/v1/frames",
                data=(line + "\n").encode("utf-8", "replace"),
                method="POST",
            )
            body = (
                urllib.request.urlopen(request, timeout=30).read().decode()
            )
            for out in body.splitlines():
                data = json.loads(out)
                assert isinstance(data.get("type"), str)
        assert AcpClient(base).hello()["server"] == "hars-repro-acp"

    def test_http_bad_content_length_is_400(self, daemon):
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.http_port, timeout=30
        )
        try:
            conn.putrequest("POST", "/v1/frames")
            conn.putheader("Content-Length", "not-a-number")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_chaotic_client_against_real_daemon(self, daemon):
        """The seeded shim over a real Unix socket: the run completes
        and every fault terminated typed (no hang = this test ends)."""
        client = AcpClient(
            f"unix://{daemon.socket_path}",
            faults=AcpFaultConfig(
                seed=23,
                drop_rate=0.1,
                dup_rate=0.1,
                corrupt_rate=0.1,
                disconnect_rate=0.05,
            ),
            retry=RetryPolicy(max_attempts=10, backoff_s=0.001),
        )
        with client:
            handle = client.attach(
                "hars-ei", SHAPE, RunConfig(), session_id="chaotic-unix"
            )
            handle.run()
            outcome = handle.result(timeout_s=120)
            assert outcome.metrics.apps[0].heartbeats > 0
            handle.detach()
        assert set(ACP_FAULT_KINDS) == set(
            client._transport.injected
        )
