"""Daemon transports: Unix-socket JSONL and HTTP, threaded sessions.

These exercise the real process-boundary path — sockets, background
driver threads, client disconnects — so they assert liveness and
containment rather than bit-level values (the deterministic loopback
suite owns those).
"""

import json
import re
import urllib.request

import pytest

from repro.acp import transport
from repro.acp.client import SINGLE_ATTEMPT, AcpClient, AcpError, UnixTransport
from repro.acp.transport import AcpDaemon
from repro.experiments.runner import RunConfig, RunShape


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


def attach_two_apps(client, n_units=300):
    shapes = [
        RunShape(benchmark="swaptions", n_units=n_units),
        RunShape(benchmark="bodytrack", n_units=n_units),
    ]
    return client.attach(
        "mp-hars-ei", shapes, RunConfig(telemetry=True, checkpoint=2.0)
    )


class TestUnixSocket:
    def test_attach_run_swap_result(self, daemon):
        with AcpClient(f"unix://{daemon.socket_path}") as client:
            assert client.hello()["server"] == "hars-repro-acp"
            handle = attach_two_apps(client)
            assert handle.run()["state"] == "running"
            swap = handle.swap_policy("hars-i")
            assert swap["policy"] == "HARS-I"
            outcome = handle.result(timeout_s=120)
            assert sorted(a.app_name for a in outcome.metrics.apps) == [
                "bodytrack-1",
                "swaptions-0",
            ]
            events = handle.events()
            assert any(e.type == "policy-swapped" for e in events)
            handle.detach()

    def test_daemon_survives_client_death(self, daemon):
        """A vanished client is a closed socket, not a lost session."""
        client = AcpClient(f"unix://{daemon.socket_path}")
        handle = attach_two_apps(client)
        handle.run()
        session_id = handle.session_id
        client.close()  # its connection is gone; the daemon keeps going
        del client, handle

        with AcpClient(f"unix://{daemon.socket_path}") as reattached:
            listing = reattached.sessions()["sessions"]
            assert [s["session_id"] for s in listing] == [session_id]
            outcome = reattached.session(session_id).result(timeout_s=120)
        assert outcome.metrics.apps[0].heartbeats > 0

    def test_malformed_line_gets_error_frame(self, daemon):
        import socket

        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30)
            sock.connect(daemon.socket_path)
            sock.sendall(b"this is not a frame\n")
            sock.shutdown(socket.SHUT_WR)
            response = sock.makefile("r").readline()
        data = json.loads(response)
        assert data["type"] == "error"
        assert "undecodable" in data["payload"]["error"]


@pytest.fixture()
def connects(monkeypatch):
    """Every connection the Unix transport opens, by its timeout."""
    opened = []
    original = UnixTransport._connect

    def counting(self, timeout_s):
        opened.append(timeout_s)
        return original(self, timeout_s)

    monkeypatch.setattr(UnixTransport, "_connect", counting)
    return opened


def attach_one_app(client):
    return client.attach(
        "hars-i",
        RunShape(benchmark="swaptions", n_units=20),
        RunConfig(telemetry=True),
    )


class TestKeptOpenConnection:
    def test_one_connection_serves_every_rpc(self, daemon, connects):
        with AcpClient(f"unix://{daemon.socket_path}") as client:
            for _ in range(50):
                assert client.hello()["server"] == "hars-repro-acp"
        assert len(connects) == 1

    def test_stale_connection_survives_an_idle_restart(self, tmp_path, connects):
        """A single-attempt client whose daemon restarted between two
        RPCs reconnects and gets the new daemon's answer."""
        path = str(tmp_path / "acp.sock")
        with AcpClient(f"unix://{path}", retry=SINGLE_ATTEMPT) as client:
            with AcpDaemon(socket_path=path):
                attach_one_app(client)
                assert len(client.sessions()["sessions"]) == 1
            with AcpDaemon(socket_path=path):
                # Only the restarted daemon has no session attached.
                assert client.sessions()["sessions"] == []
        assert len(connects) == 2
        assert client.stats["retries"] == 0

    def test_lost_swap_response_is_resent_and_applied_once(
        self, daemon, monkeypatch, connects
    ):
        """The daemon applies a swap, then the connection closes before
        the answer: the client re-sends the same seq on a new connection
        and is answered from the replay cache."""
        dropped = []
        reply = transport._UnixHandler._reply

        def lossy(handler, lines):
            if not dropped and '"type":"swap-ack"' in lines[-1]:
                dropped.append(lines[-1])
                return False  # the handler ends, the connection closes
            return reply(handler, lines)

        monkeypatch.setattr(transport._UnixHandler, "_reply", lossy)
        with AcpClient(
            f"unix://{daemon.socket_path}", retry=SINGLE_ATTEMPT
        ) as client:
            handle = attach_one_app(client)
            assert handle.swap_policy("hars-e")["policy"] == "HARS-E"
            text = client.metrics_text()
        assert dropped and len(connects) == 2
        assert client.stats["retries"] == 0
        assert daemon.acp.dedup_hits == 1
        swaps = re.findall(r"^policy_swaps_total\{[^}]*\} (\S+)$", text, re.M)
        assert [float(v) for v in swaps] == [1.0]


class TestHttp:
    def test_frames_and_metrics_and_sessions(self, daemon):
        base = f"http://127.0.0.1:{daemon.http_port}"
        client = AcpClient(base)
        handle = attach_two_apps(client)
        handle.run()
        # Live scrape while the session is running.
        text = (
            urllib.request.urlopen(base + "/metrics", timeout=30)
            .read()
            .decode()
        )
        assert "acp_sessions_attached_total" in text
        assert f'session="{handle.session_id}"' in text
        listing = json.loads(
            urllib.request.urlopen(base + "/v1/sessions", timeout=30)
            .read()
            .decode()
        )
        assert [s["session_id"] for s in listing["sessions"]] == [
            handle.session_id
        ]
        outcome = handle.result(timeout_s=120)
        assert outcome.max_rate > 0
        handle.detach()

    def test_unknown_path_is_404(self, daemon):
        base = f"http://127.0.0.1:{daemon.http_port}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/nope", timeout=30)
        with excinfo.value as error:    # it holds the response's socket
            assert error.code == 404


class TestEndpointParsing:
    def test_bad_endpoint_refused(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="endpoint"):
            AcpClient("ftp://nope")
        with pytest.raises(ConfigurationError, match="socket path"):
            AcpClient("unix://")

    def test_daemon_needs_a_transport(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="socket path"):
            AcpDaemon()


class TestAttachCommand:
    def test_defaults_attach_and_finish(self, capsys):
        """``hars-repro attach`` with only an endpoint and a size runs
        its default version and benchmark to completion."""
        from repro.acp.cli import main

        assert main(["attach", "--endpoint", "loopback", "--units", "10"]) == 0
        out = capsys.readouterr().out
        app_lines = [l for l in out.splitlines() if "heartbeats=" in l]
        assert len(app_lines) == 1
        assert app_lines[0].strip().startswith("swaptions:")

    @pytest.mark.parametrize(
        "version, bench, rule",
        [
            ("mp-hars-e", "swaptions", "two or more comma-separated --bench"),
            ("hars-e", "swaptions,bodytrack", "one --bench"),
        ],
    )
    def test_wrong_arity_states_the_rule(self, capsys, version, bench, rule):
        """A version given the other registry's number of benchmarks is
        refused with the arity rule, not as an unknown version."""
        from repro.acp.cli import main

        argv = ["attach", "--endpoint", "loopback", "--version", version,
                "--bench", bench, "--units", "10"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert rule in err
        assert "unknown" not in err
