"""Session lifecycle on the loopback server: attach → hot-swap →
checkpoint → crash quarantine → detach → restart recovery.

Everything here but the event-batch scan check runs the server inline
(``threaded=False``), so the tests are deterministic: each request is
fully served before the next.
"""

import json
import os
import sys

import pytest

from repro.acp import wire
from repro.acp.client import AcpClient, AcpError
from repro.acp.server import AcpServer
from repro.acp.session import FINISHED, QUARANTINED, RUNNING, resolve_policy
from repro.core.policy import POLICY_BY_NAME
from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, RunShape


def two_app_shapes(n_units=200):
    return [
        RunShape(benchmark="swaptions", n_units=n_units),
        RunShape(benchmark="bodytrack", n_units=n_units),
    ]


def attach_multi(client, **kwargs):
    return client.attach(
        "mp-hars-ei",
        two_app_shapes(),
        RunConfig(telemetry=True, checkpoint=2.0),
        **kwargs,
    )


class TestLifecycle:
    def test_attach_advance_finish(self):
        client = AcpClient("loopback")
        handle = client.attach(
            "hars-i", RunShape(benchmark="swaptions", n_units=60)
        )
        status = handle.advance(1.0)
        assert status["state"] == "running"
        assert status["time_s"] == pytest.approx(1.0)
        outcome = handle.result()
        assert [a.app_name for a in outcome.metrics.apps] == ["swaptions"]
        assert handle.status()["state"] == FINISHED

    def test_hello_and_sessions(self):
        client = AcpClient("loopback")
        assert client.hello()["server"] == "hars-repro-acp"
        handle = attach_multi(client)
        listing = client.sessions()
        assert [s["session_id"] for s in listing["sessions"]] == [
            handle.session_id
        ]

    def test_detach_frees_the_session(self):
        client = AcpClient("loopback")
        handle = attach_multi(client)
        handle.detach()
        with pytest.raises(AcpError, match="no such session"):
            handle.advance(1.0)


class TestHotSwap:
    def test_swap_lands_before_the_next_plan(self):
        """A swap must be live within one adaptation period.

        The planner re-reads ``self.policy`` on every plan, so the
        strongest possible guarantee holds: the *very next* planner
        invocation after the swap — by definition at most one adaptation
        period away — already runs under the new policy.  A spy on the
        live planner proves it end-to-end.
        """
        client = AcpClient("loopback")
        handle = client.attach(
            "hars-ei", RunShape(benchmark="swaptions", n_units=300)
        )
        handle.advance(0.5)
        result = handle.swap_policy("hars-i")
        assert result["policy"] == "HARS-I"
        assert result["controllers"]

        session = client._server._sessions[handle.session_id]
        manager = next(
            c
            for c in session.prepared.sim.controllers
            if getattr(c, "mape", None) is not None
        )
        assert manager.policy is POLICY_BY_NAME["HARS-I"]
        planner = manager.mape.planner
        assert planner.policy is POLICY_BY_NAME["HARS-I"]

        calls = []
        original_plan = planner.plan

        def spying_plan(*args, **kwargs):
            calls.append(planner.policy.name)
            return original_plan(*args, **kwargs)

        planner.plan = spying_plan
        handle.advance(10.0)
        assert calls, "planner never ran after the swap"
        assert calls[0] == "HARS-I"

        events = handle.events()
        swap_events = [e for e in events if e.type == "policy-swapped"]
        assert len(swap_events) == 1
        assert swap_events[0].payload["policy"] == "HARS-I"
        assert swap_events[0].payload["time_s"] == result["time_s"]

    def test_swap_retargets_the_multi_app_manager(self):
        """MP-HARS swaps too: the manager object and its MAPE planner
        both hold the new policy, and the bus records the swap."""
        client = AcpClient("loopback")
        handle = attach_multi(client)
        handle.advance(5.0)
        result = handle.swap_policy("hars-i")
        assert result["controllers"] == ["mp-hars"]

        session = client._server._sessions[handle.session_id]
        manager = next(
            c
            for c in session.prepared.sim.controllers
            if getattr(c, "mape", None) is not None
        )
        assert manager.policy is POLICY_BY_NAME["HARS-I"]
        assert manager.mape.planner.policy is POLICY_BY_NAME["HARS-I"]
        swap_events = [
            e for e in handle.events() if e.type == "policy-swapped"
        ]
        assert len(swap_events) == 1
        assert swap_events[0].payload["controllers"] == ["mp-hars"]

    def test_swap_is_counted_by_telemetry(self):
        client = AcpClient("loopback")
        handle = attach_multi(client)
        handle.advance(2.0)
        handle.swap_policy("hars-e")
        assert 'policy_swaps_total{' in client.metrics_text()

    def test_swap_rejects_unknown_policy(self):
        client = AcpClient("loopback")
        handle = attach_multi(client)
        with pytest.raises(AcpError, match="unknown policy"):
            handle.swap_policy("round-robin")
        # The refusal did not poison the session.
        assert handle.advance(1.0)["state"] == "running"

    def test_resolve_policy_names(self):
        assert resolve_policy("hars-i").name == "HARS-I"
        assert resolve_policy("MP-HARS-EI").name == "HARS-EI"
        with pytest.raises(ConfigurationError):
            resolve_policy("nope")


class TestCheckpointAndQuarantine:
    def test_checkpoint_now_returns_validated_envelopes(self):
        client = AcpClient("loopback")
        handle = attach_multi(client)
        handle.advance(3.0)
        result = handle.checkpoint()
        assert result["store"], "no checkpoint-capable controller found"
        for envelope in result["store"].values():
            assert envelope["time_s"] == result["time_s"]
            assert "body" in envelope

    def test_crash_is_quarantined_not_fatal(self):
        server = AcpServer()
        client = AcpClient("loopback", server=server)
        sick = attach_multi(client)
        healthy = client.attach(
            "hars-i", RunShape(benchmark="swaptions", n_units=60)
        )

        session = server._sessions[sick.session_id]
        manager = next(
            c
            for c in session.prepared.sim.controllers
            if getattr(c, "mape", None) is not None
        )
        def explode(*args, **kwargs):
            raise RuntimeError("injected controller crash")
        manager.mape.planner.plan = explode

        with pytest.raises(AcpError, match="quarantined"):
            sick.run()
        status = [
            s
            for s in client.sessions()["sessions"]
            if s["session_id"] == sick.session_id
        ][0]
        assert status["state"] == QUARANTINED
        assert "injected controller crash" in status["error"]
        # The daemon and its other tenant are untouched.
        outcome = healthy.result()
        assert outcome.metrics.apps[0].heartbeats > 0

    def test_quarantined_session_refuses_further_runs(self):
        server = AcpServer()
        client = AcpClient("loopback", server=server)
        handle = attach_multi(client)
        server._sessions[handle.session_id].quarantine(RuntimeError("dead"))
        with pytest.raises(AcpError, match="quarantined|cannot run"):
            handle.run()


class TestRestartRecovery:
    def test_daemon_restart_restores_warm(self, tmp_path):
        state_dir = str(tmp_path / "state")
        first = AcpServer(state_dir=state_dir)
        client = AcpClient("loopback", server=first)
        handle = attach_multi(client, session_id="tenant-a")
        handle.advance(5.0)
        handle.checkpoint()
        handle.detach()
        assert os.path.exists(os.path.join(state_dir, "tenant-a.json"))

        # A new server process scans the state dir on construction...
        second = AcpServer(state_dir=state_dir)
        assert "tenant-a" in second.recovered
        assert second.ledger == []
        client2 = AcpClient("loopback", server=second)
        resumed = attach_multi(client2, session_id="tenant-a", resume=True)
        resumed.advance(1.0)
        restores = [
            e for e in resumed.events() if e.type == "restored"
        ]
        assert restores and all(e.payload["warm"] for e in restores)

    def test_torn_state_file_cold_starts_with_ledger_entry(self, tmp_path):
        state_dir = str(tmp_path / "state")
        first = AcpServer(state_dir=state_dir)
        client = AcpClient("loopback", server=first)
        handle = attach_multi(client, session_id="tenant-b")
        handle.advance(5.0)
        handle.checkpoint()
        handle.detach()

        path = os.path.join(state_dir, "tenant-b.json")
        with open(path, "r", encoding="utf-8") as stream:
            text = stream.read()
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text[: len(text) // 2])  # torn mid-write

        second = AcpServer(state_dir=state_dir)
        assert len(second.ledger) == 1
        assert second.ledger[0]["action"] == "cold-start fallback"
        client2 = AcpClient("loopback", server=second)
        resumed = attach_multi(client2, session_id="tenant-b", resume=True)
        resumed.advance(1.0)
        restores = [e for e in resumed.events() if e.type == "restored"]
        assert restores and not any(e.payload["warm"] for e in restores)
        # The operator sees the ledger through the sessions listing.
        assert client2.sessions()["ledger"]


class TestStreaming:
    def test_stream_events_carries_heartbeats_and_sensors(self):
        client = AcpClient("loopback")
        handle = client.attach(
            "hars-i",
            RunShape(benchmark="swaptions", n_units=100),
            RunConfig(),
            stream_events=True,
        )
        handle.advance(3.0)
        types = {e.type for e in handle.events()}
        assert "heartbeat" in types
        assert "plan" in types and "actuate" in types

    def test_events_since_seq_returns_exactly_the_later_frames(self):
        """The resume seam: ``events(since_seq=k)`` is every frame past
        ``k``, in order, and nothing at or before it."""
        client = AcpClient("loopback")
        handle = client.attach(
            "hars-i",
            RunShape(benchmark="swaptions", n_units=100),
            RunConfig(),
            stream_events=True,
        )
        handle.advance(3.0)
        frames = handle.events()
        seqs = [f.seq for f in frames]
        assert len(seqs) > 2 and seqs == sorted(set(seqs))
        k = seqs[len(seqs) // 2]
        later = handle.events(since_seq=k)
        assert [(f.seq, f.type) for f in later] == [
            (f.seq, f.type) for f in frames if f.seq > k
        ]
        assert handle.events(since_seq=seqs[-1]) == []

    def test_events_batch_matches_a_full_scan(self):
        """``events(since)`` slices the history by seq; it must equal a
        scan of the whole history, also while a driver thread appends."""
        server = AcpServer(threaded=True)
        client = AcpClient("loopback", server=server)
        handle = client.attach(
            "hars-i",
            RunShape(benchmark="swaptions", n_units=200),
            RunConfig(),
            stream_events=True,
        )
        history = server._sessions[handle.session_id].events

        def scan(since, events):
            return [(seq, line) for seq, line in events if seq > since]

        def batch(since):
            return [
                (f.seq, wire.encode_frame(f))
                for f in handle.events(since_seq=since)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the driver's appends
        try:
            handle.run()
            since = 0
            while server._sessions[handle.session_id].state == RUNNING:
                before = len(history)
                got = batch(since)
                after = list(history)
                # Every frame there before the call, nothing out of order.
                assert got == scan(since, after)[: len(got)]
                assert len(got) >= len(scan(since, history[:before]))
                since = got[len(got) // 2][0] if got else since
            handle.result(timeout_s=120)
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
        seqs = [seq for seq, _ in history]
        assert len(seqs) > 2
        for since in (0, seqs[len(seqs) // 2], seqs[-1], seqs[-1] + 5):
            assert batch(since) == scan(since, history)

    def test_every_event_line_is_the_generic_encoding(self):
        """Events are encoded once, when emitted (sensor lines around a
        cached reading fragment): every kept line must equal
        ``json.dumps`` of its decoded envelope, and the client must
        decode exactly those frames."""
        server = AcpServer()
        client = AcpClient("loopback", server=server)
        handle = client.attach(
            "hars-i",
            RunShape(benchmark="swaptions", n_units=100),
            RunConfig(),
            stream_events=True,
        )
        handle.advance(2.0)
        handle.swap_policy("hars-e")
        handle.result()
        history = server._sessions[handle.session_id].events
        types = set()
        for seq, line in history:
            frame = wire.decode_frame(line)
            envelope = dict(
                schema_version=frame.schema_version,
                session_id=frame.session_id,
                seq=frame.seq,
                type=frame.type,
                payload=frame.payload,
            )
            assert line == json.dumps(
                envelope, sort_keys=True, separators=(",", ":")
            )
            assert frame.seq == seq and frame.is_event and not frame.extra
            types.add(frame.type)
        assert types >= {
            "sensor", "heartbeat", "plan", "actuate", "policy-swapped",
            "lifecycle",
        }
        sensors = [line for _, line in history if '"type":"sensor"' in line]
        assert len(sensors) > 100
        assert handle.events() == [
            wire.decode_frame(line) for _, line in history
        ]

    def test_a_non_number_rail_is_refused_when_emitted(self):
        from repro.kernel.bus import PowerSample

        server = AcpServer()
        client = AcpClient("loopback", server=server)
        handle = client.attach(
            "hars-i",
            RunShape(benchmark="swaptions", n_units=20),
            RunConfig(),
            stream_events=True,
        )
        session = server._sessions[handle.session_id]
        bus = session.prepared.sim.bus
        before = len(session.events)
        with pytest.raises(ConfigurationError, match="rail 'big'"):
            bus.publish(PowerSample(time_s=0.5, watts={"big": "hot"}))
        with pytest.raises(ConfigurationError, match="time_s"):
            bus.publish(PowerSample(time_s=None, watts={"big": 1.0}))
        assert len(session.events) == before
        bus.publish(PowerSample(time_s=0.5, watts={"big": 1.0}))
        [(seq, line)] = session.events[before:]
        assert wire.decode_frame(line).payload == {
            "time_s": 0.5, "watts": {"big": 1.0}
        }

    @pytest.mark.parametrize("since", ["7", 7.0, True, None])
    def test_events_refuses_a_non_int_since_seq(self, since):
        client = AcpClient("loopback")
        handle = client.attach(
            "hars-i", RunShape(benchmark="swaptions", n_units=20), RunConfig()
        )
        with pytest.raises(AcpError, match="since_seq"):
            handle.events(since_seq=since)

    def test_observation_is_result_neutral(self):
        """Streaming observation frames must not perturb the physics."""
        from repro.experiments.runner import run
        from repro.experiments.serialize import run_metrics_to_dict

        shape = RunShape(benchmark="swaptions", n_units=60)
        baseline = run("hars-i", shape, RunConfig())
        client = AcpClient("loopback")
        handle = client.attach("hars-i", shape, RunConfig(), stream_events=True)
        streamed = handle.result()
        assert run_metrics_to_dict(baseline.metrics) == run_metrics_to_dict(
            streamed.metrics
        )
