"""Wire-format tests: round-trips, schema checks, forward tolerance."""

import json

import pytest

from repro.acp import wire
from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, RunShape
from repro.experiments.serialize import checkpoint_payload


def roundtrip(frame: wire.Frame) -> wire.Frame:
    return wire.decode_frame(wire.encode_frame(frame))


class TestRoundTrip:
    def test_heartbeat(self):
        frame = wire.heartbeat_frame(
            "s1", 3, "swaptions-0", 41, 1.25, rate=37.5, tag="phase-a"
        )
        back = roundtrip(frame)
        assert back == frame
        assert back.payload["rate"] == 37.5

    def test_sensor(self):
        frame = wire.sensor_frame("s1", 4, 2.0, {"big": 3.5, "little": 0.75})
        assert roundtrip(frame) == frame

    def test_plan(self):
        frame = wire.plan_frame("s1", 5, "app", 2.0, [4, 4, 2000, 1400])
        assert roundtrip(frame) == frame

    def test_actuate(self):
        frame = wire.actuate_frame("s1", 6, "app", 2.0, 4, 4, 2000, 1400)
        assert roundtrip(frame) == frame

    def test_checkpoint(self):
        envelope = checkpoint_payload("mp-hars", 12.5, {"ratio": 1.5})
        frame = wire.checkpoint_frame("s1", 7, 12.5, {"mp-hars": envelope})
        assert roundtrip(frame) == frame

    def test_checkpoint_request_direction_may_be_empty(self):
        frame = wire.make_frame("checkpoint", "s1", 8, {})
        assert roundtrip(frame) == frame

    def test_swap(self):
        frame = wire.swap_frame("s1", 9, "hars-i", adapt_every=3)
        back = roundtrip(frame)
        assert back.payload == {"policy": "hars-i", "adapt_every": 3}

    def test_error(self):
        frame = wire.error_frame("s1", 10, "boom", detail="stack")
        assert roundtrip(frame) == frame

    def test_floats_survive_bit_exactly(self):
        value = 0.1 + 0.2  # not representable "nicely"; repr round-trips
        frame = wire.sensor_frame("s1", 1, value, {"big": value * 3})
        back = roundtrip(frame)
        assert back.payload["time_s"] == value
        assert back.payload["watts"]["big"] == value * 3

    @pytest.mark.parametrize(
        "frame",
        [
            wire.sensor_frame("s1", 2, 0.1 + 0.2, {"big": 3.5, "little": 1e-9}),
            wire.Frame(
                type="swap",
                session_id="s1",
                seq=3,
                payload={"policy": "hars-i"},
                extra={"attempt": 2, "zz_trace": {"b": [1, 2.5], "a": None}},
            ),
            wire.make_frame(
                "lifecycle",
                "sessión-ß",
                4,
                {"nested": {"z": [{"y": True, "x": "ünï"}], "a": -0.0}},
            ),
        ],
    )
    def test_encoding_matches_json_dumps(self, frame):
        """The shared encoder writes exactly what ``json.dumps`` with
        the wire's settings writes."""
        data = dict(frame.extra)
        data.update(
            schema_version=frame.schema_version,
            session_id=frame.session_id,
            seq=frame.seq,
            type=frame.type,
            payload=frame.payload,
        )
        expected = json.dumps(data, sort_keys=True, separators=(",", ":"))
        assert wire.encode_frame(frame) == expected


class TestForwardTolerance:
    def test_unknown_payload_fields_pass_through(self):
        line = wire.encode_frame(
            wire.heartbeat_frame("s1", 1, "app", 0, 0.0)
        )
        data = json.loads(line)
        data["payload"]["future_field"] = {"nested": True}
        back = wire.decode_frame(json.dumps(data))
        assert back.payload["future_field"] == {"nested": True}

    def test_unknown_envelope_fields_preserved_on_reencode(self):
        data = json.loads(
            wire.encode_frame(wire.make_frame("hello", "", 1, {}))
        )
        data["trace_id"] = "abc123"
        back = wire.decode_frame(json.dumps(data))
        assert back.extra == {"trace_id": "abc123"}
        # Tolerant readers must not be lossy rewriters.
        reencoded = json.loads(wire.encode_frame(back))
        assert reencoded["trace_id"] == "abc123"

    def test_unknown_frame_type_is_decodable(self):
        line = json.dumps(
            {
                "schema_version": wire.WIRE_SCHEMA_VERSION,
                "session_id": "s1",
                "seq": 1,
                "type": "telepathy",
                "payload": {"whatever": 1},
            }
        )
        assert wire.decode_frame(line).type == "telepathy"


class TestRejection:
    def test_wrong_schema_version(self):
        data = json.loads(
            wire.encode_frame(wire.make_frame("hello", "", 1, {}))
        )
        data["schema_version"] = wire.WIRE_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="schema_version"):
            wire.decode_frame(json.dumps(data))

    def test_malformed_json(self):
        with pytest.raises(ConfigurationError, match="undecodable"):
            wire.decode_frame("{not json")

    def test_non_object(self):
        with pytest.raises(ConfigurationError, match="not a JSON object"):
            wire.decode_frame("[1, 2]")

    @pytest.mark.parametrize("missing", ["schema_version", "seq", "type"])
    def test_missing_envelope_field(self, missing):
        data = json.loads(
            wire.encode_frame(wire.make_frame("hello", "", 1, {}))
        )
        del data[missing]
        with pytest.raises(ConfigurationError):
            wire.decode_frame(json.dumps(data))

    def test_bad_payload_schema(self):
        line = json.dumps(
            {
                "schema_version": wire.WIRE_SCHEMA_VERSION,
                "session_id": "s1",
                "seq": 1,
                "type": "heartbeat",
                "payload": {"app": "x"},  # hb_index/time_s missing
            }
        )
        with pytest.raises(ConfigurationError, match="heartbeat frame"):
            wire.decode_frame(line)

    def test_bool_is_not_a_number(self):
        line = json.dumps(
            {
                "schema_version": wire.WIRE_SCHEMA_VERSION,
                "session_id": "s1",
                "seq": 1,
                "type": "sensor",
                "payload": {"time_s": 0.0, "watts": {"big": True}},
            }
        )
        with pytest.raises(ConfigurationError, match="number"):
            wire.decode_frame(line)

    def test_bad_state_quad(self):
        with pytest.raises(ConfigurationError, match="state"):
            wire.plan_frame("s1", 1, "app", 0.0, [4, 4, 2000])


class TestShapeAndConfig:
    def test_shape_roundtrip(self):
        shape = RunShape(
            benchmark="swaptions",
            n_units=123,
            n_threads=6,
            target_fraction=0.75,
            seed=7,
        )
        assert wire.shape_from_wire(wire.shape_to_wire(shape)) == shape

    def test_shape_unknown_fields_ignored(self):
        data = wire.shape_to_wire(RunShape(benchmark="swaptions"))
        data["future"] = "field"
        assert wire.shape_from_wire(data) == RunShape(benchmark="swaptions")

    def test_config_roundtrip(self):
        config = RunConfig(telemetry=True, checkpoint=2.5, supervision=True)
        data = wire.config_to_wire(config)
        assert sorted(data) == ["checkpoint", "supervision", "telemetry"]
        assert wire.config_from_wire(data) == config

    def test_config_refuses_unserializable_layers(self):
        from repro.faults import FaultConfig

        config = RunConfig(faults=FaultConfig(sensor_dropout_rate=0.1))
        with pytest.raises(ConfigurationError, match="faults"):
            wire.config_to_wire(config)


class TestOlderClients:
    def test_v1_attach_with_removed_run_switches_still_attaches(self):
        """A schema-1 attach from a client that still sends the removed
        ``profile``/``cache_estimates`` run switches decodes, attaches
        and runs the same simulation as the in-process default."""
        from repro.acp.server import AcpServer
        from repro.experiments.runner import run
        from repro.experiments.serialize import run_metrics_from_dict

        shape = RunShape(benchmark="swaptions", n_units=40)
        line = json.dumps(
            {
                "schema_version": 1,
                "session_id": "",
                "seq": 1,
                "type": "attach",
                "payload": {
                    "version": "hars-e",
                    "shapes": [wire.shape_to_wire(shape)],
                    "config": {
                        "profile": "legacy",
                        "cache_estimates": False,
                        "supervision": None,
                        "checkpoint": None,
                        "telemetry": None,
                    },
                },
            }
        )
        assert wire.WIRE_SCHEMA_VERSION == 1
        server = AcpServer()
        [attached] = [wire.decode_frame(r) for r in server.handle_line(line)]
        assert attached.type == "attached"
        session_id = attached.payload["session_id"]
        request = wire.make_frame("result", session_id, 2)
        [result] = [
            wire.decode_frame(r)
            for r in server.handle_line(wire.encode_frame(request))
        ]
        assert result.type == "result"
        metrics = run_metrics_from_dict(result.payload["metrics"])
        assert metrics == run("hars-e", shape).metrics
