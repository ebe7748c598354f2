"""Wire-format tests: round-trips, schema checks, forward tolerance."""

import json
import math
from types import MappingProxyType

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
        payload = {"policy": "hars-i", "adapt_every": 3}
        frame = wire.make_frame("swap", "s1", 9, payload)
        back = roundtrip(frame)
        assert back.payload == {"policy": "hars-i", "adapt_every": 3}

    def test_error(self):
        frame = wire.error_frame("s1", 10, "boom", code=wire.ERR_STALE_SEQ)
        assert roundtrip(frame) == frame
        assert frame.payload == {"error": "boom", "code": wire.ERR_STALE_SEQ}

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
        assert wire.encode_frame(frame) == dumps(frame)


def dumps(frame: wire.Frame) -> str:
    """The generic encoding: ``json.dumps`` of the frame's envelope."""
    data = dict(frame.extra)
    data.update(
        schema_version=frame.schema_version,
        session_id=frame.session_id,
        seq=frame.seq,
        type=frame.type,
        payload=frame.payload,
    )
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class TestFrameRecord:
    def test_equality_is_field_by_field(self):
        frame = wire.make_frame("run", "s1", 3, {"seconds": 0.5})
        assert frame == wire.Frame("run", "s1", 3, {"seconds": 0.5})
        assert frame != wire.Frame("run", "s1", 4, {"seconds": 0.5})
        assert frame != wire.Frame("run", "s1", 3, {"seconds": 0.25})
        assert frame != wire.Frame(
            "run", "s1", 3, {"seconds": 0.5}, extra={"attempt": 2}
        )
        assert frame != wire.Frame("run", "s1", 3, {"seconds": 0.5}, 2)
        assert frame != ("run", "s1", 3, {"seconds": 0.5})

    def test_defaults_are_fresh_empty_dicts(self):
        first, second = wire.Frame("hello", "", 1), wire.Frame("hello", "", 2)
        assert first.payload == {} and first.extra == {}
        assert first.payload is not second.payload
        assert first.schema_version == wire.WIRE_SCHEMA_VERSION

    def test_repr_names_every_field(self):
        frame = wire.Frame("swap", "s1", 9, {"policy": "hars-i"})
        assert repr(frame) == (
            "Frame(type='swap', session_id='s1', seq=9, "
            "payload={'policy': 'hars-i'}, schema_version=1, extra={})"
        )

    def test_is_event(self):
        assert wire.Frame("sensor", "s1", 1).is_event
        assert wire.Frame("lifecycle", "s1", 1).is_event
        assert not wire.Frame("event-batch", "s1", 1).is_event
        assert not wire.Frame("error", "s1", 1).is_event

    def test_frames_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(wire.Frame("hello", "", 1))

    def test_unknown_fields_survive_a_reencode(self):
        line = json.dumps(
            {
                "schema_version": 1,
                "session_id": "s1",
                "seq": 5,
                "type": "sensor",
                "payload": {
                    "time_s": 1.5,
                    "watts": {"big": 2.0},
                    "zz_rail_note": [1, "x"],
                },
                "a_trace": {"id": 7},
                "zz_hop": 2,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        frame = wire.decode_frame(line)
        assert frame.extra == {"a_trace": {"id": 7}, "zz_hop": 2}
        assert frame.payload["zz_rail_note"] == [1, "x"]
        assert wire.encode_frame(frame) == line
        assert wire.decode_frame(wire.encode_frame(frame)) == frame


class TestSensorLines:
    @staticmethod
    def expected(seq, time_s, watts, session_id="s1"):
        frame = wire.Frame(
            "sensor", session_id, seq, {"time_s": time_s, "watts": watts}
        )
        return dumps(frame)

    @pytest.mark.parametrize(
        "watts",
        [
            {"big": -0.0, "little": 0.0, "total": 1e-300},
            {"big": 3, "little": 0, "total": -7},
            {"big": math.inf, "little": -math.inf, "total": math.nan},
            {"zz": 0.1 + 0.2, "aa": 1.0, "mm": 2.5e17},
            {},
        ],
    )
    def test_rails_encode_as_the_generic_encoder(self, watts):
        lines = wire.SensorLines("s1")
        assert lines.line(7, 0.01, MappingProxyType(dict(watts))) == (
            self.expected(7, 0.01, watts)
        )
        assert lines.line(7, 0.01, watts) == self.expected(7, 0.01, watts)

    @pytest.mark.parametrize(
        "time_s",
        [0.0, -0.0, 3, 0, 10**20, 0.1 + 0.2, math.inf, -math.inf, math.nan],
    )
    def test_time_encodes_as_the_generic_encoder(self, time_s):
        watts = MappingProxyType({"big": 1.25})
        line = wire.SensorLines("s1").line(2, time_s, watts)
        assert line == self.expected(2, time_s, {"big": 1.25})

    def test_float_subclass_time_encodes_as_the_generic_encoder(self):
        class Seconds(float):
            def __repr__(self):
                return "Seconds()"

        line = wire.SensorLines("s1").line(3, Seconds(0.5), {"big": 1.0})
        assert line == self.expected(3, Seconds(0.5), {"big": 1.0})
        assert '"time_s":0.5' in line

    def test_line_matches_encode_frame_of_sensor_frame(self):
        lines = wire.SensorLines("sessión-ß")
        watts = {"big": 6.069999999999999, "board": 0.25, "total": 6.3}
        for seq, time_s in ((1, 0.01), (2, 0.02), (10**12, 1e9)):
            assert lines.line(seq, time_s, watts) == wire.encode_frame(
                wire.sensor_frame("sessión-ß", seq, time_s, watts)
            )

    def test_each_reading_object_is_encoded_once(self):
        calls = []

        class Counting(wire.SensorLines):
            __slots__ = ()

            def _encode_reading(self, watts):
                calls.append(watts)
                return super()._encode_reading(watts)

        lines = Counting("s1")
        first = MappingProxyType({"big": 2.0, "little": 0.5})
        for seq in range(1, 4):
            assert lines.line(seq, seq * 0.01, first) == self.expected(
                seq, seq * 0.01, {"big": 2.0, "little": 0.5}
            )
        assert calls == [first]
        # An equal but distinct reading gets a line (and an encode) of
        # its own, and so does a changed one.
        equal = MappingProxyType({"big": 2.0, "little": 0.5})
        changed = MappingProxyType({"big": 2.5, "little": 0.5})
        assert lines.line(4, 0.04, equal) == self.expected(
            4, 0.04, {"big": 2.0, "little": 0.5}
        )
        assert lines.line(5, 0.05, changed) == self.expected(
            5, 0.05, {"big": 2.5, "little": 0.5}
        )
        assert lines.line(6, 0.06, first) == self.expected(
            6, 0.06, {"big": 2.0, "little": 0.5}
        )
        assert [id(w) for w in calls] == [
            id(first), id(equal), id(changed), id(first)
        ]

    @pytest.mark.parametrize(
        "watts", [{"big": "hot"}, {"big": True}, {"big": None}, {"big": [1.0]}]
    )
    def test_a_non_number_rail_is_refused(self, watts):
        lines = wire.SensorLines("s1")
        with pytest.raises(ConfigurationError, match="rail 'big'"):
            lines.line(1, 0.01, MappingProxyType(watts))
        # A refused reading is not cached: handing it again refuses
        # again, and the next good reading still encodes.
        with pytest.raises(ConfigurationError, match="rail 'big'"):
            lines.line(2, 0.02, watts)
        assert lines.line(3, 0.03, {"big": 1.0}) == self.expected(
            3, 0.03, {"big": 1.0}
        )

    @pytest.mark.parametrize("time_s", [True, "0.5", None])
    def test_a_non_number_time_is_refused(self, time_s):
        with pytest.raises(ConfigurationError, match="time_s"):
            wire.SensorLines("s1").line(1, time_s, {"big": 1.0})


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
