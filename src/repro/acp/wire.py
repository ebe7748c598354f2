"""ACP wire format: versioned, schema-checked JSONL frames.

Every message between the control-plane daemon and a managed system (or
an :class:`~repro.acp.client.AcpClient`) is one *frame*: a single JSON
object on a single line.  The envelope is fixed —

``{"schema_version": 1, "session_id": "...", "seq": N, "type": "...",
"payload": {...}}``

— and the payload layout is typed per frame ``type``.  Three rules make
the format safe to evolve:

* **Versioned** — ``schema_version`` is checked on decode; a frame from
  an incompatible protocol generation is refused outright rather than
  half-understood.
* **Schema-checked** — each type's required payload fields are validated
  with the same helpers the controller checkpoints use
  (:func:`repro.experiments.serialize.require_str` & friends); there is
  exactly one schema layer in the codebase.
* **Forward-tolerant** — *unknown* fields, in the envelope or the
  payload, are preserved and ignored, so a newer peer can add fields
  without breaking an older one (re-encoding a decoded frame keeps
  them: tolerant readers must not be lossy rewriters).

Event frames (``heartbeat``/``sensor``/``plan``/``actuate``/
``policy-swapped``/``restored``/``lifecycle``) stream server→client;
request frames (``hello``/``attach``/``run``/``swap``/``checkpoint``/
``result``/``sessions``/``metrics``/``detach``) travel client→server and
each is answered by a non-event frame, which is how a client finds the
end of a response batch on a byte stream.

All encoding lives here, and every line is byte for byte what
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` writes for
the frame.  :func:`encode_frame` writes the fixed sorted-key envelope
around the payload's encoding.  A session encodes each event once, when
it is emitted, and keeps the line; its ``sensor`` lines come from
:class:`SensorLines`, which encodes a power reading's ``watts`` once
per distinct reading object.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.serialize import (
    require_dict,
    require_int,
    require_list,
    require_number,
    require_str,
    validate_checkpoint,
)

#: Version of the frame envelope + payload schemas.  Bumped on any
#: incompatible change; decode refuses frames from another version.
WIRE_SCHEMA_VERSION = 1

# -- typed error codes --------------------------------------------------------
#
# An ``error`` frame may carry a machine-readable ``code`` next to its
# human-readable ``error`` message.  The code is what a client's retry
# layer keys on: some failures are a property of the *delivery* (a
# corrupted line, a torn write, a command still in flight) and resolve
# on re-send; others are a property of the *request* and never will.

#: The delivered line was not a parseable frame (malformed JSON, bad
#: schema, non-UTF-8 bytes) — the sender's copy may still be fine.
ERR_BAD_FRAME = "bad-frame"
#: A partial trailing JSONL line from a writer that died mid-write.
ERR_TORN_LINE = "torn-line"
#: The frame's seq is behind the session's window and its response is
#: no longer cached — the command was neither applied nor replayable.
ERR_STALE_SEQ = "stale-seq"
#: A frame with this seq is still being applied; retry for the cached
#: response once it lands.
ERR_IN_FLIGHT = "in-flight"
#: The session's lease expired and it was moved to ``ORPHANED``; attach
#: with ``resume=<session id>`` to recover it.
ERR_ORPHANED = "orphaned"
#: The server hit an unexpected internal error handling the frame.
ERR_INTERNAL = "internal"

#: Codes a client may safely retry: the failure was in delivery, not in
#: the request, and the dedup window guarantees at-most-once application
#: on re-send.
RETRYABLE_ERROR_CODES = frozenset(
    {ERR_BAD_FRAME, ERR_TORN_LINE, ERR_IN_FLIGHT}
)

#: Verdicts of :meth:`SeqWindow.admit`.
SEQ_NEW = "new"
SEQ_DUPLICATE = "duplicate"
SEQ_STALE = "stale"
SEQ_PENDING = "pending"
SEQ_MISMATCH = "mismatch"

#: Frame types that stream as events (server → client).  Everything
#: else terminates a request/response exchange.
EVENT_TYPES = frozenset(
    {
        "heartbeat",
        "sensor",
        "plan",
        "actuate",
        "policy-swapped",
        "restored",
        "lifecycle",
    }
)


class Frame:
    """One wire message: a typed payload in the versioned envelope.

    ``extra`` holds unknown envelope fields a newer peer sent; they are
    carried through re-encoding so this build never strips information
    it merely does not understand.

    A plain slotted record: a client builds one per event line it
    decodes, and a frozen dataclass costs several times as much to
    build.  Frames compare equal field by field and are not hashable
    (the payload is a dict).
    """

    __slots__ = (
        "type", "session_id", "seq", "payload", "schema_version", "extra"
    )

    def __init__(
        self,
        type: str,
        session_id: str,
        seq: int,
        payload: Optional[Dict[str, Any]] = None,
        schema_version: int = WIRE_SCHEMA_VERSION,
        extra: Optional[Dict[str, Any]] = None,
    ):
        self.type = type
        self.session_id = session_id
        self.seq = seq
        self.payload = {} if payload is None else payload
        self.schema_version = schema_version
        self.extra = {} if extra is None else extra

    def _fields(self) -> Tuple[Any, ...]:
        return (
            self.type,
            self.session_id,
            self.seq,
            self.payload,
            self.schema_version,
            self.extra,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Frame:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Frame(type={self.type!r}, session_id={self.session_id!r}, "
            f"seq={self.seq!r}, payload={self.payload!r}, "
            f"schema_version={self.schema_version!r}, extra={self.extra!r})"
        )

    @property
    def is_event(self) -> bool:
        return self.type in EVENT_TYPES


#: One item of a server response: a frame, or an event the session
#: encoded to its wire line when it was emitted.
Reply = Union[Frame, str]

#: One encoder for every frame: ``json.dumps`` with non-default
#: arguments would build a new ``JSONEncoder`` per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: One decoder for every line (what ``json.loads`` uses, minus its
#: per-call argument checks).
_DECODER = json.JSONDecoder()
_ENVELOPE_KEYS = ("schema_version", "session_id", "seq", "type", "payload")


def _scalar(value: Any) -> str:
    """One envelope value as ``_ENCODER`` writes it."""
    if value.__class__ is int:
        return int.__repr__(value)
    if value.__class__ is str:
        return encode_basestring_ascii(value)
    return _ENCODER.encode(value)


def encode_frame(frame: Frame) -> str:
    """One frame → one JSON line (no trailing newline).

    The envelope's keys sort as ``payload``, ``schema_version``,
    ``seq``, ``session_id``, ``type``, so the line is written around
    the payload's encoding; a frame with unknown envelope fields is
    merged through a dict, since those sort in among the known ones.
    """
    if frame.extra:
        data: Dict[str, Any] = dict(frame.extra)
        data.update(
            {
                "schema_version": frame.schema_version,
                "session_id": frame.session_id,
                "seq": frame.seq,
                "type": frame.type,
                "payload": frame.payload,
            }
        )
        return _ENCODER.encode(data)
    return (
        '{"payload":'
        + _ENCODER.encode(frame.payload)
        + ',"schema_version":'
        + _scalar(frame.schema_version)
        + ',"seq":'
        + _scalar(frame.seq)
        + ',"session_id":'
        + _scalar(frame.session_id)
        + ',"type":'
        + _scalar(frame.type)
        + "}"
    )


def decode_frame(line: str) -> Frame:
    """One JSON line → a validated :class:`Frame`.

    Raises :class:`~repro.errors.ConfigurationError` on malformed JSON,
    a wrong ``schema_version``, a missing envelope field, or a payload
    that fails its type's schema.  Unknown envelope and payload fields
    are tolerated (and preserved).
    """
    try:
        data = _DECODER.decode(line)
    except (json.JSONDecodeError, TypeError) as exc:
        raise ConfigurationError(f"undecodable wire frame: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("wire frame is not a JSON object")
    version = require_int(data, "schema_version", "wire frame")
    if version != WIRE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported wire schema_version {version} "
            f"(this build speaks {WIRE_SCHEMA_VERSION})"
        )
    frame_type = require_str(data, "type", "wire frame")
    session_id = data.get("session_id")
    if not isinstance(session_id, str):
        raise ConfigurationError("wire frame: 'session_id' must be a string")
    seq = require_int(data, "seq", "wire frame")
    if seq < 0:
        raise ConfigurationError("wire frame: 'seq' must be >= 0")
    payload = require_dict(data, "payload", "wire frame")
    validator = _PAYLOAD_VALIDATORS.get(frame_type)
    if validator is not None:
        validator(payload)
    # The five envelope keys are all present by now, so a dict of five
    # keys has no unknown ones.
    extra = (
        None
        if len(data) == 5
        else {
            key: value
            for key, value in data.items()
            if key not in _ENVELOPE_KEYS
        }
    )
    return Frame(frame_type, session_id, seq, payload, version, extra)


class SensorLines:
    """A session's ``sensor`` event lines, each power reading encoded once.

    The engine hands :class:`~repro.kernel.bus.PowerSample` subscribers
    the same read-only reading object for as long as the reading
    repeats.  So a reading's ``watts`` JSON is made, and its rails
    schema-checked, only when the object changes; each line is then the
    fixed envelope around ``time_s``, ``seq`` and that fragment, byte
    for byte what :func:`encode_frame` writes for :func:`sensor_frame`.
    """

    __slots__ = ("_tail", "_reading", "_watts")

    def __init__(self, session_id: str):
        self._tail = (
            ',"session_id":' + _scalar(session_id) + ',"type":"sensor"}'
        )
        self._reading: Optional[Mapping[str, Any]] = None
        self._watts = ""

    def line(self, seq: int, time_s: float, watts: Mapping[str, Any]) -> str:
        """The encoded sensor frame; :class:`ConfigurationError` when
        the payload fails the sensor schema."""
        if watts is not self._reading:
            self._watts = self._encode_reading(watts)
            self._reading = watts
        # A finite float is written as its repr; anything else goes
        # through the schema check and the encoder.
        if time_s.__class__ is float and time_s - time_s == 0.0:
            time_json = float.__repr__(time_s)
        else:
            require_number({"time_s": time_s}, "time_s", "sensor frame")
            time_json = _ENCODER.encode(time_s)
        return (
            '{"payload":{"time_s":'
            + time_json
            + ',"watts":'
            + self._watts
            + _SENSOR_SEQ
            + _scalar(seq)
            + self._tail
        )

    def _encode_reading(self, watts: Mapping[str, Any]) -> str:
        rails = dict(watts)
        _validate_rails(rails)
        return _ENCODER.encode(rails)


_SENSOR_SEQ = '},"schema_version":' + _scalar(WIRE_SCHEMA_VERSION) + ',"seq":'


# -- typed payload schemas ----------------------------------------------------
#
# Each validator checks the *required* fields of its frame type; extra
# payload fields pass through untouched (forward compatibility).


def _validate_heartbeat(payload: Dict[str, Any]) -> None:
    require_str(payload, "app", "heartbeat frame")
    require_int(payload, "hb_index", "heartbeat frame")
    require_number(payload, "time_s", "heartbeat frame")


def _validate_sensor(payload: Dict[str, Any]) -> None:
    require_number(payload, "time_s", "sensor frame")
    _validate_rails(require_dict(payload, "watts", "sensor frame"))


def _validate_rails(watts: Dict[str, Any]) -> None:
    for rail, value in watts.items():
        if value.__class__ is not float and (
            not isinstance(value, (int, float)) or isinstance(value, bool)
        ):
            raise ConfigurationError(
                f"sensor frame: rail {rail!r} must carry a number"
            )


def _validate_state_quad(payload: Dict[str, Any], context: str) -> None:
    state = require_list(payload, "state", context)
    if len(state) != 4 or any(
        not isinstance(v, int) or isinstance(v, bool) for v in state
    ):
        raise ConfigurationError(
            f"{context}: 'state' must be [c_big, c_little, f_big, f_little]"
        )


def _validate_plan(payload: Dict[str, Any]) -> None:
    require_str(payload, "app", "plan frame")
    require_number(payload, "time_s", "plan frame")
    _validate_state_quad(payload, "plan frame")


def _validate_actuate(payload: Dict[str, Any]) -> None:
    require_str(payload, "app", "actuate frame")
    require_number(payload, "time_s", "actuate frame")
    require_int(payload, "big_cores", "actuate frame")
    require_int(payload, "little_cores", "actuate frame")
    require_int(payload, "f_big_mhz", "actuate frame")
    require_int(payload, "f_little_mhz", "actuate frame")


def _validate_checkpoint_frame(payload: Dict[str, Any]) -> None:
    # A checkpoint *request* is empty; the *response* carries the store.
    # Both directions share the type, so only response fields are
    # checked — when present (same convention as the result frame).
    if "store" not in payload and "time_s" not in payload:
        return
    store = require_dict(payload, "store", "checkpoint frame")
    require_number(payload, "time_s", "checkpoint frame")
    for controller_id, envelope in store.items():
        if not isinstance(envelope, dict):
            raise ConfigurationError(
                f"checkpoint frame: snapshot {controller_id!r} is not a dict"
            )
        # The embedded envelopes are full controller checkpoints: the
        # PR-3 schema validates them, not a second wire-side schema.
        validate_checkpoint(envelope)


def _validate_swap(payload: Dict[str, Any]) -> None:
    require_str(payload, "policy", "swap frame")


def _validate_policy_swapped(payload: Dict[str, Any]) -> None:
    require_str(payload, "policy", "policy-swapped frame")
    require_number(payload, "time_s", "policy-swapped frame")
    require_list(payload, "controllers", "policy-swapped frame")


def _validate_attach(payload: Dict[str, Any]) -> None:
    require_str(payload, "version", "attach frame")
    shapes = require_list(payload, "shapes", "attach frame")
    if not shapes:
        raise ConfigurationError("attach frame: 'shapes' must be non-empty")
    for shape in shapes:
        if not isinstance(shape, dict):
            raise ConfigurationError("attach frame: each shape must be a dict")
        require_str(shape, "benchmark", "attach frame shape")
    require_dict(payload, "config", "attach frame")


def _validate_result(payload: Dict[str, Any]) -> None:
    # A result *request* may be empty; a result *response* carries the
    # serialized outcome.  Both directions share the type, so only the
    # response fields are checked — when present.
    if "metrics" in payload:
        require_dict(payload, "metrics", "result frame")
        require_dict(payload, "trace", "result frame")
        require_number(payload, "max_rate", "result frame")
        require_list(payload, "target", "result frame")


def _validate_error(payload: Dict[str, Any]) -> None:
    require_str(payload, "error", "error frame")
    code = payload.get("code")
    if code is not None and not isinstance(code, str):
        raise ConfigurationError("error frame: 'code' must be a string")


_PAYLOAD_VALIDATORS: Dict[str, Callable[[Dict[str, Any]], None]] = {
    "heartbeat": _validate_heartbeat,
    "sensor": _validate_sensor,
    "plan": _validate_plan,
    "actuate": _validate_actuate,
    "checkpoint": _validate_checkpoint_frame,
    "swap": _validate_swap,
    "policy-swapped": _validate_policy_swapped,
    "attach": _validate_attach,
    "result": _validate_result,
    "error": _validate_error,
}


# -- typed constructors -------------------------------------------------------


def make_frame(
    frame_type: str,
    session_id: str,
    seq: int,
    payload: Optional[Dict[str, Any]] = None,
) -> Frame:
    """Build and self-validate a frame (round-trips through encode)."""
    frame = Frame(
        type=frame_type, session_id=session_id, seq=seq, payload=payload or {}
    )
    validator = _PAYLOAD_VALIDATORS.get(frame_type)
    if validator is not None:
        validator(frame.payload)
    return frame


def heartbeat_frame(
    session_id: str, seq: int, app: str, hb_index: int, time_s: float,
    rate: Optional[float] = None, tag: str = "",
) -> Frame:
    payload: Dict[str, Any] = {
        "app": app, "hb_index": hb_index, "time_s": time_s,
    }
    if rate is not None:
        payload["rate"] = rate
    if tag:
        payload["tag"] = tag
    return make_frame("heartbeat", session_id, seq, payload)


def sensor_frame(
    session_id: str, seq: int, time_s: float, watts: Dict[str, float]
) -> Frame:
    return make_frame(
        "sensor", session_id, seq, {"time_s": time_s, "watts": dict(watts)}
    )


def plan_frame(
    session_id: str, seq: int, app: str, time_s: float, state: List[int]
) -> Frame:
    return make_frame(
        "plan", session_id, seq,
        {"app": app, "time_s": time_s, "state": list(state)},
    )


def actuate_frame(
    session_id: str, seq: int, app: str, time_s: float,
    big_cores: int, little_cores: int, f_big_mhz: int, f_little_mhz: int,
) -> Frame:
    return make_frame(
        "actuate", session_id, seq,
        {
            "app": app,
            "time_s": time_s,
            "big_cores": big_cores,
            "little_cores": little_cores,
            "f_big_mhz": f_big_mhz,
            "f_little_mhz": f_little_mhz,
        },
    )


def checkpoint_frame(
    session_id: str, seq: int, time_s: float, store: Dict[str, Dict[str, Any]]
) -> Frame:
    return make_frame(
        "checkpoint", session_id, seq, {"time_s": time_s, "store": store}
    )


def error_frame(
    session_id: str, seq: int, error: str, code: str = ""
) -> Frame:
    payload: Dict[str, Any] = {"error": error}
    if code:
        payload["code"] = code
    return make_frame("error", session_id, seq, payload)


# -- seq monotonicity + replay dedup ------------------------------------------

#: Responses a :class:`SeqWindow` keeps for replay.
SEQ_CACHE_LIMIT = 32


class SeqWindow:
    """Per-session seq validation and ``(seq → response)`` replay cache.

    The wire envelope already requires a non-negative integer ``seq``;
    this is the *stateful* half of that contract, one instance per live
    session.  It turns the client's monotonically increasing seq into
    exactly-once application over an at-least-once transport:

    * a **new** seq (greater than every seq seen so far) is admitted and
      marked in flight until its response is recorded;
    * a **duplicate** seq (response already cached) yields the cached
      response — a retried ``swap`` frame replays the first answer and
      is never applied a second time;
    * a **stale** seq (at or behind the window with no cached response —
      evicted, or never admitted) is refused with a typed verdict the
      server converts into an :data:`ERR_STALE_SEQ` error frame;
    * a **pending** seq (same frame delivered again while the first
      copy is still being applied) is refused retryably
      (:data:`ERR_IN_FLIGHT`) instead of racing a second application;
    * a cached seq re-sent with a *different* frame type is a
      :data:`SEQ_MISMATCH` — two writers collided on the same seq, and
      replaying the other request's response would be worse than
      refusing.

    The cache keeps the most recent :data:`SEQ_CACHE_LIMIT` responses (error
    responses included — refusals are deterministic, so replaying them
    is consistent) and is safe to call from concurrent transport
    threads.
    """

    def __init__(self):
        self.last_seq = 0
        self._pending: set = set()
        self._cache: "OrderedDict[int, Tuple[str, Tuple[Reply, ...]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def admit(
        self, seq: int, frame_type: str
    ) -> Tuple[str, Optional[List[Reply]]]:
        """Classify an incoming seq; returns ``(verdict, cached)``.

        ``cached`` is the replayable response for :data:`SEQ_DUPLICATE`
        and ``None`` otherwise.  A :data:`SEQ_NEW` admission updates the
        window immediately, so concurrent duplicates of the same frame
        observe it as pending.
        """
        with self._lock:
            entry = self._cache.get(seq)
            if entry is not None:
                cached_type, frames = entry
                if cached_type != frame_type:
                    return SEQ_MISMATCH, None
                return SEQ_DUPLICATE, list(frames)
            if seq in self._pending:
                return SEQ_PENDING, None
            if seq <= self.last_seq:
                return SEQ_STALE, None
            self._pending.add(seq)
            self.last_seq = seq
            return SEQ_NEW, None

    @property
    def has_pending(self) -> bool:
        """True while any admitted frame is still being applied.  An
        in-flight frame proves the client is live (blocked in an RPC,
        e.g. a long ``result`` wait), so lease reaping must not treat
        the quiet wire as abandonment."""
        with self._lock:
            return bool(self._pending)

    def record(self, seq: int, frame_type: str, frames: List[Reply]) -> None:
        """Cache the response of an admitted seq (clears in-flight)."""
        with self._lock:
            self._pending.discard(seq)
            self._cache[seq] = (frame_type, tuple(frames))
            while len(self._cache) > SEQ_CACHE_LIMIT:
                self._cache.popitem(last=False)


# -- run shape / config serialization ----------------------------------------
#
# Only the fields a control plane can faithfully reconstruct cross the
# wire.  Complex sub-configs (fault schedules, guardrails, fleet) stay
# process-local for now: attaching with one set is refused loudly
# instead of silently dropped.


def shape_to_wire(shape: Any) -> Dict[str, Any]:
    """A :class:`~repro.experiments.runner.RunShape` as a payload dict."""
    return asdict(shape)


def shapes_to_wire(shapes: Any) -> List[Dict[str, Any]]:
    """A run's shapes as an attach frame's ``shapes`` list: a lone
    :class:`~repro.experiments.runner.RunShape` (a single-app run)
    travels as a one-element list."""
    if isinstance(shapes, list):
        return [shape_to_wire(shape) for shape in shapes]
    return [shape_to_wire(shapes)]


def shapes_from_wire(items: List[Dict[str, Any]]) -> Any:
    """Inverse of :func:`shapes_to_wire`: a one-element list is a
    single-app run, so it decodes to its lone shape."""
    shapes = [shape_from_wire(item) for item in items]
    return shapes[0] if len(shapes) == 1 else shapes


def shape_from_wire(data: Dict[str, Any]) -> Any:
    """Inverse of :func:`shape_to_wire` (unknown fields ignored)."""
    from repro.experiments.runner import RunShape

    require_str(data, "benchmark", "wire shape")
    kwargs: Dict[str, Any] = {"benchmark": data["benchmark"]}
    for key, caster in (
        ("n_units", int),
        ("n_threads", int),
        ("target_fraction", float),
        ("tolerance", float),
        ("seed", int),
        ("tick_s", float),
        ("adapt_every", int),
    ):
        if data.get(key) is not None:
            try:
                kwargs[key] = caster(data[key])
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"wire shape: bad {key!r}: {exc}"
                ) from None
    return RunShape(**kwargs)


def config_to_wire(config: Any) -> Dict[str, Any]:
    """A :class:`~repro.experiments.runner.RunConfig` as a payload dict.

    Raises :class:`~repro.errors.ConfigurationError` for configurations
    the wire cannot carry yet (custom specs, fault/guardrail/fleet
    layers) — refusing is safer than attaching a silently different run.
    """
    unsupported = [
        name
        for name in ("spec", "faults", "guardrails", "fleet")
        if getattr(config, name) is not None
    ]
    if unsupported:
        raise ConfigurationError(
            "acp attach cannot serialize config fields: "
            + ", ".join(sorted(unsupported))
        )
    supervision = config.supervision
    if supervision is not None and not isinstance(supervision, bool):
        raise ConfigurationError(
            "acp attach supports supervision=True/False only "
            "(a custom SupervisorConfig is not wire-serializable yet)"
        )
    telemetry = config.telemetry
    return {
        "supervision": bool(supervision) if supervision is not None else None,
        "checkpoint": config.checkpoint,
        "telemetry": bool(telemetry) if telemetry is not None else None,
    }


def config_from_wire(data: Dict[str, Any]) -> Any:
    """Inverse of :func:`config_to_wire` (unknown fields ignored).

    Payloads from older clients also carry two speed-only run switches
    that no longer exist; they fall under the unknown-field rule, so
    those payloads still attach.
    """
    from repro.experiments.runner import RunConfig

    kwargs: Dict[str, Any] = {}
    if data.get("supervision") is not None:
        kwargs["supervision"] = bool(data["supervision"])
    if data.get("checkpoint") is not None:
        try:
            kwargs["checkpoint"] = float(data["checkpoint"])
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"wire config: bad 'checkpoint': {exc}"
            ) from None
    if data.get("telemetry") is not None:
        kwargs["telemetry"] = bool(data["telemetry"])
    return RunConfig(**kwargs)
