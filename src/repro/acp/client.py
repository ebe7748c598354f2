"""The stable ACP client SDK: :class:`AcpClient` / :class:`SessionHandle`.

This module is the *supported* way to talk to an Adaptation Control
Plane.  The raw socket protocol underneath (one JSONL request frame per
connection, responses until the first non-event frame) is an internal
detail that may change between minor versions; these two classes are
covered by the repo's API-stability promise instead.

Endpoints:

* ``"loopback"``       — an in-process :class:`~repro.acp.server.AcpServer`
  (created privately, or passed in), stepped inline and deterministically;
* ``"unix:///path"``   — the daemon's Unix-socket JSONL transport;
* ``"http://host:p"``  — the daemon's HTTP transport (``POST /v1/frames``).

The headline guarantee: ``AcpClient.attach(...).result()`` over *any*
transport returns a :class:`~repro.experiments.runner.RunOutcome` whose
per-app summaries and trace rows are bit-identical to
``repro.experiments.run()`` in-process — the boundary serializes
observations and commands, never the physics.

Failure semantics (the PR-10 resilience layer): every RPC is an
idempotent delivery attempt.  The client assigns each request one seq —
its idempotency key — and on a transient failure (socket error, torn
connection, a retryable typed error frame) re-sends the *same* frame
with a bounded exponential backoff, stamping an ``attempt`` marker in
the envelope.  The server's per-session
:class:`~repro.acp.wire.SeqWindow` turns that at-least-once delivery
into at-most-once application: a duplicate is answered from the replay
cache, never applied twice.  Reconnection is implicit — the transports
open one connection per request, so a restarted daemon is just the next
attempt succeeding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.acp import wire


class AcpError(ConfigurationError):
    """An error frame from the control plane, raised client-side.

    ``code`` carries the frame's machine-readable error code (empty for
    untyped errors).  Subclasses
    :class:`~repro.errors.ConfigurationError` so existing
    ``except ConfigurationError`` call sites keep working.
    """

    def __init__(self, message: str, code: str = ""):
        super().__init__(message)
        self.code = code


class AcpTransportError(AcpError):
    """The request never produced a response: connection refused, socket
    timeout, a torn write, or an injected chaos fault.  Always safe to
    retry — the seq window deduplicates any half-delivered copy."""

    def __init__(self, message: str):
        super().__init__(message, code="transport")


#: Exceptions the retry layer treats as transient delivery failures.
_TRANSIENT_EXCEPTIONS = (AcpTransportError, OSError, EOFError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for one RPC.

    ``max_attempts`` counts total deliveries (1 = the old single-shot
    behavior).  The delay before attempt *n+1* is
    ``backoff_s * multiplier**(n-1)`` capped at ``max_backoff_s`` —
    with the defaults: 50 ms, 100 ms, 200 ms, ...
    """

    max_attempts: int = 5
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("retry max_attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigurationError("retry backoff must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError("retry multiplier must be >= 1")

    def delay_s(self, completed_attempts: int) -> float:
        """Sleep before the next attempt, after ``completed_attempts``."""
        raw = self.backoff_s * self.multiplier ** max(
            0, completed_attempts - 1
        )
        return min(raw, self.max_backoff_s)


#: The single-shot policy loopback clients default to: no re-delivery,
#: so a deterministic inline exchange stays exactly one exchange.
SINGLE_ATTEMPT = RetryPolicy(max_attempts=1)


def _parse_endpoint(endpoint: str):
    if endpoint == "loopback":
        return ("loopback", None)
    if endpoint.startswith("unix://"):
        path = endpoint[len("unix://") :]
        if not path:
            raise ConfigurationError("unix:// endpoint needs a socket path")
        return ("unix", path)
    if endpoint.startswith("http://") or endpoint.startswith("https://"):
        return ("http", endpoint.rstrip("/"))
    raise ConfigurationError(
        f"unsupported ACP endpoint {endpoint!r} "
        "(use 'loopback', 'unix:///path', or 'http://host:port')"
    )


class LoopbackTransport:
    """Inline exchange against an in-process :class:`AcpServer`."""

    def __init__(self, server: Any):
        self.server = server

    def exchange(self, line: str, timeout_s: float) -> List[str]:
        return self.server.handle_line(line)

    def send_torn(self, prefix: str, timeout_s: float) -> None:
        # A torn loopback "write" is just an unparseable line; the
        # server counts it and the response is discarded unread.
        self.server.handle_line(prefix)


class UnixTransport:
    """One connection per request over the daemon's Unix socket."""

    def __init__(self, path: str):
        self.path = path

    def exchange(self, line: str, timeout_s: float) -> List[str]:
        import socket

        lines: List[str] = []
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout_s)
            sock.connect(self.path)
            sock.sendall((line + "\n").encode("utf-8"))
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as stream:
                for raw in stream:
                    response = raw.decode("utf-8", errors="replace").strip()
                    if not response:
                        continue
                    lines.append(response)
                    # Stop at the terminating non-event frame without
                    # decoding here (the caller validates).
                    if '"type":"' in response and not any(
                        f'"type":"{t}"' in response for t in wire.EVENT_TYPES
                    ):
                        break
        return lines

    def send_torn(self, prefix: str, timeout_s: float) -> None:
        """A client dying mid-write: partial bytes, no newline, gone."""
        import socket

        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout_s)
            sock.connect(self.path)
            sock.sendall(prefix.encode("utf-8"))
            # Closing without the newline leaves a torn trailing line.


class HttpTransport:
    """``POST /v1/frames`` per request against the daemon's HTTP port."""

    def __init__(self, base: str):
        self.base = base

    def exchange(self, line: str, timeout_s: float) -> List[str]:
        import urllib.request

        request = urllib.request.Request(
            self.base + "/v1/frames",
            data=(line + "\n").encode("utf-8"),
            headers={"Content-Type": "application/jsonl"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout_s) as resp:
            body = resp.read().decode("utf-8")
        return [l for l in body.splitlines() if l.strip()]

    def send_torn(self, prefix: str, timeout_s: float) -> None:
        # HTTP has its own framing, so a "torn" line arrives complete
        # but unparseable; deliver it and discard the error response.
        try:
            self.exchange(prefix, timeout_s)
        except OSError:
            pass


class AcpClient:
    """A connection-per-request client for one ACP endpoint.

    ``retry`` defaults to a bounded :class:`RetryPolicy` on the real
    transports (unix/http) and to :data:`SINGLE_ATTEMPT` on loopback —
    pass one explicitly to override either.  ``faults`` wraps the
    transport in a seeded
    :class:`~repro.acp.chaos.FaultyTransport` (chaos testing); a
    fault-injecting loopback client defaults to the bounded policy too,
    since injected faults need re-delivery to terminate.
    """

    def __init__(
        self,
        endpoint: str = "loopback",
        server: Optional[Any] = None,
        timeout_s: float = 120.0,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[Any] = None,
    ):
        self._kind, self._target = _parse_endpoint(endpoint)
        self.endpoint = endpoint
        self.timeout_s = timeout_s
        self._seq = 0
        #: Client-side resilience counters: retries, rpcs.
        self.stats: Dict[str, int] = {"rpcs": 0, "retries": 0}
        if self._kind == "loopback":
            if server is None:
                from repro.acp.server import AcpServer

                server = AcpServer(threaded=False)
            self._server = server
            transport: Any = LoopbackTransport(server)
        elif server is not None:
            raise ConfigurationError(
                "server= is only meaningful with the loopback endpoint"
            )
        else:
            self._server = None
            transport = (
                UnixTransport(self._target)
                if self._kind == "unix"
                else HttpTransport(self._target)
            )
        if faults is not None:
            from repro.acp.chaos import FaultyTransport

            transport = FaultyTransport(transport, faults)
        self._transport = transport
        if retry is None:
            retry = (
                SINGLE_ATTEMPT
                if self._kind == "loopback" and faults is None
                else RetryPolicy()
            )
        self.retry = retry

    # -- transport -------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _rpc(
        self,
        frame_type: str,
        session_id: str = "",
        payload: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = None,
    ) -> List[wire.Frame]:
        """One request/response exchange, retried under the client's
        :class:`RetryPolicy`.

        The frame's seq is assigned once and reused across attempts —
        it is the idempotency key the server's replay cache dedups on.
        ``deadline`` (a ``time.monotonic()`` instant) bounds the *total*
        wall clock across all attempts, not each attempt separately.
        """
        seq = self._next_seq()
        base = wire.make_frame(frame_type, session_id, seq, payload)
        policy = self.retry
        self.stats["rpcs"] += 1
        last_failure: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self.stats["retries"] += 1
                delay = policy.delay_s(attempt - 1)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - time.monotonic()))
                if delay > 0:
                    time.sleep(delay)
            budget = self.timeout_s
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise AcpError(
                        f"{frame_type}: deadline exhausted after "
                        f"{attempt - 1} attempts ({last_failure})",
                        code="deadline",
                    )
                budget = remaining
            frame = base if attempt == 1 else wire.Frame(
                type=base.type,
                session_id=base.session_id,
                seq=base.seq,
                payload=base.payload,
                extra={"attempt": attempt},
            )
            try:
                lines = self._transport.exchange(
                    wire.encode_frame(frame), timeout_s=budget
                )
                frames = [wire.decode_frame(l) for l in lines]
            except _TRANSIENT_EXCEPTIONS as exc:
                last_failure = exc
                continue
            except ConfigurationError as exc:
                # An undecodable *response* is a delivery failure too.
                last_failure = exc
                continue
            if not frames:
                last_failure = AcpError(
                    f"{frame_type}: empty response from {self.endpoint}"
                )
                continue
            terminal = frames[-1]
            if terminal.type == "error":
                code = terminal.payload.get("code", "")
                if (
                    code in wire.RETRYABLE_ERROR_CODES
                    and attempt < policy.max_attempts
                ):
                    last_failure = AcpError(
                        terminal.payload["error"], code=code
                    )
                    continue
                raise AcpError(terminal.payload["error"], code=code)
            return frames
        raise AcpError(
            f"{frame_type}: {policy.max_attempts} attempt(s) failed "
            f"against {self.endpoint}: {last_failure}",
            code="transport",
        )

    # -- public surface --------------------------------------------------------

    def hello(self) -> Dict[str, Any]:
        """Server identity: name, version, wire schema, session count."""
        return self._rpc("hello")[-1].payload

    def attach(
        self,
        version: str,
        shapes: Union[Any, Sequence[Any]],
        config: Optional[Any] = None,
        stream_events: bool = False,
        session_id: Optional[str] = None,
        resume: Union[bool, str, None] = None,
        lease_ttl_s: Optional[float] = None,
    ) -> "SessionHandle":
        """Attach a managed system; returns its :class:`SessionHandle`.

        ``shapes`` follows :func:`~repro.experiments.run`'s arity rule
        (:func:`~repro.experiments.runner.check_shapes`): one
        :class:`~repro.experiments.runner.RunShape` is a single-app run,
        a sequence of two or more is a co-run, and anything else — a
        one-element list included — raises
        :class:`~repro.errors.ConfigurationError` before a frame is sent.

        ``resume`` warm-restores the controllers from a server-side
        recovered checkpoint store: ``True`` uses ``session_id``'s
        store, a string names another session's.  ``lease_ttl_s``
        requests a session lease (expiry with no client frame orphans
        the session server-side).

        Under retry, pass an explicit ``session_id``: it makes a
        re-delivered attach idempotent (the server replays the original
        response); an auto-assigned id cannot be deduplicated and a
        retried attach may create a second session.
        """
        from repro.experiments.runner import RunConfig, check_shapes

        payload: Dict[str, Any] = {
            "version": version,
            "shapes": wire.shapes_to_wire(check_shapes(shapes)),
            "config": wire.config_to_wire(config or RunConfig()),
        }
        if stream_events:
            payload["stream_events"] = True
        if session_id is not None:
            payload["session_id"] = session_id
        if resume is not None:
            payload["resume"] = resume
        if lease_ttl_s is not None:
            payload["lease_ttl_s"] = lease_ttl_s
        status = self._rpc("attach", "", payload)[-1].payload
        return SessionHandle(self, status["session_id"], status)

    def sessions(self) -> Dict[str, Any]:
        """Registry snapshot: live sessions, orphaned sessions,
        recovered stores, ledger."""
        return self._rpc("sessions")[-1].payload

    def metrics_text(self) -> str:
        """The daemon's live Prometheus exposition text."""
        return self._rpc("metrics")[-1].payload["text"]

    def session(self, session_id: str) -> "SessionHandle":
        """A handle for an already-attached session (e.g. after a
        client restart — the daemon keeps the session alive).

        Adopts the session's ``last_seq`` from the registry so this
        client's next frames land ahead of the seq window a previous
        client advanced.
        """
        status: Dict[str, Any] = {"session_id": session_id}
        try:
            for listed in self.sessions().get("sessions", []):
                if listed.get("session_id") == session_id:
                    status = listed
                    break
        except AcpError:
            pass  # an unreachable registry still yields a usable handle
        last_seq = status.get("last_seq")
        if isinstance(last_seq, int) and last_seq > self._seq:
            self._seq = last_seq
        return SessionHandle(self, session_id, status)


class SessionHandle:
    """Typed control surface for one attached session."""

    def __init__(
        self, client: AcpClient, session_id: str, status: Dict[str, Any]
    ):
        self._client = client
        self.session_id = session_id
        self.last_status = status

    def _rpc(
        self,
        frame_type: str,
        payload: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = None,
    ) -> List[wire.Frame]:
        return self._client._rpc(
            frame_type, self.session_id, payload, deadline=deadline
        )

    def status(self) -> Dict[str, Any]:
        """Current session state from the registry."""
        listing = self._client.sessions()["sessions"]
        for status in listing:
            if status["session_id"] == self.session_id:
                self.last_status = status
                return status
        raise AcpError(f"session {self.session_id} is no longer attached")

    def run(self) -> Dict[str, Any]:
        """Start (daemon) or perform (loopback) the run to completion."""
        status = self._rpc("run", {})[-1].payload
        self.last_status = status
        return status

    def advance(self, seconds: float) -> Dict[str, Any]:
        """Step the session by ``seconds`` of simulated time, inline."""
        status = self._rpc("run", {"seconds": seconds})[-1].payload
        self.last_status = status
        return status

    def swap_policy(
        self, policy: str, adapt_every: Optional[int] = None
    ) -> Dict[str, Any]:
        """Hot-swap the scheduling policy; effective within one
        adaptation period, recorded on the bus as ``PolicySwapped``.
        Safe under retry: a re-delivered swap replays the first
        response instead of swapping twice."""
        payload: Dict[str, Any] = {"policy": policy}
        if adapt_every is not None:
            payload["adapt_every"] = adapt_every
        return self._rpc("swap", payload)[-1].payload

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot every checkpoint-capable controller right now;
        returns ``{"time_s", "store": {controller_id: envelope}}``."""
        return self._rpc("checkpoint", {})[-1].payload

    def events(self, since_seq: int = 0) -> List[wire.Frame]:
        """Event frames emitted after ``since_seq`` (plan/actuate always;
        heartbeat/sensor when attached with ``stream_events=True``).
        This is also the resume seam: after a reconnect, ask for
        everything past the last seq you saw."""
        frames = self._rpc("events", {"since_seq": since_seq})
        return [f for f in frames if f.is_event]

    def result(self, timeout_s: Optional[float] = None):
        """Block until the run finishes; returns its
        :class:`~repro.experiments.runner.RunOutcome`.

        ``timeout_s`` is a *wall-clock deadline for the whole call*,
        honored across retries and reconnects — not a per-attempt
        budget that a flaky transport could multiply.
        """
        payload: Dict[str, Any] = {}
        deadline = None
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
            deadline = time.monotonic() + timeout_s
        frame = self._rpc("result", payload, deadline=deadline)[-1]
        return _outcome_from_result(frame.payload)

    def detach(self) -> Dict[str, Any]:
        """Release the session (stops its driver thread, persists its
        checkpoints)."""
        return self._rpc("detach", {})[-1].payload


def _outcome_from_result(payload: Dict[str, Any]):
    """A ``result`` frame payload → :class:`RunOutcome` (bit-identical:
    JSON round-trips floats through ``repr``, losslessly)."""
    from repro.experiments.runner import RunOutcome
    from repro.experiments.serialize import run_metrics_from_dict
    from repro.heartbeats.targets import PerformanceTarget
    from repro.sim.tracing import TracePoint, TraceRecorder

    trace = TraceRecorder()
    for app_name, rows in payload["trace"].items():
        for row in rows:
            trace.record(app_name, TracePoint(*row))
    target = payload["target"]
    return RunOutcome(
        metrics=run_metrics_from_dict(payload["metrics"]),
        trace=trace,
        target=PerformanceTarget(target[0], target[1], target[2]),
        max_rate=payload["max_rate"],
    )

