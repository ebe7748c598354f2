"""The Adaptation Control Plane: session registry + frame dispatch.

:class:`AcpServer` is the transport-agnostic core of the daemon.  It
speaks exactly one language — :mod:`repro.acp.wire` frames in, frames
out — so every transport (the in-process loopback, the Unix socket, the
HTTP endpoint in :mod:`repro.acp.transport`) is a thin shell around
:meth:`AcpServer.handle_line`.

Responsibilities:

* **Session registry** — attach/detach of managed systems, each an
  :class:`~repro.acp.session.AcpSession` with a server-assigned id.
* **Crash quarantine** — an exception out of one session marks *that
  session* quarantined and answers the request with an ``error`` frame;
  the daemon and its other tenants keep running.
* **Checkpoint persistence** — with a ``state_dir``, every session's
  :class:`~repro.supervision.CheckpointStore` is dumped atomically to
  ``<state_dir>/<session_id>.json``; on construction the server scans
  the directory with :meth:`CheckpointStore.recover`, so a restarted
  daemon offers the surviving snapshots for warm re-attachment (and
  surfaces a ledger entry for every torn file it had to cold-start
  past).
* **Execution modes** — ``threaded=False`` (the loopback default) runs
  sessions inline on the caller's thread, deterministically;
  ``threaded=True`` (the daemon default) drives ``run`` requests on a
  background thread per session so control frames keep flowing while a
  tenant executes.
* **Observability** — :meth:`metrics_text` renders live Prometheus
  text: control-plane counters plus every tenant's telemetry snapshot,
  stamped with a ``session`` label.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.supervision import CheckpointStore
from repro.acp import wire
from repro.acp.session import (
    DEFAULT_QUANTUM_S,
    FINISHED,
    ORPHANED,
    QUARANTINED,
    RUNNING,
    AcpSession,
    resolve_policy,
)

#: Simulated seconds a background driver advances between stop-flag
#: checks: coarse enough to amortize the loop, fine enough that detach
#: and shutdown respond within a fraction of a second of wall time.
_DRIVE_CHUNK_QUANTA = 10

#: Wall-clock seconds a control command (swap/checkpoint) may wait for a
#: busy session's next segment boundary before the server gives up.
_COMMAND_TIMEOUT_S = 30.0

#: Default wall-clock seconds a ``result`` request waits for a threaded
#: session to finish.
_RESULT_TIMEOUT_S = 600.0

#: Wall-clock seconds between lease sweeps of the background reaper a
#: threaded server starts once its first leased session attaches.
_REAPER_INTERVAL_S = 0.25


def _events_after(
    events: List[Tuple[int, str]], since: int
) -> List[Tuple[int, str]]:
    """The ``(seq, line)`` events of ``events`` whose seq exceeds ``since``.

    Event seqs only grow, so a binary search finds the first later frame
    and the batch costs what it returns, not the session's history.  A
    driver thread may append meanwhile: ``len`` is read once and
    ``list.append`` is atomic, so the search runs over a stable prefix,
    and frames appended after it all belong in the batch.
    (Hand-written: ``bisect``'s ``key=`` needs Python 3.10.)
    """
    lo, hi = 0, len(events)
    while lo < hi:
        mid = (lo + hi) // 2
        if events[mid][0] > since:
            hi = mid
        else:
            lo = mid + 1
    return events[lo:]


class _Refusal(ConfigurationError):
    """A refusal that carries a machine-readable wire error code."""

    def __init__(self, message: str, code: str = ""):
        super().__init__(message)
        self.code = code


class _Lease:
    """One session's liveness contract: refreshed when any client frame
    arrives and when its reply is sent, expired when the TTL elapses
    with neither."""

    __slots__ = ("ttl_s", "deadline")

    def __init__(self, ttl_s: float, now: float):
        self.ttl_s = ttl_s
        self.deadline = now + ttl_s

    def touch(self, now: float) -> None:
        self.deadline = now + self.ttl_s

    def expired(self, now: float) -> bool:
        return now >= self.deadline


class AcpServer:
    """Frame-in/frame-out control plane; see the module docstring."""

    def __init__(
        self,
        state_dir: Optional[str] = None,
        quantum_s: float = DEFAULT_QUANTUM_S,
        threaded: bool = False,
        lease_ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if lease_ttl_s is not None and lease_ttl_s <= 0:
            raise ConfigurationError("lease_ttl_s must be positive (or None)")
        self.state_dir = state_dir
        self.quantum_s = quantum_s
        self.threaded = threaded
        #: Default lease TTL granted at attach (None = sessions never
        #: expire; an attach payload can still request one).
        self.lease_ttl_s = lease_ttl_s
        #: Injectable monotonic clock so lease tests control time.
        self.clock = clock
        self._sessions: Dict[str, AcpSession] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._stop_flags: Dict[str, threading.Event] = {}
        self._finished: Dict[str, threading.Event] = {}
        #: Per-session seq windows (kept after detach/orphan so retried
        #: frames still replay their cached responses).
        self._windows: Dict[str, wire.SeqWindow] = {}
        self._leases: Dict[str, _Lease] = {}
        #: Final status of lease-expired sessions, by id.
        self._orphaned: Dict[str, Dict[str, Any]] = {}
        #: Canonical attach payload per session id: a retried attach
        #: (same id, same payload) replays the original response
        #: instead of refusing with "already attached".
        self._attach_fingerprints: Dict[str, str] = {}
        self._attach_responses: Dict[str, List[wire.Frame]] = {}
        self._reaper: Optional[threading.Thread] = None
        self._reaper_stop = threading.Event()
        self._lock = threading.RLock()
        self._counter = 0
        self._seq = 0
        self.frames_in = 0
        self.frames_out = 0
        #: Resilience counters, surfaced on ``/metrics``.
        self.retries_seen = 0
        self.dedup_hits = 0
        self.lease_expirations = 0
        self.frames_corrupt = 0
        #: Checkpoint stores recovered from ``state_dir`` at startup,
        #: keyed by the session id they were dumped under.
        self.recovered: Dict[str, CheckpointStore] = {}
        #: Cold-start fallback entries from :meth:`CheckpointStore.recover`.
        self.ledger: List[Dict[str, Any]] = []
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            for name in sorted(os.listdir(state_dir)):
                if not name.endswith(".json"):
                    continue
                store = CheckpointStore.recover(os.path.join(state_dir, name))
                self.recovered[name[: -len(".json")]] = store
                self.ledger.extend(store.ledger)

    # -- transport surface ----------------------------------------------------

    def handle_line(self, line: str) -> List[str]:
        """One request line → encoded response lines (error frames on
        malformed input; the transport never sees an exception)."""
        try:
            frame = wire.decode_frame(line)
        except ConfigurationError as exc:
            self.note_corrupt_frame()
            return [
                wire.encode_frame(
                    self._error("", str(exc), code=wire.ERR_BAD_FRAME)
                )
            ]
        return [
            reply if reply.__class__ is str else wire.encode_frame(reply)
            for reply in self.handle_frame(frame)
        ]

    def handle_frame(self, frame: wire.Frame) -> List[wire.Reply]:
        """Dispatch one request frame; always returns at least one
        non-event frame (the response terminator).  An ``events``
        response carries its events as the lines they were encoded to
        when emitted.

        At-least-once delivery discipline: frames addressed to a session
        pass its :class:`~repro.acp.wire.SeqWindow` first — a duplicate
        seq replays the cached response (never a second application), a
        stale or colliding seq gets a typed error, and an in-flight seq
        is refused retryably.  Responses (error responses included) are
        recorded so the next re-delivery is a pure replay.
        """
        self.frames_in += 1
        attempt = frame.extra.get("attempt")
        if (
            isinstance(attempt, int)
            and not isinstance(attempt, bool)
            and attempt > 1
        ):
            with self._lock:
                self.retries_seen += 1
        self.reap_expired()
        window = self._windows.get(frame.session_id) if frame.session_id else None
        if window is not None:
            verdict, cached = window.admit(frame.seq, frame.type)
            if verdict == wire.SEQ_DUPLICATE:
                with self._lock:
                    self.dedup_hits += 1
                self.frames_out += len(cached)
                return cached
            if verdict != wire.SEQ_NEW:
                error = self._seq_refusal(frame, verdict)
                self.frames_out += 1
                return [error]
        self._touch_lease(frame.session_id)
        try:
            frames = self._dispatch(frame)
        except ConfigurationError as exc:
            frames = [
                self._error(
                    frame.session_id, str(exc), code=getattr(exc, "code", "")
                )
            ]
        except Exception as exc:  # fuzz containment: never an unhandled
            frames = [  # exception out of the dispatch layer
                self._error(
                    frame.session_id,
                    f"internal error: {type(exc).__name__}: {exc}",
                    code=wire.ERR_INTERNAL,
                )
            ]
        # A long dispatch (a blocking `result` wait) can outlast most of
        # the TTL; re-arm on reply so the client gets a full TTL to send
        # its next frame.
        self._touch_lease(frame.session_id)
        if window is not None:
            window.record(frame.seq, frame.type, frames)
        self.frames_out += len(frames)
        return frames

    def _seq_refusal(self, frame: wire.Frame, verdict: str) -> wire.Frame:
        sid = frame.session_id
        if verdict == wire.SEQ_PENDING:
            return self._error(
                sid,
                f"seq {frame.seq} is still being applied; retry for the "
                "cached response",
                code=wire.ERR_IN_FLIGHT,
            )
        if verdict == wire.SEQ_MISMATCH:
            return self._error(
                sid,
                f"seq {frame.seq} was already used by a different "
                f"request type (got {frame.type!r})",
                code=wire.ERR_STALE_SEQ,
            )
        return self._error(
            sid,
            f"stale seq {frame.seq} on session {sid} (window is past it "
            "and no cached response remains)",
            code=wire.ERR_STALE_SEQ,
        )

    def note_corrupt_frame(self) -> None:
        """Count a line that never parsed into a frame (corruption or a
        torn write) — transports call this on their own decode failures
        too, so ``acp_frames_corrupt_total`` covers every carrier."""
        with self._lock:
            self.frames_corrupt += 1

    def error_line(
        self, session_id: str, message: str, code: str = ""
    ) -> str:
        """An encoded error frame, for transports answering failures
        they detected themselves (torn lines, undecodable bytes)."""
        return wire.encode_frame(self._error(session_id, message, code=code))

    def _dispatch(self, frame: wire.Frame) -> List[wire.Frame]:
        handler = _HANDLERS.get(frame.type)
        if handler is None:
            raise ConfigurationError(
                f"unknown request frame type {frame.type!r}"
            )
        return handler(self, frame)

    # -- request handlers ------------------------------------------------------

    def _handle_hello(self, frame: wire.Frame) -> List[wire.Frame]:
        from repro import __version__

        with self._lock:
            count = len(self._sessions)
        return [
            self._respond(
                "welcome",
                frame.session_id,
                {
                    "server": "hars-repro-acp",
                    "version": __version__,
                    "schema_version": wire.WIRE_SCHEMA_VERSION,
                    "sessions": count,
                },
            )
        ]

    def _handle_attach(self, frame: wire.Frame) -> List[wire.Frame]:
        payload = frame.payload
        version = payload["version"]
        shapes = wire.shapes_from_wire(payload["shapes"])
        config = wire.config_from_wire(payload["config"])
        stream_events = bool(payload.get("stream_events", False))
        ttl = payload.get("lease_ttl_s", self.lease_ttl_s)
        if ttl is not None and (
            not isinstance(ttl, (int, float))
            or isinstance(ttl, bool)
            or ttl <= 0
        ):
            raise ConfigurationError(
                "attach: 'lease_ttl_s' must be a positive number"
            )
        fingerprint = json.dumps(payload, sort_keys=True, default=repr)
        with self._lock:
            self._counter += 1
            session_id = payload.get("session_id") or f"s{self._counter:04d}"
            if not isinstance(session_id, str):
                raise ConfigurationError("attach: 'session_id' must be a string")
            if session_id in self._sessions:
                # A retried attach (the first response was lost in
                # delivery) replays the original answer instead of
                # refusing — idempotency for explicitly named sessions.
                if self._attach_fingerprints.get(session_id) == fingerprint:
                    self.dedup_hits += 1
                    return list(self._attach_responses[session_id])
                raise ConfigurationError(
                    f"session id {session_id!r} is already attached"
                )
            resume_store = self._resume_store_for(payload, session_id)
            try:
                session = AcpSession(
                    session_id,
                    version,
                    shapes,
                    config,
                    stream_events=stream_events,
                    resume_store=resume_store,
                    quantum_s=self.quantum_s,
                )
            except ConfigurationError:
                raise
            except Exception as exc:  # a broken attach must not kill the daemon
                raise ConfigurationError(
                    f"attach failed: {type(exc).__name__}: {exc}"
                ) from None
            self._sessions[session_id] = session
            self._windows[session_id] = wire.SeqWindow()
            self._orphaned.pop(session_id, None)
            if ttl is not None:
                self._leases[session_id] = _Lease(float(ttl), self.clock())
                self._ensure_reaper()
        status = dict(session.status())
        if ttl is not None:
            status["lease_ttl_s"] = float(ttl)
        if resume_store is not None:
            status["resumed_from"] = sorted(resume_store.controller_ids)
            status["resume_ledger"] = list(resume_store.ledger)
        response = [self._respond("attached", session_id, status)]
        with self._lock:
            self._attach_fingerprints[session_id] = fingerprint
            self._attach_responses[session_id] = list(response)
        return response

    def _resume_store_for(
        self, payload: Dict[str, Any], session_id: str
    ) -> Optional[CheckpointStore]:
        resume = payload.get("resume")
        if resume is None or resume is False:
            return None
        key = session_id if resume is True else resume
        if not isinstance(key, str):
            raise ConfigurationError(
                "attach: 'resume' must be true or a session id"
            )
        store = self.recovered.get(key)
        if store is None and self.state_dir is not None:
            store = CheckpointStore.recover(
                os.path.join(self.state_dir, f"{key}.json")
            )
            self.recovered[key] = store
            self.ledger.extend(store.ledger)
        if store is None:
            raise ConfigurationError(
                f"attach: no recovered checkpoint store for {key!r} "
                "(server has no state_dir)"
            )
        return store

    def _handle_run(self, frame: wire.Frame) -> List[wire.Frame]:
        session = self._session(frame.session_id)
        seconds = frame.payload.get("seconds")
        if seconds is not None and (
            not isinstance(seconds, (int, float)) or isinstance(seconds, bool)
        ):
            raise ConfigurationError("run: 'seconds' must be a number")
        if self.threaded and seconds is None:
            self._start_driver(session)
            return [
                self._respond("advanced", session.session_id, session.status())
            ]
        if self._thread_alive(session.session_id):
            raise ConfigurationError(
                f"session {session.session_id} is already running"
            )
        status = self._guarded(session, lambda: session.advance(seconds))
        self._persist(session)
        return [self._respond("advanced", session.session_id, status)]

    def _handle_swap(self, frame: wire.Frame) -> List[wire.Frame]:
        session = self._session(frame.session_id)
        policy = frame.payload["policy"]
        resolve_policy(policy)  # reject a bad name before it reaches the queue
        adapt_every = frame.payload.get("adapt_every")
        result = self._call_on_session(
            session, lambda: session.swap_policy(policy, adapt_every)
        )
        return [self._respond("swap-ack", session.session_id, result)]

    def _handle_checkpoint(self, frame: wire.Frame) -> List[wire.Frame]:
        session = self._session(frame.session_id)
        result = self._call_on_session(session, session.checkpoint_now)
        self._persist(session)
        return [
            wire.checkpoint_frame(
                session.session_id,
                self._next_seq(),
                result["time_s"],
                result["store"],
            )
        ]

    def _handle_result(self, frame: wire.Frame) -> List[wire.Frame]:
        session = self._session(frame.session_id)
        timeout = frame.payload.get("timeout_s")
        if timeout is None:
            timeout = _RESULT_TIMEOUT_S
        if self._thread_alive(session.session_id):
            finished = self._finished[session.session_id]
            if not finished.wait(float(timeout)):
                raise ConfigurationError(
                    f"session {session.session_id} did not finish within "
                    f"{timeout}s"
                )
        elif session.state not in (FINISHED, QUARANTINED):
            # Inline mode: a result request drives the run to completion,
            # exactly like the in-process runner would.
            self._guarded(session, lambda: session.advance(None))
            self._persist(session)
        if session.state == QUARANTINED:
            raise ConfigurationError(
                f"session {session.session_id} is quarantined: {session.error}"
            )
        payload = session.result_payload()
        return [
            wire.make_frame(
                "result", session.session_id, self._next_seq(), payload
            )
        ]

    def _handle_events(self, frame: wire.Frame) -> List[wire.Reply]:
        session = self._session(frame.session_id)
        since = frame.payload.get("since_seq", 0)
        if not isinstance(since, int) or isinstance(since, bool):
            raise ConfigurationError("events: 'since_seq' must be an int")
        batch = _events_after(session.events, since)
        last = batch[-1][0] if batch else since
        return [
            *[line for _, line in batch],
            self._respond(
                "event-batch",
                session.session_id,
                {"count": len(batch), "last_seq": last},
            ),
        ]

    def _handle_sessions(self, frame: wire.Frame) -> List[wire.Frame]:
        with self._lock:
            statuses = []
            for sid in sorted(self._sessions):
                status = dict(self._sessions[sid].status())
                window = self._windows.get(sid)
                if window is not None:
                    # A reconnecting client adopts this so its next seq
                    # stays ahead of the session's window.
                    status["last_seq"] = window.last_seq
                lease = self._leases.get(sid)
                if lease is not None:
                    status["lease_expires_in_s"] = max(
                        0.0, lease.deadline - self.clock()
                    )
                statuses.append(status)
            orphaned = [
                dict(self._orphaned[sid]) for sid in sorted(self._orphaned)
            ]
        return [
            self._respond(
                "session-list",
                frame.session_id,
                {
                    "sessions": statuses,
                    "orphaned": orphaned,
                    "recovered": sorted(self.recovered),
                    "ledger": list(self.ledger),
                },
            )
        ]

    def _handle_metrics(self, frame: wire.Frame) -> List[wire.Frame]:
        return [
            self._respond(
                "metrics-text", frame.session_id, {"text": self.metrics_text()}
            )
        ]

    def _handle_detach(self, frame: wire.Frame) -> List[wire.Frame]:
        session = self._session(frame.session_id)
        self._stop_driver(session.session_id)
        session.detach()
        self._persist(session)
        with self._lock:
            self._forget(session.session_id)
        return [
            self._respond(
                "detached",
                session.session_id,
                {"session_id": session.session_id, "state": session.state},
            )
        ]

    def _stop_driver(self, session_id: str) -> None:
        """Stop a session's driver thread and wait for it to exit."""
        stop = self._stop_flags.get(session_id)
        if stop is not None:
            stop.set()
        thread = self._threads.get(session_id)
        if thread is not None and thread.is_alive():
            thread.join(timeout=_COMMAND_TIMEOUT_S)

    def _forget(self, session_id: str) -> None:
        """Drop a detached or orphaned session's entries (under the lock).

        The seq window survives on purpose: a retried detach (its response
        lost in delivery) replays "detached" from cache instead of failing
        with "no such session".
        """
        for entries in (
            self._sessions,
            self._threads,
            self._stop_flags,
            self._finished,
            self._leases,
            self._attach_fingerprints,
            self._attach_responses,
        ):
            entries.pop(session_id, None)

    # -- execution plumbing ----------------------------------------------------

    def _session(self, session_id: str) -> AcpSession:
        with self._lock:
            session = self._sessions.get(session_id)
            orphaned = session_id in self._orphaned
        if session is None:
            if orphaned:
                raise _Refusal(
                    f"session {session_id!r} is orphaned (its lease "
                    f"expired); attach with resume={session_id!r} to "
                    "recover it",
                    code=wire.ERR_ORPHANED,
                )
            raise ConfigurationError(f"no such session: {session_id!r}")
        return session

    # -- leases ----------------------------------------------------------------

    def _touch_lease(self, session_id: str) -> None:
        if not session_id:
            return
        with self._lock:
            lease = self._leases.get(session_id)
        if lease is not None:
            lease.touch(self.clock())

    def reap_expired(self) -> List[str]:
        """Orphan every session whose lease has expired by :attr:`clock`;
        returns their ids.  Called on every inbound frame (cheap when no
        leases exist) and by the background reaper of a threaded server."""
        if not self._leases:
            return []
        now = self.clock()
        with self._lock:
            expired = []
            for sid, lease in self._leases.items():
                if not lease.expired(now) or sid not in self._sessions:
                    continue
                window = self._windows.get(sid)
                if window is not None and window.has_pending:
                    # A frame is mid-dispatch (e.g. a blocking `result`
                    # wait): the client is provably live even though the
                    # wire is quiet.  Refresh instead of orphaning.
                    lease.touch(now)
                    continue
                expired.append(sid)
        return [sid for sid in expired if self._orphan_session(sid)]

    def _orphan_session(self, session_id: str) -> bool:
        """Lease expiry: stop the driver, persist the checkpoints,
        release the session's resources — keeping just enough (the
        checkpoint store, the seq window, a final status) for a later
        ``attach(resume=...)`` to warm-restore it."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            return False
        self._stop_driver(session_id)
        prior_state = session.state
        if prior_state not in (FINISHED, QUARANTINED):
            try:
                # A final snapshot so the resume picks up the freshest
                # controller state, not just the last cadence write.
                session.checkpoint_now()
            except Exception:
                pass  # best effort: an unstartable session still orphans
        session.orphan()
        self._persist(session)
        store = session.prepared.checkpoint_store
        status = dict(session.status())
        status["prior_state"] = prior_state
        with self._lock:
            self._forget(session_id)
            self._orphaned[session_id] = status
            if store is not None and len(store) > 0:
                # Resumable with or without a state_dir: the in-memory
                # store is registered exactly like a recovered dump.
                self.recovered[session_id] = store
            self.lease_expirations += 1
        return True

    def _ensure_reaper(self) -> None:
        """Threaded servers sweep leases in the background too — an
        abandoned session must orphan even if no frame ever arrives
        again.  Inline servers rely on the per-frame sweep, keeping
        loopback runs deterministic."""
        if not self.threaded or self._reaper is not None:
            return
        self._reaper_stop.clear()
        self._reaper = threading.Thread(
            target=self._reap_loop, name="acp-reaper", daemon=True
        )
        self._reaper.start()

    def _reap_loop(self) -> None:
        while not self._reaper_stop.wait(_REAPER_INTERVAL_S):
            try:
                self.reap_expired()
            except Exception:
                pass  # the reaper must outlive any single sweep failure

    def _thread_alive(self, session_id: str) -> bool:
        thread = self._threads.get(session_id)
        return thread is not None and thread.is_alive()

    def _guarded(self, session: AcpSession, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the caller's thread, converting a managed-system
        crash into a quarantine + error (never a daemon crash)."""
        try:
            return fn()
        except ConfigurationError:
            raise  # a refusal, not a crash: the session stays healthy
        except Exception as exc:
            session.quarantine(exc)
            raise ConfigurationError(
                f"session {session.session_id} quarantined: {session.error}"
            ) from None

    def _start_driver(self, session: AcpSession) -> None:
        sid = session.session_id
        if self._thread_alive(sid):
            raise ConfigurationError(f"session {sid} is already running")
        if session.state in (FINISHED, QUARANTINED):
            raise ConfigurationError(
                f"session {sid} is {session.state}; cannot run"
            )
        stop = threading.Event()
        finished = threading.Event()
        chunk_s = _DRIVE_CHUNK_QUANTA * session.quantum_s

        def drive() -> None:
            try:
                while not session.done and not stop.is_set():
                    session.advance(seconds=chunk_s)
                    # Persist at every chunk boundary: a SIGKILLed
                    # daemon loses at most one chunk of checkpoints,
                    # not the whole run (the crash-drill guarantee).
                    self._persist(session)
            except ConfigurationError as exc:
                session.quarantine(exc)
            except Exception as exc:
                session.quarantine(exc)
            finally:
                self._persist(session)
                finished.set()

        thread = threading.Thread(
            target=drive, name=f"acp-{sid}", daemon=True
        )
        with self._lock:
            self._threads[sid] = thread
            self._stop_flags[sid] = stop
            self._finished[sid] = finished
        thread.start()

    def _call_on_session(
        self,
        session: AcpSession,
        fn: Callable[[], Any],
    ) -> Any:
        """Apply a control action either inline (idle session) or at the
        next segment boundary of its driver thread (running session)."""
        sid = session.session_id
        if not self._thread_alive(sid):
            return self._guarded(session, fn)
        box: Dict[str, Any] = {}
        applied = threading.Event()

        def command() -> None:
            try:
                box["value"] = fn()
            except BaseException as exc:  # surfaced to the requester below
                box["exc"] = exc
            finally:
                applied.set()

        session.enqueue(command)
        if not applied.wait(_COMMAND_TIMEOUT_S):
            if not self._thread_alive(sid):
                # The driver exited between enqueue and its final drain;
                # the session is idle now, so drain on this thread.
                session._drain_commands()
            if not applied.is_set():
                raise ConfigurationError(
                    f"session {sid}: command not applied within "
                    f"{_COMMAND_TIMEOUT_S}s"
                )
        if "exc" in box:
            exc = box["exc"]
            if isinstance(exc, ConfigurationError):
                raise exc
            session.quarantine(exc)
            raise ConfigurationError(
                f"session {sid} quarantined: {session.error}"
            ) from None
        return box["value"]

    def _persist(self, session: AcpSession) -> None:
        if self.state_dir is None:
            return
        store = session.prepared.checkpoint_store
        if store is None or len(store) == 0:
            return
        store.dump(
            os.path.join(self.state_dir, f"{session.session_id}.json")
        )

    # -- responses / observability --------------------------------------------

    def _next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _respond(
        self, frame_type: str, session_id: str, payload: Dict[str, Any]
    ) -> wire.Frame:
        return wire.make_frame(
            frame_type, session_id, self._next_seq(), payload
        )

    def _error(
        self, session_id: str, message: str, code: str = ""
    ) -> wire.Frame:
        return wire.error_frame(
            session_id, self._next_seq(), message, code=code
        )

    def metrics_text(self) -> str:
        """Live Prometheus text: control-plane counters + every tenant's
        telemetry snapshot stamped with its ``session`` label."""
        from repro.telemetry.exporters import snapshot_to_prometheus
        from repro.telemetry.registry import MetricsRegistry

        with self._lock:
            sessions = dict(self._sessions)
        by_state: Dict[str, int] = dict.fromkeys(
            (RUNNING, FINISHED, QUARANTINED), 0
        )
        for session in sessions.values():
            by_state[session.state] = by_state.get(session.state, 0) + 1
        by_state[ORPHANED] = len(self._orphaned)
        registry = MetricsRegistry()
        registry.counter(
            "acp_sessions_attached_total", "Sessions ever attached."
        ).inc(self._counter)
        gauge = registry.gauge("acp_sessions", "Current sessions by state.")
        for state, count in by_state.items():
            gauge.set(count, state=state)
        frames = registry.counter(
            "acp_frames_total", "Wire frames handled, by direction."
        )
        frames.inc(self.frames_in, direction="in")
        frames.inc(self.frames_out, direction="out")
        registry.counter(
            "acp_retries_total",
            "Client re-deliveries observed (attempt > 1 markers).",
        ).inc(self.retries_seen)
        registry.counter(
            "acp_dedup_hits_total",
            "Duplicate frames answered from the replay cache instead of "
            "re-applied.",
        ).inc(self.dedup_hits)
        registry.counter(
            "acp_lease_expired_total", "Sessions orphaned by lease expiry."
        ).inc(self.lease_expirations)
        registry.counter(
            "acp_frames_corrupt_total",
            "Lines that never parsed into a frame (corruption, torn "
            "writes).",
        ).inc(self.frames_corrupt)
        parts = [snapshot_to_prometheus(registry.snapshot())]
        for sid in sorted(sessions):
            hub = sessions[sid].prepared.telemetry
            if hub is None:
                continue
            parts.append(
                snapshot_to_prometheus(
                    hub.registry.snapshot(), extra_labels={"session": sid}
                )
            )
        return "".join(parts)

    def shutdown(self) -> None:
        """Stop every driver thread; sessions stay readable."""
        self._reaper_stop.set()
        reaper = self._reaper
        if reaper is not None and reaper.is_alive():
            reaper.join(timeout=5.0)
        self._reaper = None
        with self._lock:
            flags = list(self._stop_flags.values())
            threads = list(self._threads.values())
        for flag in flags:
            flag.set()
        for thread in threads:
            if thread.is_alive():
                thread.join(timeout=_COMMAND_TIMEOUT_S)


_HANDLERS: Dict[str, Callable[[AcpServer, wire.Frame], List[wire.Reply]]] = {
    "hello": AcpServer._handle_hello,
    "attach": AcpServer._handle_attach,
    "run": AcpServer._handle_run,
    "swap": AcpServer._handle_swap,
    "checkpoint": AcpServer._handle_checkpoint,
    "result": AcpServer._handle_result,
    "events": AcpServer._handle_events,
    "sessions": AcpServer._handle_sessions,
    "metrics": AcpServer._handle_metrics,
    "detach": AcpServer._handle_detach,
}
