"""Seeded ACP wire chaos: drop, duplicate, reorder, corrupt, delay, tear.

:class:`AcpFaultConfig` is the control-plane counterpart of
:class:`~repro.fleet.chaos.FleetFaultConfig`: it turns wire mortality
into a configurable, exactly reproducible schedule.  Each fault kind
draws from its own *per-kind, per-session* RNG stream
(``Random(f"{seed}:{kind}:{session}")`` — PR 8's convention), so one
session's fault history never depends on another session's traffic, and
the same timeline replays over loopback, Unix socket, or HTTP: the
streams are consumed per *frame*, and the frame sequence is what the
carrier transports, not what it decides.

:class:`FaultyTransport` wraps any client transport (an object with
``exchange(line, timeout_s) -> List[str]``, ``close()`` and optionally
``send_torn``).  Faults map onto the failure modes the resilience layer
must absorb:

========== =================================================================
kind       what the wrapped exchange does
========== =================================================================
drop       the frame (50/50) never reaches the server, or reaches it but
           its *response* is lost — the second case is the one that makes
           the server's replay cache earn its keep: the command applied,
           the client must retry the same seq and be answered from cache
dup        the frame is delivered twice; the server's
           :class:`~repro.acp.wire.SeqWindow` applies it once and replays
           the cached response for the echo
reorder    the previous frame is re-delivered (stale, out of order) just
           before the current one; its late response is discarded
corrupt    one byte of the line is mutated in flight; the server answers
           with a typed ``bad-frame`` error the client treats as retryable
delay      the exchange stalls for ``delay_s`` before delivery
disconnect the connection tears mid-write (a partial line, no newline) —
           the server-side torn-line hardening must contain it
========== =================================================================

Daemon kill/restart is the one fault a transport wrapper cannot inject
honestly; the process-level harness (``scripts/acp_chaos_drill.py``)
SIGKILLs a real daemon subprocess at fixed points of its own and
restarts it against the same state dir.

A disabled config (all rates zero) must leave the wrapped transport's
bytes untouched — ``AcpClient(faults=AcpFaultConfig())`` runs are gated
bit-identical to plain loopback runs in ``tests/acp/test_chaos.py``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.acp.client import AcpTransportError

#: Wire fault kinds, in the order their streams are consulted per frame.
ACP_FAULT_KINDS = ("drop", "dup", "reorder", "corrupt", "delay", "disconnect")

#: Rate fields of :class:`AcpFaultConfig`, aligned with the kinds above.
_RATE_FIELDS = (
    "drop_rate",
    "dup_rate",
    "reorder_rate",
    "corrupt_rate",
    "delay_rate",
    "disconnect_rate",
)


@dataclass(frozen=True)
class AcpFaultConfig:
    """Wire mortality model for one client's control-plane traffic.

    Rates are per-frame probabilities in ``[0, 1]``.  With every rate
    zero the config is *disabled* and the wrapper must be a
    byte-transparent pass-through.

    Parameters
    ----------
    seed:
        Base seed of the per-kind, per-session RNG streams.
    drop_rate / dup_rate / reorder_rate / corrupt_rate / delay_rate /
    disconnect_rate:
        Per-frame probability of each fault kind.
    delay_s:
        Stall length of an injected delay.
    """

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    disconnect_rate: float = 0.0
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate!r}"
                )
        if self.delay_s < 0:
            raise ConfigurationError("delay_s must be >= 0")

    @property
    def enabled(self) -> bool:
        """Whether any in-wire fault can fire at all."""
        return any(getattr(self, name) > 0 for name in _RATE_FIELDS)


def _session_of(line: str) -> str:
    """The session stream a frame belongs to ('' for pre-session
    frames like hello/attach — they share one stream per kind)."""
    try:
        data = json.loads(line)
    except ValueError:
        return ""
    if isinstance(data, dict):
        sid = data.get("session_id", "")
        if isinstance(sid, str):
            return sid
    return ""


class FaultyTransport:
    """A chaos shim between :class:`~repro.acp.client.AcpClient` and a
    real transport.

    Every outgoing frame consults each fault kind's seeded stream once,
    in :data:`ACP_FAULT_KINDS` order, so the fire/no-fire timeline is a
    deterministic function of ``(config, session, frame index)`` alone
    — identical over any carrier.  ``injected`` counts fired faults per
    kind for assertions and benchmark reports.
    """

    def __init__(self, inner: Any, config: AcpFaultConfig):
        if not isinstance(config, AcpFaultConfig):
            raise ConfigurationError(
                "FaultyTransport needs an AcpFaultConfig"
            )
        self.inner = inner
        self.config = config
        self.injected: Dict[str, int] = {k: 0 for k in ACP_FAULT_KINDS}
        self._streams: Dict[Tuple[str, str], random.Random] = {}
        self._previous_line: Optional[str] = None

    def _stream(self, kind: str, session: str) -> random.Random:
        key = (kind, session)
        stream = self._streams.get(key)
        if stream is None:
            stream = random.Random(f"{self.config.seed}:{kind}:{session}")
            self._streams[key] = stream
        return stream

    def _fire(self, kind: str, rate: float, session: str) -> bool:
        # Draw even at rate 0?  No: a zero rate never consults the
        # stream, and a disabled config therefore builds no RNG at all
        # — but a *nonzero* rate draws on every frame, fired or not,
        # keeping that kind's timeline aligned across retries.
        if rate <= 0.0:
            return False
        fired = self._stream(kind, session).random() < rate
        if fired:
            self.injected[kind] += 1
        return fired

    def exchange(self, line: str, timeout_s: float) -> List[str]:
        config = self.config
        if not config.enabled:
            return self.inner.exchange(line, timeout_s)
        session = _session_of(line)
        previous, self._previous_line = self._previous_line, line

        if self._fire("drop", config.drop_rate, session):
            if self._stream("drop", session).random() < 0.5:
                # Request-side loss: the server never saw it.
                raise AcpTransportError("chaos: request dropped in flight")
            # Response-side loss: applied server-side, answer lost —
            # the retry must be served from the replay cache.
            try:
                self.inner.exchange(line, timeout_s)
            except (OSError, EOFError):
                pass
            raise AcpTransportError("chaos: response dropped in flight")

        if self._fire("disconnect", config.disconnect_rate, session):
            cut = 1 + self._stream("disconnect", session).randrange(
                max(1, len(line) - 1)
            )
            torn = getattr(self.inner, "send_torn", None)
            if torn is not None:
                try:
                    torn(line[:cut], timeout_s)
                except (OSError, EOFError):
                    pass
            raise AcpTransportError("chaos: connection torn mid-write")

        if self._fire("delay", config.delay_rate, session):
            time.sleep(min(config.delay_s, max(0.0, timeout_s * 0.5)))

        if self._fire("reorder", config.reorder_rate, session) and previous:
            # The previous frame arrives again, late and out of order;
            # whatever the server says to it is lost to the void.
            try:
                self.inner.exchange(previous, timeout_s)
            except (OSError, EOFError):
                pass

        deliver = line
        if self._fire("corrupt", config.corrupt_rate, session):
            stream = self._stream("corrupt", session)
            pos = stream.randrange(len(deliver)) if deliver else 0
            garble = chr(33 + stream.randrange(90))
            deliver = deliver[:pos] + garble + deliver[pos + 1 :]

        if self._fire("dup", config.dup_rate, session):
            # First copy delivered and discarded; the caller gets the
            # echo's response — the dedup cache must make them equal.
            try:
                self.inner.exchange(deliver, timeout_s)
            except (OSError, EOFError):
                pass
        return self.inner.exchange(deliver, timeout_s)

    def send_torn(self, prefix: str, timeout_s: float) -> None:
        torn = getattr(self.inner, "send_torn", None)
        if torn is None:
            raise AcpTransportError(
                "wrapped transport cannot tear a write"
            )
        torn(prefix, timeout_s)

    def close(self) -> None:
        self.inner.close()
