"""One managed system attached to the control plane.

A session wraps a :class:`~repro.experiments.runner.PreparedRun` — the
same object the in-process path runs — and steps it in bounded
*segments* so control frames can interleave with execution.  Between
segments the session drains its command queue: a policy swap lands there
and is applied before the next tick, which is why a swap always takes
effect within one adaptation period (the planner re-reads its policy at
every MAPE cycle).

Session state machine::

    ATTACHED ──run──▶ RUNNING ──work exhausted──▶ FINISHED
        │                │  ▲
        │                │  └─(bounded advance returns)
        │                ├──uncaught exception──▶ QUARANTINED
        │                ├──lease expired──────▶ ORPHANED
        └──detach──────▶ DETACHED ◀──detach───────┘

An orphaned session (its lease TTL ran out with no client frame) has
its driver stopped and checkpoints persisted by the server; attaching
with ``resume=<session id>`` warm-restores it into a fresh session.

A quarantined session keeps its error and event log for post-mortem but
never runs again; crucially, the exception is contained here — the
daemon and its other tenants are untouched.

Everything the session tells the outside world crosses
:mod:`repro.acp.wire`: bus events become typed event frames (heartbeat,
sensor, plan, actuate), encoded once as they are emitted and kept as
wire lines, and the final outcome becomes a ``result`` frame
that the client SDK reconstructs into a
:class:`~repro.experiments.runner.RunOutcome` — bit-identical to the
in-process one, because both are the same simulation.
"""

from __future__ import annotations

import queue
from dataclasses import astuple
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.policy import POLICY_BY_NAME, HarsPolicy
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    PreparedRun,
    RunConfig,
    RunShape,
    prepare,
)
from repro.experiments.serialize import run_metrics_to_dict
from repro.kernel.bus import (
    AppEvicted,
    AppFinished,
    AppQuarantined,
    ControllerRestored,
    HeartbeatEmitted,
    PolicySwapped,
    PowerSample,
    StateApplied,
)
from repro.kernel.mape import MapeManager
from repro.supervision.checkpoint import CheckpointedController, CheckpointStore
from repro.acp import wire

#: Session states (the machine documented above).
ATTACHED = "attached"
RUNNING = "running"
FINISHED = "finished"
QUARANTINED = "quarantined"
DETACHED = "detached"
#: The session's lease expired: its driver is stopped, its checkpoints
#: persisted, and its resources released — but unlike ``DETACHED`` the
#: server keeps its checkpoint store registered so a later
#: ``attach(resume=<id>)`` warm-restores exactly where it left off.
ORPHANED = "orphaned"

#: Simulated seconds per segment between command-queue drains.  With the
#: default 10 ms tick this is 50 ticks — far below one adaptation period
#: for every configuration in the repo, so a queued swap is always live
#: before the next period ends.
DEFAULT_QUANTUM_S = 0.5


def resolve_policy(name: str) -> HarsPolicy:
    """A policy by wire name: ``hars-i``/``HARS-E``/``mp-hars-ei``…"""
    cleaned = name.strip().upper()
    if cleaned.startswith("MP-"):
        cleaned = cleaned[3:]
    policy = POLICY_BY_NAME.get(cleaned)
    if policy is None:
        raise ConfigurationError(
            f"unknown policy {name!r}; valid: "
            f"{sorted(p.lower() for p in POLICY_BY_NAME)}"
        )
    return policy


class AcpSession:
    """Server-side session: a prepared run plus its control surface."""

    def __init__(
        self,
        session_id: str,
        version: str,
        shapes: Union[RunShape, List[RunShape]],
        config: RunConfig,
        stream_events: bool = False,
        resume_store: Optional[CheckpointStore] = None,
        quantum_s: float = DEFAULT_QUANTUM_S,
    ):
        if quantum_s <= 0:
            raise ConfigurationError("session quantum must be positive")
        self.session_id = session_id
        self.version = version
        self.config = config
        self.stream_events = stream_events
        self.quantum_s = quantum_s
        self.state = ATTACHED
        self.error: Optional[str] = None
        #: Event frames in emission order as ``(seq, line)``: each is
        #: encoded once, when emitted, and kept as its wire line; seqs
        #: strictly increase.  Never trimmed: with ``stream_events`` it
        #: grows by a sensor line per tick for the session's life.
        self.events: List[Tuple[int, str]] = []
        self._sensor_lines = wire.SensorLines(session_id)
        self._seq = 0
        self._commands: "queue.Queue[Callable[[], None]]" = queue.Queue()
        self._resume_store = resume_store
        self._restored = False
        self._result_payload: Optional[Dict[str, Any]] = None
        self.prepared: PreparedRun = prepare(
            version, shapes, config, checkpoint_store=resume_store
        )
        self.app_names = [app.name for app in self.prepared.apps]
        self._subscribe(self.prepared.sim.bus)
        if self.prepared.telemetry is not None:
            self.prepared.telemetry.set_run_info(
                version=version, session=session_id
            )

    # -- observation: bus events → wire frames -------------------------------

    def _subscribe(self, bus) -> None:
        sim = self.prepared.sim
        if self.stream_events:
            bus.subscribe(
                HeartbeatEmitted,
                lambda e: self._emit(
                    wire.heartbeat_frame(
                        self.session_id,
                        self._next_seq(),
                        e.app.name,
                        e.heartbeat.index,
                        e.heartbeat.time_s,
                        rate=e.app.monitor.current_rate(),
                        tag=getattr(e.heartbeat, "tag", "") or "",
                    )
                ),
            )
            bus.subscribe(PowerSample, self._on_power_sample)
        bus.subscribe(StateApplied, lambda e: self._on_state_applied(sim, e))
        bus.subscribe(PolicySwapped, self._on_policy_swapped)
        bus.subscribe(ControllerRestored, self._on_restored)
        for event_type, label in (
            (AppFinished, "finished"),
            (AppQuarantined, "quarantined"),
            (AppEvicted, "evicted"),
        ):
            bus.subscribe(
                event_type,
                lambda e, label=label: self._emit(
                    wire.make_frame(
                        "lifecycle",
                        self.session_id,
                        self._next_seq(),
                        {
                            "event": label,
                            "app": e.app_name,
                            "time_s": e.time_s,
                        },
                    )
                ),
            )

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _emit(self, frame: wire.Frame) -> None:
        self.events.append((frame.seq, wire.encode_frame(frame)))

    def _on_power_sample(self, event: PowerSample) -> None:
        seq = self._next_seq()
        self.events.append(
            (seq, self._sensor_lines.line(seq, event.time_s, event.watts))
        )

    def _on_state_applied(self, sim, event: StateApplied) -> None:
        state = event.state
        quad = [state.c_big, state.c_little, state.f_big_mhz, state.f_little_mhz]
        now = sim.clock.now_s
        self._emit(
            wire.plan_frame(
                self.session_id, self._next_seq(), event.app_name, now, quad
            )
        )
        self._emit(
            wire.actuate_frame(
                self.session_id,
                self._next_seq(),
                event.app_name,
                now,
                event.big_cores,
                event.little_cores,
                state.f_big_mhz,
                state.f_little_mhz,
            )
        )

    def _on_policy_swapped(self, event: PolicySwapped) -> None:
        self._emit(
            wire.make_frame(
                "policy-swapped",
                self.session_id,
                self._next_seq(),
                {
                    "policy": event.new_policy,
                    "old_policy": event.old_policy,
                    "time_s": event.time_s,
                    "controllers": [event.controller],
                },
            )
        )

    def _on_restored(self, event: ControllerRestored) -> None:
        self._emit(
            wire.make_frame(
                "restored",
                self.session_id,
                self._next_seq(),
                {
                    "controller": event.controller,
                    "warm": event.warm,
                    "time_s": event.time_s,
                },
            )
        )

    # -- execution ------------------------------------------------------------

    @property
    def sim(self):
        return self.prepared.sim

    @property
    def done(self) -> bool:
        """Work exhausted or safety horizon reached."""
        sim = self.prepared.sim
        return sim._all_done() or (
            sim.clock.now_s >= self.prepared.horizon_s - 1e-9
        )

    def _ensure_started(self) -> None:
        """Run controller ``on_start`` hooks (and a warm restore, if this
        session resumed from a recovered checkpoint store) before the
        first tick."""
        sim = self.prepared.sim
        sim.start()
        if self._resume_store is not None and not self._restored:
            self._restored = True
            for controller in sim.controllers:
                if isinstance(controller, CheckpointedController):
                    controller.checkpoint_store = self._resume_store
                    controller.simulate_restart(sim)

    def enqueue(self, command: Callable[[], None]) -> None:
        """Queue a control action for the next segment boundary."""
        self._commands.put(command)

    def _drain_commands(self) -> None:
        while True:
            try:
                command = self._commands.get_nowait()
            except queue.Empty:
                return
            command()

    def advance(self, seconds: Optional[float] = None) -> Dict[str, Any]:
        """Step the simulation by up to ``seconds`` of simulated time.

        Commands are drained at each segment boundary.  ``None`` runs to
        completion.  Raises whatever the managed system raises — the
        server wraps this in :meth:`quarantine`.
        """
        if self.state in (FINISHED, QUARANTINED, DETACHED, ORPHANED):
            raise ConfigurationError(
                f"session {self.session_id} is {self.state}; cannot run"
            )
        self.state = RUNNING
        sim = self.prepared.sim
        self._ensure_started()
        deadline = (
            min(sim.clock.now_s + seconds, self.prepared.horizon_s)
            if seconds is not None
            else self.prepared.horizon_s
        )
        while not self.done and sim.clock.now_s < deadline - 1e-9:
            self._drain_commands()
            sim.run(until_s=min(sim.clock.now_s + self.quantum_s, deadline))
        self._drain_commands()
        if self.done:
            self._finalize()
        return self.status()

    def _finalize(self) -> None:
        if self._result_payload is not None:
            return
        outcome = self.prepared.finish()
        trace = outcome.trace
        rows = {
            name: [list(astuple(point)) for point in trace.points(name)]
            for name in trace.app_names
        }
        target = outcome.target
        self._result_payload = {
            "metrics": run_metrics_to_dict(outcome.metrics),
            "target": [target.min_rate, target.avg_rate, target.max_rate],
            "max_rate": outcome.max_rate,
            "trace": rows,
        }
        self.state = FINISHED

    def quarantine(self, exc: BaseException) -> None:
        """Contain a managed-system crash: the session is dead, the
        daemon is not."""
        self.state = QUARANTINED
        self.error = f"{type(exc).__name__}: {exc}"

    def detach(self) -> None:
        if self.state not in (FINISHED, QUARANTINED):
            self.state = DETACHED

    def orphan(self) -> None:
        """Mark the session lease-expired; it never runs here again
        (its checkpoint store is what survives, for a resume)."""
        self.state = ORPHANED

    # -- control actions -------------------------------------------------------

    def swap_policy(
        self, policy_name: str, adapt_every: Optional[int] = None
    ) -> Dict[str, Any]:
        """Retarget every policy-driven manager; next cycle plans under
        the new policy (≤ one adaptation period of latency)."""
        policy = resolve_policy(policy_name)
        sim = self.prepared.sim
        managers = [
            controller
            for controller in sim.controllers
            if isinstance(controller, MapeManager)
        ]
        if not managers:
            raise ConfigurationError(
                f"session {self.session_id}: no policy-driven manager "
                f"to swap (version {self.version!r})"
            )
        swapped: List[str] = []
        for controller in managers:
            old = controller.policy
            controller.policy = policy
            controller.mape.planner.policy = policy
            swapped.append(controller.checkpoint_id)
            sim.bus.publish(
                PolicySwapped(
                    controller=controller.checkpoint_id,
                    time_s=sim.clock.now_s,
                    old_policy=old.name,
                    new_policy=policy.name,
                )
            )
        if adapt_every is not None:
            if adapt_every < 1:
                raise ConfigurationError("adapt_every must be >= 1")
            for controller in managers:
                controller.adapt_every = adapt_every
        return {
            "policy": policy.name,
            "controllers": swapped,
            "time_s": sim.clock.now_s,
        }

    def checkpoint_now(self) -> Dict[str, Any]:
        """Snapshot every checkpoint-capable controller right now."""
        sim = self.prepared.sim
        self._ensure_started()
        store = self.prepared.checkpoint_store
        if store is None:
            store = CheckpointStore()
            self.prepared.checkpoint_store = store
        now = sim.clock.now_s
        count = 0
        for controller in sim.controllers:
            if isinstance(controller, CheckpointedController):
                controller.checkpoint_store = store
                store.put(controller.checkpoint(now))
                count += 1
        return {
            "time_s": now,
            "count": count,
            "store": {
                controller_id: store.get(controller_id)
                for controller_id in store.controller_ids
            },
        }

    # -- introspection ---------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        sim = self.prepared.sim
        payload: Dict[str, Any] = {
            "session_id": self.session_id,
            "state": self.state,
            "version": self.version,
            "apps": list(self.app_names),
            "time_s": sim.clock.now_s,
            "events": len(self.events),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def result_payload(self) -> Dict[str, Any]:
        if self._result_payload is None:
            raise ConfigurationError(
                f"session {self.session_id} has no result yet "
                f"(state: {self.state})"
            )
        return self._result_payload
