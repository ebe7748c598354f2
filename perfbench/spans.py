"""Wall-clock spans around the public entry points of each layer.

The benchmark times layers from the outside: :func:`install` replaces a
fixed list of methods and module functions (:data:`SPANS`) with thin
wrappers that record one span per call, and :meth:`Tracer.uninstall`
puts the originals back.  Nothing under ``src/`` knows about it.

A span holds a name, a start, an end and its parent span.  Spans live in
per-thread arrays while the run goes on and are written out (``.npz``)
when it ends.  A span's *self time* is its duration minus the time its
child spans cover, so the self times of every span inside a window add
up to the time covered by the window's outermost spans; what is left of
the window is attributed to ``other``.

Wrappers are installed on the class, or on the module attribute the
caller actually looks up, before the traced objects are built.  Bound
methods captured earlier would bypass them.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: (module, class or None, attribute, span name).  ``None`` wraps a
#: module-level function at the module the caller looks it up in.
SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.engine", "Simulation", "step", "sim.step"),
    ("repro.sched.gts", "GtsScheduler", "place", "sched.place"),
    ("repro.kernel.bus", "EventBus", "publish", "kernel.publish"),
    ("repro.kernel.mape", "MapeLoop", "on_heartbeat", "kernel.mape"),
    ("repro.kernel.mape", "SearchPlanner", "plan", "kernel.plan"),
    ("repro.kernel.mape", "Executor", "execute", "kernel.execute"),
    ("repro.kernel.mape", None, "get_next_sys_state", "core.search"),
    ("repro.core.calibration", None, "calibrate", "core.calibrate"),
    ("repro.experiments.versions", None, "calibrate", "core.calibrate"),
    ("repro.fleet.node", None, "calibrate", "core.calibrate"),
    ("repro.kernel.batchplan", None, "batch_next_sys_state", "kernel.batchplan"),
    ("repro.kernel.batchplan", "StateSpaceTensor", "build", "kernel.tensor_build"),
    ("repro.mphars.manager", "MpHarsManager", "on_heartbeat", "mphars.cycle"),
    ("repro.heartbeats.monitor", "HeartbeatMonitor", "timed_rate",
     "heartbeats.timed_rate"),
    ("repro.fleet.router", "RoundRobinRouter", "route", "fleet.route"),
    ("repro.fleet.router", "LeastLoadedRouter", "route", "fleet.route"),
    ("repro.fleet.router", "DeadlineRiskRouter", "route", "fleet.route"),
    ("repro.fleet.node", "FleetNode", "step", "fleet.node_step"),
    ("repro.fleet.slo", "SloWindow", "percentile", "fleet.slo_percentile"),
    ("repro.fleet.supervisor", "FleetSupervisor", "routable", "fleet.routable"),
    ("repro.fleet.supervisor", "FleetSupervisor", "observe", "fleet.supervise"),
    ("repro.fleet.resilience", "AdmissionController", "update",
     "fleet.supervise"),
    ("repro.fleet.cluster", "FleetCluster", "run", "fleet.cluster"),
    ("repro.acp.wire", None, "encode_frame", "acp.encode"),
    ("repro.acp.wire", None, "decode_frame", "acp.decode"),
    ("repro.acp.client", "UnixTransport", "exchange", "acp.exchange"),
    ("repro.acp.server", "AcpServer", "handle_line", "acp.handle"),
    ("repro.acp.session", "AcpSession", "advance", "acp.advance"),
    ("repro.experiments.runner", None, "measure_max_rate",
     "experiments.max_rate"),
)

#: Modules holding a ``WorkloadModel`` subclass; every concrete
#: ``advance`` among them is wrapped as ``workloads.advance``.
WORKLOAD_MODULES = (
    "repro.workloads.base",
    "repro.workloads.dataparallel",
    "repro.workloads.microbench",
    "repro.workloads.pipeline",
    "repro.fleet.serving",
)

_clock = time.perf_counter


class _Buffer:
    """One thread's spans, as parallel arrays (cheap to append)."""

    __slots__ = ("name", "parent", "nested", "start", "end", "stack", "open")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        #: 1 when a span of the same name is already open (recursion or
        #: re-entry); such spans are left out of ``total`` so nested
        #: calls are not counted twice.
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.open: Dict[int, int] = {}


class SpanSet:
    """Finished spans from one process, with the analysis over them."""

    def __init__(self, names, name, parent, nested, start, end):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int32)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.nested = np.asarray(nested, dtype=np.int8)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)

    def __len__(self) -> int:
        return int(self.name.size)

    def save(self, path: str, counts: Optional[Dict[str, float]] = None) -> None:
        """Write the spans (and optional count-only probes) as ``.npz``."""
        counts = counts or {}
        np.savez(
            path,
            count_names=np.asarray(sorted(counts), dtype=str),
            count_values=np.asarray(
                [counts[k] for k in sorted(counts)], dtype=np.float64
            ),
            names=np.asarray(self.names, dtype=str),
            name=self.name,
            parent=self.parent,
            nested=self.nested,
            start=self.start,
            end=self.end,
        )

    @staticmethod
    def load(path: str) -> Tuple["SpanSet", Dict[str, float]]:
        """Spans and count-only probes written by :meth:`save`."""
        with np.load(path) as data:
            spans = SpanSet(
                [str(n) for n in data["names"]],
                data["name"],
                data["parent"],
                data["nested"],
                data["start"],
                data["end"],
            )
            counts = {
                str(k): float(v)
                for k, v in zip(data["count_names"], data["count_values"])
            }
        return spans, counts

    def stats(
        self, windows: Sequence[Tuple[float, float]]
    ) -> Dict[str, Dict[str, float]]:
        """Per span name, over the spans lying inside any window:
        ``calls``, ``total`` (outermost same-name spans only), ``self``
        (duration minus child spans) and ``root`` (time of spans whose
        parent lies outside the windows, i.e. the time the set covers).
        """
        n = len(self)
        out: Dict[str, Dict[str, float]] = {}
        if n == 0:
            return out
        done = self.end >= self.start
        dur = np.where(done, self.end - self.start, 0.0)
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=n
        )[:n]
        own = dur - child
        inside = np.zeros(n, dtype=bool)
        for lo, hi in windows:
            inside |= (self.start >= lo) & (self.end <= hi)
        inside &= done
        parent_inside = np.zeros(n, dtype=bool)
        parent_inside[has_parent] = inside[self.parent[has_parent]]
        root = inside & ~parent_inside
        k = len(self.names)
        ids = self.name[inside]
        calls = np.bincount(ids, minlength=k)
        outer = inside & (self.nested == 0)
        total = np.bincount(self.name[outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(ids, weights=own[inside], minlength=k)
        root_s = np.bincount(self.name[root], weights=dur[root], minlength=k)
        for i, label in enumerate(self.names):
            if calls[i]:
                out[label] = {
                    "calls": float(calls[i]),
                    "total": float(total[i]),
                    "self": float(self_s[i]),
                    "root": float(root_s[i]),
                }
        return out


class Tracer:
    """Records spans for every wrapped call until uninstalled."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        #: Count-only probes (no span), by name.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Estimation layers built while tracing (hit-ratio harvest).
        self.estimation_layers: List[object] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        nid = self._intern(name)
        local = self._local
        make_buffer = self._buffer
        clock = _clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            buf = getattr(local, "buf", None) or make_buffer()
            stack = buf.stack
            index = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            depth = buf.open.get(nid, 0)
            buf.nested.append(1 if depth else 0)
            buf.open[nid] = depth + 1
            buf.end.append(-1.0)
            stack.append(index)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                stack.pop()
                buf.open[nid] = depth

        return span

    def counted(
        self, name: str, fn: Callable, amount: Callable[..., float]
    ) -> Callable:
        """``fn`` wrapped so that every call adds ``amount(*args)`` to a
        counter (no span: for calls too small or too many to time)."""
        counts = self.counts

        @functools.wraps(fn)
        def count(*args, **kwargs):
            counts[name] += amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return count

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr: str, make: Callable[[Callable], Callable]):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def wrap(self, owner, attr: str, name: str) -> None:
        self._replace(owner, attr, lambda fn: self.timed(name, fn))

    def count(self, owner, attr: str, name: str, amount=None) -> None:
        amount = amount or (lambda *args, **kwargs: 1)
        self._replace(owner, attr, lambda fn: self.counted(name, fn, amount))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- harvesting ----------------------------------------------------------

    def spans(self) -> SpanSet:
        """Every span recorded so far, all threads concatenated."""
        with self._lock:
            buffers = list(self._buffers)
        names, parents, nested, starts, ends = [], [], [], [], []
        offset = 0
        for buf in buffers:
            size = min(len(buf.name), len(buf.start))
            parent = np.asarray(buf.parent[:size], dtype=np.int64)
            parents.append(np.where(parent >= 0, parent + offset, -1))
            names.append(np.asarray(buf.name[:size], dtype=np.int32))
            nested.append(np.asarray(buf.nested[:size], dtype=np.int8))
            starts.append(np.asarray(buf.start[:size], dtype=np.float64))
            ends.append(np.asarray(buf.end[:size], dtype=np.float64))
            offset += size

        def cat(parts, dtype):
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        return SpanSet(
            self.names,
            cat(names, np.int32),
            cat(parents, np.int64),
            cat(nested, np.int8),
            cat(starts, np.float64),
            cat(ends, np.float64),
        )

    def estimation_counts(self) -> Dict[str, float]:
        """Hits and lookups of every estimation layer built so far (memo
        hits plus tensor reuses over all lookups), then forgets them."""
        hits = lookups = 0
        for layer in self.estimation_layers:
            stats = layer.stats()
            layer_hits = (
                stats["perf_hits"] + stats["power_hits"] + stats["tensor_reuses"]
            )
            hits += layer_hits
            lookups += (
                layer_hits
                + stats["perf_misses"]
                + stats["power_misses"]
                + stats["tensor_builds"]
            )
        self.estimation_layers.clear()
        return {"estimate_hits": float(hits), "estimate_lookups": float(lookups)}


def _workload_classes() -> Iterable[type]:
    base = importlib.import_module("repro.workloads.base").WorkloadModel
    for module in WORKLOAD_MODULES:
        importlib.import_module(module)
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        fn = cls.__dict__.get("advance")
        if fn is not None and not getattr(fn, "__isabstractmethod__", False):
            yield cls


def install() -> Tracer:
    """Wrap every entry point in :data:`SPANS` (plus the counters) and
    return the tracer; call :meth:`Tracer.uninstall` to undo."""
    tracer = Tracer()
    for module_name, class_name, attr, name in SPANS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        tracer.wrap(owner, attr, name)
    for cls in _workload_classes():
        tracer.wrap(cls, "advance", "workloads.advance")

    node = importlib.import_module("repro.fleet.node").FleetNode
    tracer.count(node, "est_wait_s", "fleet.est_wait")
    service = importlib.import_module("repro.kernel.batchplan").PlanService
    tracer.count(service, "plan", "kernel.batches")
    tracer.count(service, "plan", "kernel.batch_apps")
    tracer.count(service, "plan_many", "kernel.batches")
    tracer.count(
        service,
        "plan_many",
        "kernel.batch_apps",
        amount=lambda self, requests: len(requests),
    )
    def collecting(init):
        @functools.wraps(init)
        def register(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tracer.estimation_layers.append(self)

        return register

    layer = importlib.import_module("repro.kernel.estimation").EstimationLayer
    tracer._replace(layer, "__init__", collecting)
    return tracer
