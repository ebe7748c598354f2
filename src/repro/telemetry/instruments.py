"""Typed telemetry instruments.

Four instrument kinds cover everything the runtime measures about
itself:

* :class:`Counter` — monotonically-increasing totals (heartbeats seen,
  candidates explored, faults injected);
* :class:`Gauge` — last-written values (current allocation, cache
  sizes, cluster frequencies);
* :class:`Histogram` — value distributions over *fixed* bucket
  boundaries chosen at creation time (observed heartbeat rates), so two
  runs of the same configuration always produce comparable buckets;
* :class:`Timer` — duration accumulators (MAPE phase costs).  Durations
  come from explicit :meth:`Timer.record` calls (the modelled manager
  costs of ``docs/modelling.md`` §7), so timer values are deterministic
  and never read the host's wall clock.

Instruments are labelled: each carries any number of label sets
(series), and a series is addressed by keyword arguments
(``counter.inc(app="swaptions-0")``).  Hot callers pre-bind a series
once with :meth:`LabelledInstrument.child` and update it without the
per-call label lookup; a label set ``child`` has seen before is found
from its raw keywords, without canonicalizing them again.

Everything here is observation-only and zero-dependency; no instrument
ever feeds back into the simulation.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.errors import ConfigurationError

#: A canonical label set: name-sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default Histogram buckets: decade-spanning, fine around 1–100 (the
#: heartbeat-rate range the paper's benchmarks live in).
DEFAULT_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
)


def label_key(labels: Dict[str, str]) -> LabelKey:
    """Canonicalize a label dict (sorted, stringified) for keying."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class LabelledInstrument:
    """Base: a named instrument holding one child per label set."""

    kind = "instrument"

    def __init__(self, name: str, help: str = ""):
        if not name or not name.replace("_", "a").isalnum():
            raise ConfigurationError(
                f"instrument name must be [a-zA-Z0-9_]+, got {name!r}"
            )
        self.name = name
        self.help = help
        self._children: Dict[LabelKey, object] = {}
        #: Label sets already answered, keyed on the raw keyword items
        #: in call order, so a repeat skips the sort and stringify.
        #: Only all-``str`` sets enter it: ``1``, ``1.0`` and ``True``
        #: are equal keys that canonicalize to different series.
        self._seen: Dict[Tuple[Tuple[str, object], ...], object] = {}

    def _new_child(self) -> object:  # pragma: no cover - abstract
        raise NotImplementedError

    def child(self, **labels: str):
        """The series for one label set, creating it on first use."""
        raw = tuple(labels.items())
        try:
            return self._seen[raw]
        except (KeyError, TypeError):  # unseen, or an unhashable value
            pass
        key = label_key(labels)
        got = self._children.get(key)
        if got is None:
            got = self._children[key] = self._new_child()
        if all(type(value) is str for value in labels.values()):
            self._seen[raw] = got
        return got

    def series(self) -> Iterator[Tuple[LabelKey, object]]:
        """``(labels, child)`` pairs in deterministic (sorted) order."""
        for key in sorted(self._children):
            yield key, self._children[key]

    def __len__(self) -> int:
        return len(self._children)


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Counter(LabelledInstrument):
    """A monotonically-increasing total."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.child(**labels).inc(amount)

    def value(self, **labels: str) -> float:
        return self.child(**labels).value


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Gauge(LabelledInstrument):
    """A last-written value."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: str) -> None:
        self.child(**labels).set(value)

    def value(self, **labels: str) -> float:
        return self.child(**labels).value


class _HistogramChild:
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        # counts[i] counts observations <= bounds[i]; the final slot is
        # the +Inf overflow bucket (cumulative style, like Prometheus).
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
        self.counts[-1] += 1


class Histogram(LabelledInstrument):
    """A distribution over fixed, creation-time bucket boundaries."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                "histogram buckets must be strictly increasing"
            )
        self.buckets = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        self.child(**labels).observe(value)


class _TimerChild:
    __slots__ = ("count", "sum_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError("durations cannot be negative")
        self.count += 1
        self.sum_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds


class Timer(LabelledInstrument):
    """Accumulated durations (count, sum, max) in seconds."""

    kind = "timer"

    def _new_child(self) -> _TimerChild:
        return _TimerChild()

    def record(self, seconds: float, **labels: str) -> None:
        self.child(**labels).record(seconds)
