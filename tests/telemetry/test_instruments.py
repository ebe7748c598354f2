"""Instrument semantics: counters, gauges, histograms, timers, labels."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    snapshot_to_csv,
    snapshot_to_jsonl,
    snapshot_to_prometheus,
)


class _Label(str):
    """A ``str`` subclass: ``child`` never remembers it raw, so every
    lookup canonicalizes — the oracle for remembered lookups."""


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c", "help")
        assert counter.child().value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.child().value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c", "help")
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0)

    def test_labelled_children_are_independent(self):
        counter = Counter("c", "help")
        counter.inc(1, app="a")
        counter.inc(2, app="b")
        series = dict(
            (labels, child.value) for labels, child in counter.series()
        )
        assert series == {(("app", "a"),): 1.0, (("app", "b"),): 2.0}

    def test_child_is_cached_per_label_set(self):
        counter = Counter("c", "help")
        assert counter.child(a="1", b="2") is counter.child(b="2", a="1")

    def test_keyword_order_reaches_one_series(self):
        counter = Counter("c", "help")
        counter.inc(lane="hot", app="search")
        counter.inc(app="search", lane="hot")
        counter.inc(lane="hot", app="search")
        assert counter.value(app="search", lane="hot") == 3.0
        assert len(counter) == 1

    def test_equal_values_of_other_types_keep_their_series(self):
        # 1 == 1.0 == True as dict keys, but they label "1", "1.0" and
        # "True": a raw lookup must not merge them.
        counter = Counter("c", "help")
        counter.inc(node="1")
        counter.inc(node=1)
        counter.inc(node=1.0)
        counter.inc(node=True)
        counter.inc(node=["unhashable"])
        values = {labels: child.value for labels, child in counter.series()}
        assert values == {
            (("node", "1"),): 2.0,
            (("node", "1.0"),): 1.0,
            (("node", "True"),): 1.0,
            (("node", "['unhashable']"),): 1.0,
        }

    def test_remembered_lookups_export_the_same_bytes(self):
        def fill(registry, label):
            counter = registry.counter("routed_total", "by lane and app")
            hist = registry.histogram("latency_seconds", "per node")
            for i in range(40):
                lane = label(("hot", "base")[i % 2])
                app = label(f"app-{i % 3}")
                if i % 3:
                    counter.inc(lane=lane, app=app)
                else:
                    counter.inc(app=app, lane=lane)
                hist.observe(i / 10, node=label(f"node-{i % 4}"))
            return registry.snapshot()

        remembered = fill(MetricsRegistry(), str)
        canonical = fill(MetricsRegistry(), _Label)
        for export in (
            snapshot_to_jsonl,
            snapshot_to_prometheus,
            snapshot_to_csv,
        ):
            assert export(remembered) == export(canonical)


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("g", "help")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.child().value == 2.0

    def test_gauges_accept_negative_values(self):
        gauge = Gauge("g", "help")
        gauge.set(-3.0)
        assert gauge.child().value == -3.0


class TestHistogram:
    def test_cumulative_bucket_counts(self):
        hist = Histogram("h", "help", buckets=(1.0, 5.0))
        for value in (0.5, 0.7, 3.0, 100.0):
            hist.observe(value)
        child = hist.child()
        # Cumulative convention: each bucket counts observations <= le.
        assert child.counts == [2, 3, 4]  # le=1, le=5, +Inf
        assert child.count == 4
        assert child.sum == pytest.approx(104.2)

    def test_buckets_must_strictly_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", "help", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", "help", buckets=(5.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", "help", buckets=())


class TestTimer:
    def test_record_accumulates_count_sum_max(self):
        timer = Timer("t", "help")
        timer.record(0.5)
        timer.record(2.0)
        child = timer.child()
        assert child.count == 2
        assert child.sum_s == pytest.approx(2.5)
        assert child.max_s == 2.0

    def test_negative_duration_rejected(self):
        timer = Timer("t", "help")
        with pytest.raises(ConfigurationError):
            timer.record(-0.1)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x", "help") is reg.counter("x", "help")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", "help")
        with pytest.raises(ConfigurationError):
            reg.gauge("x", "help")

    def test_snapshot_is_sorted_and_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("zz", "help").inc(app="b")
            reg.counter("zz", "help").inc(app="a")
            reg.gauge("aa", "help").set(1.0)
            return reg.snapshot()

        first, second = build(), build()
        assert first == second
        names = [i["name"] for i in first["instruments"]]
        assert names == sorted(names)
        series = first["instruments"][-1]["series"]
        labels = [s["labels"] for s in series]
        assert labels == sorted(labels, key=lambda d: sorted(d.items()))

    def test_snapshot_roundtrips_through_flatten(self):
        from repro.telemetry import flatten_snapshot

        reg = MetricsRegistry()
        reg.counter("c", "help").inc(3, app="x")
        reg.histogram("h", "help", buckets=(1.0,)).observe(0.5)
        reg.timer("t", "help").record(2.0)
        flat = flatten_snapshot(reg.snapshot())
        assert flat[("c", (("app", "x"),))] == 3.0
        assert flat[("h_bucket", (("le", "1.0"),))] == 1.0
        assert flat[("h_bucket", (("le", "+Inf"),))] == 1.0
        assert flat[("h_count", ())] == 1.0
        assert flat[("t_sum_s", ())] == 2.0
