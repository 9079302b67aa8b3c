"""Metrics registry semantics: labels, histograms, reset."""

import json

import pytest

from repro.obs.metrics import (
    MetricsError,
    MetricsRegistry,
    series_value,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_starts_at_zero(self, registry):
        counter = registry.counter("requests", "total requests")
        assert counter.value == 0

    def test_increments(self, registry):
        counter = registry.counter("requests", "total requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_name_returns_same_family(self, registry):
        first = registry.counter("requests", "total requests")
        second = registry.counter("requests", "total requests")
        first.inc()
        assert second.value == 1

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("requests", "total requests")
        with pytest.raises(MetricsError):
            registry.gauge("requests", "not a counter")

    def test_label_mismatch_rejected(self, registry):
        registry.counter("hits", "hits", labels=("core",))
        with pytest.raises(MetricsError):
            registry.counter("hits", "hits", labels=("level",))


class TestLabels:
    def test_labeled_series_are_independent(self, registry):
        family = registry.counter("hits", "cache hits",
                                  labels=("core", "level"))
        family.labels(core=0, level="L1").inc(3)
        family.labels(core=1, level="L1").inc(5)
        values = {(labels["core"], labels["level"]): child.value
                  for labels, child in family.series()}
        assert values[(0, "L1")] == 3
        assert values[(1, "L1")] == 5

    def test_label_child_cached(self, registry):
        family = registry.counter("hits", "cache hits", labels=("core",))
        assert family.labels(core=7) is family.labels(core=7)

    def test_unknown_label_name_rejected(self, registry):
        family = registry.counter("hits", "cache hits", labels=("core",))
        with pytest.raises(MetricsError):
            family.labels(socket=0)


class TestGauges:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("power_watts", "chip power")
        gauge.set(104.0)
        assert gauge.value == 104.0
        gauge.dec(4.0)
        assert gauge.value == 100.0
        gauge.inc(1.0)
        assert gauge.value == 101.0


class TestHistograms:
    def test_summary_statistics(self, registry):
        histogram = registry.histogram("latency", "cycles")
        for value in range(1, 101):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)

    def test_percentiles_nearest_rank(self, registry):
        histogram = registry.histogram("latency", "cycles")
        for value in range(1, 101):
            histogram.observe(value)
        assert histogram.percentile(0.5) == 50
        assert histogram.percentile(0.9) == 90
        assert histogram.percentile(0.99) == 99
        assert histogram.percentile(1.0) == 100

    def test_empty_percentile_is_none(self, registry):
        histogram = registry.histogram("latency", "cycles")
        assert histogram.percentile(0.5) is None


class TestReset:
    def test_reset_zeroes_families(self, registry):
        counter = registry.counter("requests", "total")
        gauge = registry.gauge("depth", "queue depth")
        histogram = registry.histogram("latency", "cycles")
        counter.inc(9)
        gauge.set(3)
        histogram.observe(5.0)
        registry.reset()
        assert counter.value == 0
        assert gauge.value == 0
        assert histogram.summary()["count"] == 0

    def test_reset_calls_collector_reset(self, registry):
        hits = []
        registry.register_collector("c", lambda: [],
                                    reset=lambda: hits.append(1))
        registry.reset()
        assert hits == [1]

    def test_collector_replaced_by_name(self, registry):
        registry.register_collector(
            "c", lambda: [("counter", "a", {}, 1)])
        registry.register_collector(
            "c", lambda: [("counter", "b", {}, 2)])
        snapshot = registry.snapshot()
        assert "a" not in snapshot["counters"]
        assert series_value(snapshot["counters"], "b") == 2


class TestSnapshot:
    def test_snapshot_shape_and_json(self, registry):
        registry.counter("hits", "hits", labels=("core",)) \
            .labels(core=0).inc(3)
        registry.gauge("power", "watts").set(104.0)
        registry.histogram("latency", "cycles").observe(7)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits"] == [
            {"labels": {"core": 0}, "value": 3}]
        assert snapshot["gauges"]["power"] == [
            {"labels": {}, "value": 104.0}]
        summary = snapshot["histograms"]["latency"][0]["summary"]
        assert summary["count"] == 1
        # machine-readable: the whole snapshot must round-trip JSON
        assert json.loads(registry.to_json())["counters"]["hits"]

    def test_series_value_filters_by_labels(self, registry):
        family = registry.counter("hits", "hits", labels=("core",))
        family.labels(core=0).inc(3)
        family.labels(core=1).inc(5)
        counters = registry.snapshot()["counters"]
        assert series_value(counters, "hits", core=1) == 5
        assert series_value(counters, "hits", core=9, default=-1) == -1

    def test_render_text_lists_series(self, registry):
        registry.counter("hits", "hits", labels=("core",)) \
            .labels(core=0).inc(3)
        text = registry.render_text()
        assert "hits" in text and "3" in text
