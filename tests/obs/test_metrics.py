"""Metrics registry semantics: collectors, histograms, snapshots."""

import json

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    series_value,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


def _histogram(values):
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestLabels:
    def test_labeled_series_are_independent(self, registry):
        registry.register_collector("c", lambda: [
            ("counter", "hits", {"core": 0, "level": "L1"}, 3),
            ("counter", "hits", {"core": 1, "level": "L1"}, 5)])
        values = {(row["labels"]["core"], row["labels"]["level"]):
                  row["value"]
                  for row in registry.snapshot()["counters"]["hits"]}
        assert values == {(0, "L1"): 3, (1, "L1"): 5}


class TestHistograms:
    def test_summary_statistics(self):
        summary = _histogram(range(1, 101)).summary()
        assert summary["count"] == 100
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)

    def test_percentiles_nearest_rank(self):
        histogram = _histogram(range(1, 101))
        assert histogram.percentile(0.5) == 50
        assert histogram.percentile(0.9) == 90
        assert histogram.percentile(0.99) == 99
        assert histogram.percentile(1.0) == 100

    def test_empty_percentile_is_none(self):
        assert Histogram().percentile(0.5) is None


def test_registry_offers_collectors_and_snapshots_only():
    public = {name for name in dir(MetricsRegistry)
              if not name.startswith("_")}
    assert public == {"register_collector", "unregister_collector",
                      "snapshot"}


class TestSnapshot:
    def test_collector_replaced_by_name(self, registry):
        registry.register_collector(
            "c", lambda: [("counter", "a", {}, 1)])
        registry.register_collector(
            "c", lambda: [("counter", "b", {}, 2)])
        snapshot = registry.snapshot()
        assert "a" not in snapshot["counters"]
        assert series_value(snapshot["counters"], "b") == 2

    def test_snapshot_shape_and_json(self, registry):
        registry.register_collector("c", lambda: [
            ("counter", "hits", {"core": 0}, 3),
            ("gauge", "power", {}, 104.0),
            ("histogram", "latency", {}, _histogram([7]).summary())])
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits"] == [
            {"labels": {"core": 0}, "value": 3}]
        assert snapshot["gauges"]["power"] == [
            {"labels": {}, "value": 104.0}]
        assert snapshot["histograms"]["latency"] == [
            {"labels": {}, "summary": _histogram([7]).summary()}]
        # machine-readable: the whole snapshot must round-trip JSON
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_series_value_filters_by_labels(self, registry):
        registry.register_collector("c", lambda: [
            ("counter", "hits", {"core": 0}, 3),
            ("counter", "hits", {"core": 1}, 5)])
        counters = registry.snapshot()["counters"]
        assert series_value(counters, "hits", core=1) == 5
        assert series_value(counters, "hits", core=9, default=-1) == -1

