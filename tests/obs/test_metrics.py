"""Metrics registry semantics: collectors, histograms, reset."""

import json

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    series_value,
)
from repro.scc.chip import SCCChip
from repro.scc.config import Table61Config
from repro.sim.runner import run_pthread_single_core, run_rcce


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


class TestReset:
    def test_reset_zeroes_a_collected_histogram(self, registry):
        histogram = _histogram([5.0])
        registry.register_collector(
            "c", lambda: [("histogram", "latency", {},
                           histogram.summary())],
            reset=histogram.reset)
        registry.reset()
        assert registry.snapshot()["histograms"]["latency"] == [
            {"labels": {}, "summary": Histogram().summary()}]

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


BARRIER_PROGRAM = """
#include <RCCE.h>
int RCCE_APP(int argc, char **argv) {
    int i, s = 0;
    RCCE_init(&argc, &argv);
    for (i = 0; i < 50 * (RCCE_ue() + 1); i++) s += i;
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"""


class TestBarrierWaitSeries:
    """The RCCE world's collector owns the barrier-wait histogram and
    its reset."""

    def test_reused_chip_repeats_the_snapshot(self):
        chip = SCCChip(Table61Config())
        first = run_rcce(BARRIER_PROGRAM, 2, chip=chip).metrics
        second = run_rcce(BARRIER_PROGRAM, 2, chip=chip).metrics
        rows = first["histograms"]["rcce_barrier_wait_cycles"]
        # one wait per UE at the barrier and one at RCCE_finalize
        assert [row["summary"]["count"] for row in rows] == [4]
        assert second == first

    def test_later_pthread_run_has_no_histogram(self):
        chip = SCCChip(Table61Config())
        run_rcce(BARRIER_PROGRAM, 2, chip=chip)
        result = run_pthread_single_core(
            "int main(void) { return 0; }", chip=chip)
        assert result.metrics["histograms"] == {}
