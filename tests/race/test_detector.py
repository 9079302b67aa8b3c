"""RaceDetector unit tests (synthetic accesses) and fixture runs.

The synthetic half drives the detector directly with fake interpreter
objects so each rule — happens-before race, lockset suppression,
coherence audit, dedup, the findings cap — is pinned in isolation.
The fixture half runs the committed negative/positive fixture programs
end to end through ``run_rcce``.
"""

import os

import pytest

from repro.bench.workloads import scaled_config
from repro.race import COHERENCE, RACE, RaceDetector
from repro.race.lockset import LockRegistry
from repro.race.vectorclock import Epoch, VectorClock
from repro.scc.chip import SCCChip
from repro.sim.runner import run_rcce

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "fixtures")


def fixture_source(name):
    with open(os.path.join(FIXTURES, name)) as handle:
        return handle.read()


class FakeInterp:
    """The slice of the Interpreter surface record()/record_range()
    read: core id, current function, cycle counter, and a runtime
    whose ``race_thread`` names the logical thread."""

    class _Runtime:
        def __init__(self, tid):
            self._tid = tid

        def race_thread(self):
            return self._tid

    def __init__(self, core_id, tid, cycles=0):
        self.core_id = core_id
        self.current_function = "main"
        self.cycles = cycles
        self.runtime = self._Runtime(tid)


@pytest.fixture
def chip():
    return SCCChip(scaled_config())


@pytest.fixture
def detector(chip):
    detector = RaceDetector().attach(chip)
    yield detector
    detector.detach()


def shared_addr(chip, nbytes=8, label="shared_var"):
    return chip.address_space.alloc_shared(nbytes, label).base


def private_addr(chip, core, nbytes=8, label="private_var"):
    return chip.address_space.alloc_private(core, nbytes, label).base


class TestHappensBeforeRaces:
    def test_unordered_write_write_is_a_race(self, chip, detector):
        addr = shared_addr(chip)
        detector.register("shared_var", addr, 8, "shared")
        detector.record(FakeInterp(0, 0), addr, "write")
        detector.record(FakeInterp(1, 1), addr, "write")
        report = detector.report()
        assert report.has_findings
        assert report.findings[0].category == RACE
        assert "shared_var" in report.findings[0].message()

    def test_unordered_read_after_write_is_a_race(self, chip,
                                                  detector):
        addr = shared_addr(chip)
        detector.record(FakeInterp(0, 0), addr, "write")
        detector.record(FakeInterp(1, 1), addr, "read")
        report = detector.report()
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.prior.kind == "write"
        assert finding.current.kind == "read"

    def test_unordered_write_after_read_is_a_race(self, chip,
                                                  detector):
        addr = shared_addr(chip)
        detector.record(FakeInterp(0, 0), addr, "read")
        detector.record(FakeInterp(1, 1), addr, "write")
        report = detector.report()
        assert len(report.findings) == 1
        assert report.findings[0].current.kind == "write"

    def test_same_thread_never_races_with_itself(self, chip, detector):
        addr = shared_addr(chip)
        for _ in range(4):
            detector.record(FakeInterp(0, 0), addr, "write")
            detector.record(FakeInterp(0, 0), addr, "read")
        assert detector.report().ok

    def test_fork_edge_orders_child_after_parent(self, chip, detector):
        addr = shared_addr(chip)
        detector.record(FakeInterp(0, "main"), addr, "write")
        detector.thread_create("main", "t1")
        detector.record(FakeInterp(0, "t1"), addr, "read")
        assert detector.report().ok

    def test_join_edge_orders_parent_after_child(self, chip, detector):
        addr = shared_addr(chip)
        detector.thread_create("main", "t1")
        detector.record(FakeInterp(0, "t1"), addr, "write")
        detector.thread_join("main", "t1")
        detector.record(FakeInterp(0, "main"), addr, "write")
        assert detector.report().ok

    def test_lock_edges_order_critical_sections(self, chip, detector):
        addr = shared_addr(chip)
        for tid in (0, 1):
            detector.lock_acquire(tid, ("reg", 0))
            detector.record(FakeInterp(tid, tid), addr, "write")
            detector.lock_release(tid, ("reg", 0))
        assert detector.report().ok

    def test_barrier_orders_rounds(self, chip, detector):
        addr = shared_addr(chip)
        detector.record(FakeInterp(0, 0), addr, "write")
        for tid in (0, 1):
            detector.barrier_enter(tid, 2, key="b")
        for tid in (0, 1):
            detector.barrier_exit(tid, key="b")
        detector.record(FakeInterp(1, 1), addr, "read")
        assert detector.report().ok

    def test_flag_write_then_wait_orders(self, chip, detector):
        addr = shared_addr(chip)
        detector.record(FakeInterp(0, 0), addr, "write")
        detector.flag_write(0, flag_id=7)
        detector.flag_sync(1, flag_id=7)
        detector.record(FakeInterp(1, 1), addr, "read")
        assert detector.report().ok

    def test_channel_rendezvous_orders_both_ways(self, chip, detector):
        addr = shared_addr(chip)
        detector.record(FakeInterp(0, 0), addr, "write")
        shipped = detector.channel_send(0)
        ack = detector.channel_recv(1, shipped)
        detector.channel_ack(0, ack)
        # receiver is ordered after the sender's pre-send write ...
        detector.record(FakeInterp(1, 1), addr, "read")
        # ... and the sender after the receiver's pre-recv history
        assert detector.report().ok


class TestLocksetRefinement:
    def test_consistent_lock_suppresses_ww_conflict(self, chip,
                                                    detector):
        """Both writers hold the same lock but the clock edge is
        missing (no release/acquire recorded): Eraser's lockset says
        'consistently protected', so no finding."""
        addr = shared_addr(chip)
        registry = detector._locks
        registry._held[0] = {("reg", 0)}
        registry._held[1] = {("reg", 0)}
        detector.record(FakeInterp(0, 0), addr, "write")
        detector.record(FakeInterp(1, 1), addr, "write")
        report = detector.report()
        assert not report.findings
        assert report.lockset_suppressed == 1

    def test_disjoint_locks_do_not_suppress(self, chip, detector):
        addr = shared_addr(chip)
        registry = detector._locks
        registry._held[0] = {("reg", 0)}
        registry._held[1] = {("reg", 1)}
        detector.record(FakeInterp(0, 0), addr, "write")
        detector.record(FakeInterp(1, 1), addr, "write")
        report = detector.report()
        assert len(report.findings) == 1
        assert report.lockset_suppressed == 0

    def test_registry_refine_intersects(self):
        registry = LockRegistry()
        vc = VectorClock()
        registry.acquire(0, "a", vc)
        registry.acquire(0, "b", vc)
        assert registry.held(0) == {"a", "b"}
        registry.release(0, "b", vc)
        assert registry.held(0) == {"a"}

    def test_release_acquire_transfers_clock(self):
        registry = LockRegistry()
        writer, reader = VectorClock(), VectorClock()
        writer.tick("w")
        registry.acquire("w", "m", writer)
        registry.release("w", "m", writer)
        registry.acquire("r", "m", reader)
        assert reader.covers(Epoch("w", 1))


class TestCoherenceAudit:
    def test_remote_read_of_cacheable_word_is_flagged(self, chip,
                                                      detector):
        """Even a barrier-ordered remote read can see a stale line:
        ordering does not flush a cacheable private segment."""
        addr = private_addr(chip, core=0)
        detector.register("private_var", addr, 8, "global")
        detector.record(FakeInterp(0, 0), addr, "write")
        for tid in (0, 1):
            detector.barrier_enter(tid, 2, key="b")
        for tid in (0, 1):
            detector.barrier_exit(tid, key="b")
        detector.record(FakeInterp(1, 1), addr, "read")
        report = detector.report()
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.category == COHERENCE
        assert finding.stale_cacheable
        assert "stale cacheable" in finding.message()

    def test_remote_write_over_cacheable_word_is_flagged(self, chip,
                                                         detector):
        addr = private_addr(chip, core=0)
        detector.record(FakeInterp(0, 0), addr, "write")
        for tid in (0, 1):
            detector.barrier_enter(tid, 2, key="b")
        for tid in (0, 1):
            detector.barrier_exit(tid, key="b")
        detector.record(FakeInterp(1, 1), addr, "write")
        report = detector.report()
        assert report.counts()[COHERENCE] == 1

    def test_single_core_private_traffic_is_clean(self, chip,
                                                  detector):
        addr = private_addr(chip, core=0)
        detector.record(FakeInterp(0, 0), addr, "write")
        detector.record(FakeInterp(0, 0), addr, "read")
        assert detector.report().ok

    def test_uncacheable_shared_segment_never_coherence(self, chip,
                                                       detector):
        """Shared off-chip DRAM is mapped uncacheable: ordered remote
        reads there are exactly what the translation relies on."""
        addr = shared_addr(chip)
        detector.record(FakeInterp(0, 0), addr, "write")
        for tid in (0, 1):
            detector.barrier_enter(tid, 2, key="b")
        for tid in (0, 1):
            detector.barrier_exit(tid, key="b")
        detector.record(FakeInterp(1, 1), addr, "read")
        assert detector.report().ok


class TestReporting:
    def test_findings_are_deduplicated(self, chip, detector):
        addr = shared_addr(chip)
        detector.record(FakeInterp(0, 0), addr, "write")
        for _ in range(5):
            detector.record(FakeInterp(1, 1), addr, "write")
            detector.record(FakeInterp(0, 0), addr, "write")
        report = detector.report()
        # one per (direction, kind-pair), not one per access
        assert len(report.findings) <= 2

    def test_findings_cap_counts_overflow(self, chip):
        detector = RaceDetector(max_findings=2).attach(chip)
        try:
            base = shared_addr(chip, nbytes=64)
            for index in range(6):
                addr = base + index * 8
                detector.register("v%d" % index, addr, 8, "shared")
                detector.record(FakeInterp(0, 0), addr, "write")
                detector.record(FakeInterp(1, 1), addr, "write")
            report = detector.report()
            assert len(report.findings) == 2
            assert report.dropped == 4
            assert report.has_findings
        finally:
            detector.detach()

    def test_provenance_fields(self, chip, detector):
        addr = shared_addr(chip)
        detector.register("shared_var", addr, 8, "shared")
        detector.record(FakeInterp(0, 0, cycles=10), addr, "write")
        detector.record(FakeInterp(1, 1, cycles=20), addr, "write")
        finding = detector.report().findings[0]
        payload = finding.as_dict()
        assert payload["variable"] == "shared_var"
        assert payload["prior"]["core"] == 0
        assert payload["current"]["core"] == 1
        assert payload["current"]["cycles"] == 20
        assert payload["current"]["epoch"] == "1@1"
        diagnostic = finding.as_diagnostic()
        assert diagnostic.severity == "warning"
        assert "shared_var" in diagnostic.format()

    def test_metrics_registered_on_attach(self, chip, detector):
        addr = shared_addr(chip)
        detector.record(FakeInterp(0, 0), addr, "write")
        detector.record(FakeInterp(1, 1), addr, "write")
        counters = chip.metrics.snapshot()["counters"]
        assert counters["race_checks"][0]["value"] == 2
        by_category = {row["labels"]["category"]: row["value"]
                       for row in counters["race_findings"]}
        assert by_category == {"race": 1, "coherence": 0}

    def test_detach_restores_chip(self, chip):
        detector = RaceDetector().attach(chip)
        assert chip.race is detector
        detector.detach()
        assert chip.race is None

    def test_clean_report_renders_summary(self, chip, detector):
        addr = shared_addr(chip)
        detector.record(FakeInterp(0, 0), addr, "write")
        report = detector.report()
        assert report.ok
        assert "race audit: clean" in report.render()


class TestFixtures:
    """End-to-end: the committed fixture programs."""

    def run_fixture(self, name, ues=2):
        chip = SCCChip(scaled_config())
        result = run_rcce(fixture_source(name), ues, chip.config, chip,
                          max_steps=50_000_000, race=True)
        return result

    def test_unprotected_counter_is_flagged(self):
        result = self.run_fixture("race_unprotected_counter.c")
        report = result.race
        assert report.has_findings
        assert report.counts()[RACE] >= 1
        finding = report.findings[0]
        assert finding.variable is not None
        assert {finding.prior.core, finding.current.core} == {0, 1}
        assert finding.prior.function == "RCCE_APP"
        # findings double as diagnostics on the run result
        assert any("data race" in diag.format()
                   for diag in result.diagnostics)

    def test_locked_counter_is_clean(self):
        result = self.run_fixture("race_locked_counter.c")
        assert result.race.ok
        assert result.stdout().strip() == "counter=16"

    def test_cacheable_alias_is_a_coherence_violation(self):
        result = self.run_fixture("race_cacheable_alias.c")
        report = result.race
        counts = report.counts()
        assert counts[COHERENCE] >= 1
        assert counts[RACE] == 0
        finding = report.findings[0]
        assert finding.stale_cacheable
        assert "stash" in finding.message()

    def test_detector_disabled_reports_nothing(self):
        chip = SCCChip(scaled_config())
        result = run_rcce(fixture_source("race_unprotected_counter.c"),
                          2, chip.config, chip, max_steps=50_000_000)
        assert result.race is None
