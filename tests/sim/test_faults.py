"""Fault-injection engine tests (repro.faults).

Covers the spec grammar, the determinism contract (same seed => same
cycles and same injection counts), the byte-identical-when-disabled
contract, and each fault kind's observable effect.
"""

import pytest

from repro.faults import (
    CoreCrashFault,
    FaultInjector,
    FaultRule,
    FaultSpecError,
    parse_fault_spec,
    _flip_bits,
)
from repro.sim.runner import run_pthread_single_core, run_rcce

RCCE_COMPUTE = """
int RCCE_APP(int argc, char **argv) {
    int myID;
    int i;
    double sum;
    RCCE_init(&argc, &argv);
    myID = RCCE_ue();
    sum = 0.0;
    for (i = 0; i < 200; i++) {
        sum = sum + i * 0.5;
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"""

PTHREAD_COUNT = """
#include <pthread.h>
int counter;
int main() {
    int i;
    counter = 0;
    for (i = 0; i < 500; i++) { counter = counter + 1; }
    return counter;
}
"""


class TestSpecParsing:
    def test_single_clause(self):
        rules = parse_fault_spec("mpb_flip:p=1e-6,seed=7")
        assert len(rules) == 1
        assert rules[0].kind == "mpb_flip"
        assert rules[0].p == 1e-6
        assert rules[0].seed == 7

    def test_multiple_clauses(self):
        rules = parse_fault_spec(
            "mesh_drop:p=0.01;core_stall:core=2,at=50000,cycles=8000")
        assert [r.kind for r in rules] == ["mesh_drop", "core_stall"]
        assert rules[1].params == {"core": 2, "at": 50000,
                                   "cycles": 8000}

    def test_defaults(self):
        rule = parse_fault_spec("mesh_delay")[0]
        assert rule.p == 1.0
        assert rule.seed == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("gamma_ray:p=1")

    def test_unknown_param_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("mesh_drop:bit=3")

    def test_bad_probability_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("mpb_flip:p=2.0")

    def test_non_numeric_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("mpb_flip:p=often")

    def test_missing_equals_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("mpb_flip:p")

    def test_empty_spec_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("  ;  ")

    def test_rule_list_passthrough(self):
        rules = parse_fault_spec([FaultRule("mesh_drop", p=0.5)])
        assert rules[0].kind == "mesh_drop"


class TestBitFlips:
    def test_int_flip_changes_one_bit(self):
        import random
        flipped = _flip_bits(0, random.Random(0), bit=5)
        assert flipped == 32

    def test_float_flip_changes_value(self):
        import random
        flipped = _flip_bits(1.5, random.Random(3), bit=0)
        assert flipped != 1.5

    def test_non_numeric_untouched(self):
        import random
        marker = object()
        assert _flip_bits(marker, random.Random(0)) is marker


class TestDeterminism:
    def test_same_seed_same_cycles_and_counts(self):
        spec = "mesh_delay:p=0.5,seed=3,cycles=40"
        results = []
        for _ in range(2):
            injector = FaultInjector(spec)
            result = run_rcce(RCCE_COMPUTE, 4, faults=injector)
            results.append((result.cycles, dict(injector.counts)))
        assert results[0] == results[1]
        assert results[0][1]  # something was injected

    def test_different_seed_different_outcome(self):
        a = run_rcce(RCCE_COMPUTE, 4,
                     faults="mesh_delay:p=0.5,seed=3,cycles=40")
        b = run_rcce(RCCE_COMPUTE, 4,
                     faults="mesh_delay:p=0.5,seed=4,cycles=40")
        assert a.cycles != b.cycles

    def test_disabled_faults_byte_identical(self):
        baseline = run_rcce(RCCE_COMPUTE, 4)
        injector = FaultInjector([])  # inactive: no rules
        again = run_rcce(RCCE_COMPUTE, 4, faults=injector)
        assert again.cycles == baseline.cycles
        assert again.per_core_cycles == baseline.per_core_cycles


class TestEffects:
    def test_mesh_delay_increases_cycles(self):
        baseline = run_rcce(RCCE_COMPUTE, 4)
        faulted = run_rcce(RCCE_COMPUTE, 4,
                           faults="mesh_delay:p=0.5,seed=3,cycles=40")
        assert faulted.cycles > baseline.cycles

    def test_mesh_drop_retransmits_and_counts(self):
        from repro.scc.chip import SCCChip
        from repro.scc.config import Table61Config
        chip = SCCChip(Table61Config())
        baseline = run_rcce(RCCE_COMPUTE, 2)
        faulted = run_rcce(RCCE_COMPUTE, 2, chip=chip,
                           faults="mesh_drop:p=0.3,seed=9")
        assert faulted.cycles > baseline.cycles
        assert chip.mesh.drops > 0

    def test_dram_flip_corrupts_result(self):
        # p=1: every private/shared read is corrupted, so the final
        # counter cannot survive intact
        clean = run_pthread_single_core(PTHREAD_COUNT)
        faulted = run_pthread_single_core(
            PTHREAD_COUNT, faults="dram_flip:p=1.0,seed=1")
        assert clean.exit_value == 500
        assert faulted.exit_value != 500

    def test_core_crash_raises(self):
        with pytest.raises(CoreCrashFault) as info:
            run_rcce(RCCE_COMPUTE, 2, faults="core_crash:core=1,at=100")
        assert info.value.core == 1
        assert info.value.cycle >= 100

    def test_core_stall_charges_cycles(self):
        baseline = run_rcce(RCCE_COMPUTE, 2)
        stalled = run_rcce(
            RCCE_COMPUTE, 2,
            faults="core_stall:core=0,at=100,cycles=9000")
        assert stalled.per_core_cycles[0] >= \
            baseline.per_core_cycles[0] + 9000

    def test_mpb_flip_counts_corrupted_reads(self):
        from repro.scc.chip import SCCChip
        from repro.scc.config import Table61Config
        # reads through a pointer into RCCE_malloc'd (MPB) storage are
        # the hooked load path
        source = """
        int RCCE_APP(int argc, char **argv) {
            int myID;
            double *mpb;
            double sum;
            int i;
            RCCE_init(&argc, &argv);
            myID = RCCE_ue();
            mpb = (double *)RCCE_malloc(64);
            for (i = 0; i < 8; i++) { mpb[i] = i + 0.25; }
            sum = 0.0;
            for (i = 0; i < 8; i++) { sum = sum + mpb[i]; }
            RCCE_barrier(&RCCE_COMM_WORLD);
            RCCE_finalize();
            return 0;
        }
        """
        chip = SCCChip(Table61Config())
        injector = FaultInjector("mpb_flip:p=1.0,seed=2")
        result = run_rcce(source, 2, chip=chip, faults=injector)
        assert sum(row["value"]
                   for row in result.metrics["counters"]["fault_injections"]
                   if row["labels"]["kind"] == "mpb_flip") > 0
        assert chip.mpb.stats.corrupted_reads > 0


class TestObservability:
    def test_metrics_export_has_injections(self):
        result = run_rcce(RCCE_COMPUTE, 2,
                          faults="mesh_delay:p=0.5,seed=3")
        counters = result.metrics["counters"]
        assert "fault_injections" in counters
        rows = counters["fault_injections"]
        assert all(row["labels"]["kind"] == "mesh_delay"
                   for row in rows)
        assert sum(row["value"] for row in rows) > 0

    def test_collector_unregistered_after_run(self):
        from repro.scc.chip import SCCChip
        from repro.scc.config import Table61Config
        chip = SCCChip(Table61Config())
        result = run_rcce(RCCE_COMPUTE, 2, chip=chip,
                          faults="mesh_delay:p=0.5,seed=3")
        assert "fault_injections" in result.metrics["counters"]
        assert chip.faults is None
        # the run's snapshot kept the injections; the chip's registry
        # no longer publishes them
        assert "fault_injections" not in \
            chip.metrics.snapshot()["counters"]


class TestHostFaultSpecs:
    def test_injector_rejects_host_kinds(self):
        # worker failure is exercised with real signals, not --faults:
        # the former host kinds are unknown to the chip injector
        for kind in ("worker_kill", "worker_stall", "ipc_delay"):
            with pytest.raises(FaultSpecError) as excinfo:
                FaultInjector(parse_fault_spec(kind))
            assert "unknown fault kind %r" % kind in str(excinfo.value)
