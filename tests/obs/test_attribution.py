"""Cycle attribution and critical-path analysis.

The hard invariant is *conservation*: every simulated cycle lands in
exactly one attribution class, so per-core attributed cycles sum
exactly to the core's total — checked here on every Appendix-C
benchmark under both partition policies, against golden-pinned
breakdowns (``tests/golden/attribution.json``).  The critical path
must likewise account for the whole makespan: its segments tile
``[0, makespan]`` with no gaps.
"""

import io
import json
import os

import pytest

from repro.bench.harness import SCALED_ON_CHIP_CAPACITY
from repro.bench.programs import EXAMPLE_4_1, benchmark_source
from repro.bench.workloads import scaled_config
from repro.core.framework import TranslationFramework
from repro.obs.attribution import (
    CLASSES,
    AttributionEngine,
    ConservationError,
)
from repro.obs.critpath import analyze_critical_path
from repro.scc.chip import SCCChip
from repro.sim.runner import (
    run_pthread_single_core,
    run_rcce,
    run_rcce_supervised,
)

NUM_UES = 4

SIZES = {
    "pi": {"steps": 512},
    "sum35": {"limit": 512},
    "primes": {"limit": 256},
    "stream": {"n": 128},
    "dot": {"n": 192},
    "lu": {"batch": 4, "dim": 8},
}

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "golden", "attribution.json")
with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)


def translate(source, policy="size"):
    framework = TranslationFramework(
        on_chip_capacity=SCALED_ON_CHIP_CAPACITY,
        partition_policy=policy)
    return framework.translate(source).unit


def benchmark_unit(name, policy):
    source = EXAMPLE_4_1 if name == "example_4_1" else \
        benchmark_source(name, NUM_UES, **SIZES[name])
    return translate(source, policy)


def profiled_run(name, policy, attribution=True):
    chip = SCCChip(scaled_config())
    return run_rcce(benchmark_unit(name, policy), NUM_UES,
                    chip.config, chip, max_steps=100_000_000,
                    attribution=attribution)


# -- the conservation invariant, golden-pinned --------------------------------


@pytest.mark.parametrize("policy", ["size", "off-chip-only"])
@pytest.mark.parametrize("name", sorted(SIZES) + ["example_4_1"])
def test_benchmark_attribution_conserves_and_matches_golden(name,
                                                            policy):
    result = profiled_run(name, policy)
    report = result.attribution
    # conservation: attributed cycles sum EXACTLY to each core's total
    for core, classes in report.per_core.items():
        assert sum(classes.values()) == result.per_core_cycles[core]
        assert all(cycles >= 0 for cycles in classes.values())
        assert set(classes) <= set(CLASSES)
    # the critical path accounts for the whole makespan
    path = report.critical_path
    assert path.complete
    assert path.path_length == report.makespan == result.cycles
    # pinned breakdown: any cost-model or hook change shows up here
    expected = GOLDEN["%s/%s" % (name, policy)]
    assert report.makespan == expected["makespan"]
    got = {str(core): dict(sorted(classes.items()))
           for core, classes in sorted(report.per_core.items())}
    assert got == expected["per_core"]


def test_pthread_attribution_conserves():
    source = benchmark_source("pi", NUM_UES, **SIZES["pi"])
    chip = SCCChip(scaled_config())
    result = run_pthread_single_core(source, chip.config, chip,
                                     max_steps=100_000_000,
                                     attribution=True)
    report = result.attribution
    [(core, classes)] = report.per_core.items()
    assert sum(classes.values()) == result.per_core_cycles[core]
    # thread create/join plus quantum context switches all landed
    assert classes["sched_overhead"] >= \
        result.stats["scheduling_overhead_cycles"]
    assert report.critical_path.path_length == result.cycles


def test_mutex_costs_attributed_to_lock_spin():
    source = """
    int counter = 0;
    pthread_mutex_t m;
    void *work(void *arg) {
        pthread_mutex_lock(&m);
        counter = counter + 1;
        pthread_mutex_unlock(&m);
        return 0;
    }
    int main(void) {
        pthread_t a;
        pthread_t b;
        pthread_mutex_init(&m, 0);
        pthread_create(&a, 0, work, 0);
        pthread_create(&b, 0, work, 0);
        pthread_join(a, 0);
        pthread_join(b, 0);
        return counter;
    }
    """
    chip = SCCChip(scaled_config())
    result = run_pthread_single_core(source, chip.config, chip,
                                     attribution=True)
    assert result.exit_value == 2
    [(core, classes)] = result.attribution.per_core.items()
    from repro.sim.pthread_rt import MUTEX_OP_COST
    assert classes["lock_spin"] == 4 * MUTEX_OP_COST  # 2x lock+unlock
    assert sum(classes.values()) == result.per_core_cycles[core]


# -- engine unit behaviour ----------------------------------------------------


def test_breakdown_compute_is_the_residual():
    engine = AttributionEngine()
    engine.add(0, "l1_hit", 10)
    engine.add(0, "mpb", 5)
    breakdown = engine.breakdown({0: 40})
    assert breakdown == {0: {"l1_hit": 10, "mpb": 5, "compute": 25}}


def test_over_attribution_raises_conservation_error():
    engine = AttributionEngine()
    engine.add(0, "dram_shared", 100)
    with pytest.raises(ConservationError):
        engine.breakdown({0: 60})


def test_cells_survive_detach():
    chip = SCCChip(scaled_config())
    engine = AttributionEngine().attach(chip)
    engine.add(2, "barrier_wait", 7)
    assert chip.attribution is engine
    engine.detach()
    assert chip.attribution is None
    assert engine.breakdown({2: 10})[2]["barrier_wait"] == 7


def test_metrics_registry_exposes_attr_counters():
    result = profiled_run("dot", "size")
    counters = result.metrics["counters"]
    assert "attr_cycles" in counters
    assert "attr_mem_ops" in counters
    by_core = {}
    for row in counters["attr_cycles"]:
        by_core.setdefault(row["labels"]["core"], 0)
        by_core[row["labels"]["core"]] += row["value"]
    # the metric omits the compute residual, so it must undershoot
    for core, attributed in by_core.items():
        assert 0 < attributed <= result.per_core_cycles[core]


def test_report_render_and_dict():
    report = profiled_run("dot", "size").attribution
    text = report.render()
    assert "cycle attribution:" in text
    assert "makespan: %d cycles" % report.makespan in text
    payload = report.as_dict()
    json.dumps(payload)  # must be JSON-serializable as-is
    assert payload["makespan"] == report.makespan
    assert payload["critical_path"]["makespan"] == report.makespan
    assert report.dominant_class() in CLASSES


# -- critical path ------------------------------------------------------------


def test_trivial_path_without_sync_events():
    path = analyze_critical_path({}, {0: 123}, None)
    assert path.complete
    assert path.path_length == path.makespan == 123
    assert [seg["kind"] for seg in path.segments] == ["run"]


def test_critical_path_segments_tile_the_makespan():
    report = profiled_run("stream", "size").attribution
    path = report.critical_path
    assert path.segments[0]["start"] == 0
    assert path.segments[-1]["end"] == path.makespan
    for before, after in zip(path.segments, path.segments[1:]):
        assert before["end"] == after["start"]
    rank, core = path.bottleneck()
    assert 0 <= rank < NUM_UES
    assert any(seg["rank"] == rank for seg in path.segments)
    assert path.phases  # every benchmark has at least one barrier


def test_critical_path_respects_vector_clocks():
    """Replaying the recorded sync edges through the race detector's
    vector-clock semantics must show every rank synchronized: the
    path's hops only ever follow real happens-before edges."""
    engine = AttributionEngine()
    profiled_run_result = None
    chip = SCCChip(scaled_config())
    profiled_run_result = run_rcce(
        benchmark_unit("dot", "size"), NUM_UES, chip.config, chip,
        max_steps=100_000_000, attribution=engine)
    clocks = engine.replay_vector_clocks()
    assert sorted(clocks) == list(range(NUM_UES))
    for rank, clock in clocks.items():
        for other in clocks:
            assert clock.time_of(other) > 0
    assert profiled_run_result.attribution.critical_path.complete


# -- supervised runs surface per-attempt audits (satellite) -------------------


CAMPAIGN_KERNEL = """
int RCCE_APP(int argc, char **argv) {
    int me;
    int i;
    int k;
    double sum;
    double *buf;
    RCCE_init(&argc, &argv);
    me = RCCE_ue();
    buf = (double *) RCCE_malloc(256);
    RCCE_barrier(&RCCE_COMM_WORLD);
    sum = 0.0;
    for (k = 0; k < 12; k++) {
        for (i = 0; i < 8; i++) {
            buf[me * 8 + i] = me * 100.0 + k + i;
        }
        for (i = 0; i < 8; i++) {
            sum = sum + buf[me * 8 + i];
        }
        RCCE_barrier(&RCCE_COMM_WORLD);
    }
    printf("ue %d sum %f\\n", me, sum);
    RCCE_finalize();
    return 0;
}
"""


def test_supervisor_reports_per_attempt_audits(tmp_path):
    path = str(tmp_path / "audit.ckpt")
    from repro.recovery import RecoveryOptions
    result = run_rcce_supervised(
        CAMPAIGN_KERNEL, 2,
        faults="core_crash:core=1,at=11000",
        recovery=RecoveryOptions(checkpoint_path=path,
                                 checkpoint_every=1),
        max_restarts=2, race=True, attribution=True)
    assert result.recovery.restarts == 1
    [failure] = result.recovery.failures
    # the dead attempt's race audit rode along instead of being lost
    assert failure["audit"] is not None
    assert failure["audit"].checks > 0
    assert failure["audit"].ok
    serialized = result.recovery.as_dict()
    assert serialized["failures"][0]["audit"]["checks"] > 0
    # the surviving attempt still gets the normal surfaces
    assert result.race is not None and result.race.ok
    report = result.attribution
    for core, classes in report.per_core.items():
        assert sum(classes.values()) == result.per_core_cycles[core]


# -- block builtins (satellite) -----------------------------------------------


BLOCK_KERNEL = """
int main(void) {
    int src[32];
    int dst[32];
    char buf[32];
    int i;
    int total = 0;
    for (i = 0; i < 32; i++) { src[i] = i * 3; }
    memset(dst, 0, 128);
    memcpy(dst, src, 128);
    strcpy(buf, "block builtins");
    for (i = 0; i < 32; i++) { total += dst[i]; }
    printf("%d\\n", total);
    return 0;
}
"""


def test_block_builtins_attribute_block_copy():
    chip = SCCChip(scaled_config())
    result = run_pthread_single_core(BLOCK_KERNEL, chip.config, chip,
                                     attribution=True)
    assert result.stdout() == "%d\n" % sum(i * 3 for i in range(32))
    [classes] = result.attribution.per_core.values()
    # memset(128B) + memcpy(128B) = 32 words each; strcpy copies one
    # stored value priced at 4 words ("block builtins" + NUL)
    assert classes["block_copy"] == 32 + 32 + 4
    [(core, classes)] = result.attribution.per_core.items()
    assert sum(classes.values()) == result.per_core_cycles[core]


def test_block_builtins_are_visible_to_the_race_detector():
    """memcpy/memset/strcpy bypass interp.store, so they must shadow
    their ranges through record_range — a concurrent unsynchronized
    memcpy is a finding, not a blind spot."""
    racy = """
    int shared_buf[32];
    int source[32];
    void *writer(void *arg) {
        memcpy(shared_buf, source, 128);
        return 0;
    }
    int main(void) {
        pthread_t a;
        pthread_t b;
        pthread_create(&a, 0, writer, 0);
        pthread_create(&b, 0, writer, 0);
        pthread_join(a, 0);
        pthread_join(b, 0);
        return 0;
    }
    """
    chip = SCCChip(scaled_config())
    result = run_pthread_single_core(racy, chip.config, chip,
                                     race=True)
    assert result.race.has_findings
    assert any(f.variable == "shared_buf"
               for f in result.race.findings)


# -- heatmap tables (gated on opt-in recording) -------------------------------


def test_chip_report_heatmaps_appear_only_when_recorded():
    from repro.scc.report import chip_report, render_report
    plain_chip = SCCChip(scaled_config())
    run_rcce(benchmark_unit("dot", "size"), NUM_UES,
             plain_chip.config, plain_chip, max_steps=100_000_000)
    plain = chip_report(plain_chip)
    assert plain["mesh_segments"] == {}
    assert plain["mpb_owners"] == {}
    assert "mesh link traffic" not in render_report(plain)

    hot_chip = SCCChip(scaled_config())
    hot_chip.mesh.enable_traffic_recording()
    hot_chip.mpb.enable_owner_tracking()
    run_rcce(benchmark_unit("dot", "size"), NUM_UES,
             hot_chip.config, hot_chip, max_steps=100_000_000)
    hot = chip_report(hot_chip)
    assert hot["mesh_segments"]
    rendered = render_report(hot)
    assert "mesh link traffic by segment" in rendered


def test_mpb_owner_heatmap_counts_message_traffic():
    from repro.scc.report import chip_report, render_report
    chip = SCCChip(scaled_config())
    chip.mpb.enable_owner_tracking()
    run_rcce(CAMPAIGN_KERNEL, 2, chip.config, chip)
    report = chip_report(chip)
    assert report["mpb_owners"]
    assert any(stats["bytes"] > 0
               for stats in report["mpb_owners"].values())
    assert "mpb traffic by owning core" in render_report(report)


# -- surfacing ----------------------------------------------------------------


def test_cli_analyze_bottlenecks(tmp_path):
    """``repro run --bottlenecks`` explains the run it simulated: the
    breakdown, the critical path and the heatmaps print after the
    result line, and the report carries them."""
    from repro.cli import main
    source = tmp_path / "dot.c"
    source.write_text(
        benchmark_source("dot", NUM_UES, **SIZES["dot"]))
    report_path = tmp_path / "report.json"
    out, err = io.StringIO(), io.StringIO()
    code = main(["run", str(source), "--mode", "rcce", "--bottlenecks",
                 "--ues", str(NUM_UES), "--report", str(report_path)],
                out, err)
    assert code == 0
    text = out.getvalue()
    result_line = text.index("rcce    x%d cores:" % NUM_UES)
    assert result_line < text.index("cycle attribution:") \
        < text.index("critical path:") \
        < text.index("mesh link traffic by segment")
    payload = json.loads(report_path.read_text())["attribution"]
    assert payload["critical_path"]["makespan"] == payload["makespan"]
    assert payload["critical_path"]["path_length"] == payload["makespan"]
    # conservation, read back from the file: each core's classes sum
    # to its cycles
    for core, classes in payload["per_core"].items():
        assert sum(classes.values()) == payload["per_core_cycles"][core]
