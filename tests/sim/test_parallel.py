"""Tests for the parallel host backend (``repro.sim.parallel``).

The differential suite (test_engine_differential.py) proves the
byte-identity contract over the benchmark corpus; this file covers the
machinery — shard planning, dirty-write logging, counter merging,
backend selection and downgrades, error propagation across the process
boundary, and deadlock detection of parked shards.
"""

import os

import pytest

from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim.parallel import (
    ShardMemory,
    ShardPlan,
    parallel_stats,
    run_rcce_parallel,
)
from repro.sim.runner import run_pthread_single_core, run_rcce
from repro.sim.watchdog import SimulationTimeout

try:
    from repro.rcce.comm import CommDeadlockError
except ImportError:  # pragma: no cover
    CommDeadlockError = None

_TINY_CONFIG = dict(num_cores=4, mesh_columns=2, mesh_rows=1,
                    cores_per_tile=2, num_memory_controllers=1)

SHARED_BASE = 0x8000_0000


def _tiny_chip():
    return SCCChip(SCCConfig(**_TINY_CONFIG))


RING_SOURCE = """
#include <stdio.h>
#include <RCCE.h>
int RCCE_APP(int argc, char **argv) {
    RCCE_init(&argc, &argv);
    int me = RCCE_ue();
    int n = RCCE_num_ues();
    int token[1];
    int incoming[1];
    token[0] = me * 100;
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_acquire_lock(me);
    RCCE_release_lock(me);
    if (me % 2 == 0) {
        RCCE_send(token, sizeof(int), (me + 1) % n);
        RCCE_recv(incoming, sizeof(int), (me + n - 1) % n);
    } else {
        RCCE_recv(incoming, sizeof(int), (me + n - 1) % n);
        RCCE_send(token, sizeof(int), (me + 1) % n);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    printf("%d got %d\\n", me, incoming[0]);
    RCCE_finalize();
    return 0;
}
"""

DEADLOCK_SOURCE = """
#include <RCCE.h>
int RCCE_APP(int argc, char **argv) {
    int buf[1];
    RCCE_init(&argc, &argv);
    if (RCCE_ue() == 0) {
        RCCE_recv(buf, sizeof(int), 1);  /* nobody ever sends */
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"""


def _signature(result):
    return (result.cycles, dict(result.per_core_cycles),
            result.stdout())


def _assert_one_downgrade(result, reason):
    """Exactly one warning: the sequential downgrade, naming why."""
    warnings = [d.format() for d in result.diagnostics
                if d.severity == "warning"]
    assert len(warnings) == 1, warnings
    assert reason in warnings[0]
    assert "running sequentially (jobs=1)" in warnings[0]


# -- shard planning -----------------------------------------------------------


class TestShardPlan:
    def test_round_robin(self):
        plan = ShardPlan(8, 3)
        assert plan.shard_of == [0, 1, 2, 0, 1, 2, 0, 1]
        assert plan.ranks_of(0) == [0, 3, 6]
        assert plan.ranks_of(2) == [2, 5]

    def test_jobs_clamped_to_ues(self):
        plan = ShardPlan(4, 16)
        assert plan.jobs == 4
        assert all(plan.ranks_of(shard) for shard in range(4))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ShardPlan(4, 0)
        with pytest.raises(ValueError):
            ShardPlan(0, 2)


# -- dirty-write logging ------------------------------------------------------


class TestShardMemory:
    def test_shared_stores_logged_private_skipped(self):
        memory = ShardMemory()
        memory.store(0x100, 7)                 # private window
        memory.store(SHARED_BASE + 8, 9)       # shared DRAM
        assert memory.drain_dirty() == [(SHARED_BASE + 8, 9)]

    def test_log_everything_flips_the_filter(self):
        memory = ShardMemory()
        memory.log_everything()
        memory.store(0x100, 7)
        assert memory.drain_dirty() == [(0x100, 7)]

    def test_drain_is_fifo_and_empties(self):
        memory = ShardMemory()
        for index in range(4):
            memory.store(SHARED_BASE + index, index)
        entries = memory.drain_dirty()
        assert entries == [(SHARED_BASE + i, i) for i in range(4)]
        assert memory.drain_dirty() == []

    def test_memset_and_memcpy_log_shared(self):
        memory = ShardMemory()
        memory.memset(SHARED_BASE, 5, 3, 4)
        assert len(memory.drain_dirty()) == 3
        memory.store(SHARED_BASE + 100, 42)
        memory.drain_dirty()
        memory.memcpy(SHARED_BASE + 200, SHARED_BASE + 100, 1, 4)
        assert memory.drain_dirty() == [(SHARED_BASE + 200, 42)]

    def test_apply_remote_does_not_relog(self):
        memory = ShardMemory()
        memory.apply_remote([(SHARED_BASE + 4, 11)])
        assert memory.load(SHARED_BASE + 4) == 11
        assert memory.drain_dirty() == []


# -- counter merging ----------------------------------------------------------


def test_counter_state_round_trips_through_merge():
    """A replica's counters folded into a fresh chip must reproduce the
    original accumulators (the parent chip never simulates anything
    itself under the process backend)."""
    source_chip = _tiny_chip()
    run_rcce(RING_SOURCE, 4, source_chip.config, source_chip)
    shipped = source_chip.counter_state()

    target = _tiny_chip()
    target.merge_counter_state(shipped)
    assert target.counter_state() == shipped


# -- backend selection and downgrades ----------------------------------------


class TestBackendSelection:
    def test_process_backend_matches_sequential(self):
        baseline = _signature(run_rcce(RING_SOURCE, 4))
        chip = _tiny_chip()
        result = run_rcce(RING_SOURCE, 4, chip.config, chip, jobs=2)
        assert _signature(result) == baseline
        parallel = result.stats["parallel"]
        assert parallel["backend"] == "process"
        assert parallel["jobs"] == 2
        assert parallel["reconciliations"] > 0
        gauges = result.metrics["gauges"]
        assert gauges["parallel_jobs"][0]["value"] == 2
        counters = result.metrics["counters"]
        shards = {sample["labels"]["shard"]
                  for sample in counters["parallel_reconciliations"]}
        assert shards == {0, 1}

    def test_jobs_clamp_reported_in_stats(self):
        result = run_rcce(RING_SOURCE, 4, jobs=16)
        assert result.stats["parallel"]["jobs"] == 4

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            run_rcce(RING_SOURCE, 4, jobs=0)
        with pytest.raises(ValueError):
            run_pthread_single_core("int main(void) { return 0; }",
                                    jobs=-1)

    def test_preparsed_unit_runs_sequentially(self):
        from repro.cfront.frontend import parse_program
        unit = parse_program(RING_SOURCE)
        result = run_rcce(unit, 4, jobs=2)
        assert _signature(result) == _signature(run_rcce(unit, 4))
        assert "parallel" not in result.stats
        _assert_one_downgrade(result, "a pre-parsed program unit")

    def test_race_runs_sequentially(self):
        result = run_rcce(RING_SOURCE, 4, jobs=2, race=True)
        baseline = run_rcce(RING_SOURCE, 4, race=True)
        assert _signature(result) == _signature(baseline)
        assert "parallel" not in result.stats
        assert result.race is not None
        _assert_one_downgrade(result, "race detection")

    def test_pthread_jobs_warns_and_runs_sequentially(self):
        source = "int main(void) { return 0; }"
        baseline = run_pthread_single_core(source)
        result = run_pthread_single_core(source, jobs=4)
        assert result.cycles == baseline.cycles
        assert any("single core" in diagnostic.format()
                   for diagnostic in result.diagnostics)


# -- stats shape --------------------------------------------------------------


def test_parallel_stats_shape():
    from repro.rcce.sync import SkewBarrier
    skew = SkewBarrier(2, 1234)
    skew.note_quantum(0, 500)
    skew.note_sync(1, 700)
    stats = parallel_stats(skew, 2, start_method="fork")
    assert stats["backend"] == "process"
    assert stats["jobs"] == 2
    assert stats["quantum"] == 1234
    assert stats["reconciliations"] == 2
    assert stats["start_method"] == "fork"


# -- error propagation across the process boundary ---------------------------


class TestErrorPropagation:
    def test_step_limit_becomes_simulation_timeout(self):
        source = """
        int RCCE_APP(int argc, char **argv) {
            int i;
            RCCE_init(&argc, &argv);
            for (i = 0; i >= 0; i++) { }
            return 0;
        }
        """
        with pytest.raises(SimulationTimeout) as excinfo:
            run_rcce(source, 4, jobs=2, max_steps=5_000)
        # the worker ships its per-core dumps home with the error
        assert excinfo.value.dumps

    def test_interpreter_error_crosses_the_boundary(self):
        from repro.sim.interpreter import InterpreterError
        source = """
        int RCCE_APP(int argc, char **argv) {
            int *p;
            RCCE_init(&argc, &argv);
            p = (int *)0;
            return undefined_function(p[0]);
        }
        """
        with pytest.raises(InterpreterError):
            run_rcce(source, 4, jobs=2)

    def test_parked_shards_raise_comm_deadlock(self):
        chip = _tiny_chip()
        with pytest.raises(CommDeadlockError) as excinfo:
            run_rcce_parallel(DEADLOCK_SOURCE, 2, chip.config, chip,
                              None, 50_000_000, jobs=2,
                              parked_timeout=1.0)
        message = str(excinfo.value)
        assert "parked" in message
        assert "rank 0" in message


# -- spawn start method -------------------------------------------------------


@pytest.mark.skipif(os.name == "nt", reason="posix-only repo")
def test_spawn_start_method_identical():
    """Workers carry no inherited state: the spawn method (a cold
    interpreter per worker) produces the same bytes as fork."""
    baseline = _signature(run_rcce(RING_SOURCE, 4))
    chip = _tiny_chip()
    result = run_rcce_parallel(RING_SOURCE, 4, chip.config, chip,
                               None, 50_000_000, jobs=2,
                               start_method="spawn")
    assert _signature(result) == baseline
    assert result.stats["parallel"]["start_method"] == "spawn"
