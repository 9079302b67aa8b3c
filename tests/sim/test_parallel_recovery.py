"""Fault tolerance of the parallel process backend.

Covers the supervision/recovery machinery end to end: host-fault spec
parsing and routing, the deterministic :class:`HostFaultPlan`
schedule, :class:`ShardCheckpoint` verified-replay bookkeeping, and —
the headline contract — byte-identity to the sequential engine after
workers are killed or stalled at arbitrary quantum ticks, including
hypothesis-driven random kill schedules.  The exhausted-restart-budget
degradation ladder (process -> sequential, loudly) is pinned here too.
"""

import pickle

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultInjector,
    FaultSpecError,
    HostFaultPlan,
    parse_fault_spec,
    split_host_rules,
)
from repro.recovery.checkpoint import ShardCheckpoint, SnapshotDivergenceError
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim.parallel import run_rcce_parallel
from repro.sim.runner import run_rcce
from repro.sim.watchdog import (
    HostFaultError,
    ShardRestartsExhaustedError,
    Watchdog,
)

try:
    from repro.rcce.comm import CommDeadlockError
except ImportError:  # pragma: no cover
    CommDeadlockError = None

_TINY_CONFIG = dict(num_cores=4, mesh_columns=2, mesh_rows=1,
                    cores_per_tile=2, num_memory_controllers=1)

# A compute loop long enough to cross several 10k-cycle quanta per
# rank, so at_tick=1..3 all land mid-run, plus every sync-site family
# (barrier, lock, send/recv rendezvous) to exercise replay through
# the full coordinator protocol.
CHAOS_SOURCE = """
#include <stdio.h>
#include <RCCE.h>
int RCCE_APP(int argc, char **argv) {
    RCCE_init(&argc, &argv);
    int me = RCCE_ue();
    int n = RCCE_num_ues();
    int token[1]; int incoming[1]; int i; int acc = 0;
    token[0] = me * 100;
    for (i = 0; i < 200000; i++) { acc += i; }
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
    printf("%d got %d acc %d\\n", me, incoming[0], acc);
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

QUANTUM = 10_000


def _tiny_chip():
    return SCCChip(SCCConfig(**_TINY_CONFIG))


def _signature(result):
    return (result.cycles, dict(result.per_core_cycles),
            result.stdout())


_BASELINE = {}


def _baseline():
    if "sig" not in _BASELINE:
        _BASELINE["sig"] = _signature(run_rcce(CHAOS_SOURCE, 4))
    return _BASELINE["sig"]


def _chaos_run(chaos, shard_restarts=None, heartbeat_timeout=None,
               jobs=2):
    chip = _tiny_chip()
    return run_rcce_parallel(
        CHAOS_SOURCE, 4, chip.config, chip, None, 50_000_000,
        jobs, quantum=QUANTUM, chaos=chaos,
        shard_restarts=shard_restarts,
        heartbeat_timeout=heartbeat_timeout)


# -- spec parsing and routing -------------------------------------------------


class TestHostFaultSpecs:
    def test_host_kinds_parse(self):
        rules = parse_fault_spec(
            "worker_kill:at_tick=2,shard=1;"
            "worker_stall:seconds=0.5;ipc_delay:seconds=0.002,p=0.5")
        kinds = [rule.kind for rule in rules]
        assert kinds == ["worker_kill", "worker_stall", "ipc_delay"]
        assert rules[0].params == {"at_tick": 2, "shard": 1}
        assert rules[1].params == {"seconds": 0.5}
        assert rules[2].p == 0.5

    def test_split_host_rules_partitions_mixed_spec(self):
        rules = parse_fault_spec(
            "dram_flip:p=0.1;worker_kill;mesh_drop:p=0.01;ipc_delay")
        chip_rules, host_rules = split_host_rules(rules)
        assert [r.kind for r in chip_rules] == ["dram_flip",
                                                "mesh_drop"]
        assert [r.kind for r in host_rules] == ["worker_kill",
                                               "ipc_delay"]

    def test_injector_rejects_host_kinds(self):
        with pytest.raises(FaultSpecError) as excinfo:
            FaultInjector(parse_fault_spec("worker_kill"))
        assert "HostFaultPlan" in str(excinfo.value)

    def test_plan_rejects_chip_kinds(self):
        with pytest.raises(FaultSpecError) as excinfo:
            HostFaultPlan("dram_flip:p=0.1")
        assert "FaultInjector" in str(excinfo.value)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_spec("worker_kill:core=3")


# -- the deterministic chaos schedule -----------------------------------------


class TestHostFaultPlan:
    def test_unconditional_kill_fires_once_per_shard(self):
        plan = HostFaultPlan("worker_kill:at_tick=3")
        assert plan.on_tick(0, 1) == []
        assert plan.on_tick(0, 2) == []
        assert plan.on_tick(0, 3) == [("kill", 0, 3)]
        # one-shot: never again on that shard, still pending on others
        assert plan.on_tick(0, 4) == []
        assert plan.on_tick(1, 3) == [("kill", 0, 3)]

    def test_shard_targeting(self):
        plan = HostFaultPlan("worker_stall:shard=1,seconds=2")
        assert plan.on_tick(0, 5) == []
        assert plan.on_tick(1, 1) == [("stall", 0, 1, 2.0)]

    def test_probabilistic_draws_reproduce(self):
        spec = "worker_kill:p=0.3,seed=7"

        def fire_schedule():
            plan = HostFaultPlan(spec)
            return [(shard, tick)
                    for shard in range(4)
                    for tick in range(1, 30)
                    if plan.on_tick(shard, tick)]
        assert fire_schedule() == fire_schedule()

    def test_fired_set_survives_pickle(self):
        plan = HostFaultPlan("worker_kill")
        assert plan.on_tick(0, 1)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.fired == {(0, 0)}
        assert clone.on_tick(0, 2) == []   # delivered: never re-fires
        assert clone.on_tick(1, 1)         # other shards still pending

    def test_ipc_delay_accumulates(self):
        plan = HostFaultPlan("ipc_delay:seconds=0.25")
        assert plan.ipc_delay_seconds(0) == 0.25
        assert HostFaultPlan([]).active is False


# -- verified-replay bookkeeping ----------------------------------------------


class TestShardCheckpoint:
    def test_reply_record_and_replay_cursors(self):
        checkpoint = ShardCheckpoint(0, [0, 2])
        checkpoint.record_reply(0, "barrier", "ok", 1234, [])
        checkpoint.record_reply(0, "send", "ok", None, [(0, 1, [])])
        assert not checkpoint.replaying(0)
        checkpoint.begin_replay()
        assert checkpoint.restores == 1
        assert checkpoint.replaying(0)
        assert checkpoint.next_reply(0, "barrier")[2] == 1234
        assert checkpoint.next_reply(0, "send")[3] == [(0, 1, [])]
        assert not checkpoint.replaying(0)
        assert not checkpoint.replaying(2)

    def test_op_mismatch_is_divergence(self):
        checkpoint = ShardCheckpoint(1, [1])
        checkpoint.record_reply(1, "barrier", "ok", 10, [])
        checkpoint.begin_replay()
        with pytest.raises(SnapshotDivergenceError) as excinfo:
            checkpoint.next_reply(1, "recv")
        assert "asked for 'recv'" in str(excinfo.value)

    def test_delta_suppression_and_hash_verification(self):
        checkpoint = ShardCheckpoint(0, [0])
        assert checkpoint.record_delta(0, 0x8000, 1) is True
        assert checkpoint.record_delta(0, 0x8004, 2) is True
        checkpoint.begin_replay()
        # identical re-production is suppressed and verifies
        assert checkpoint.record_delta(0, 0x8000, 1) is False
        assert checkpoint.record_delta(0, 0x8004, 2) is False
        # work beyond the recorded frontier re-enters the log live
        assert checkpoint.record_delta(0, 0x8008, 3) is True

    def test_divergent_replayed_content_raises(self):
        checkpoint = ShardCheckpoint(0, [0])
        checkpoint.record_delta(0, 0x8000, 1)
        checkpoint.begin_replay()
        with pytest.raises(SnapshotDivergenceError):
            checkpoint.record_delta(0, 0x8000, 999)

    def test_none_rank_stream_tracked_lazily(self):
        checkpoint = ShardCheckpoint(0, [0])
        assert checkpoint.record_delta(None, 0x9000, 5) is True
        summary = checkpoint.as_dict()
        assert summary["delta_counts"] == {None: 1, 0: 0}
        assert list(summary["delta_counts"]) == [None, 0]

    def test_acked_tick_is_monotonic(self):
        checkpoint = ShardCheckpoint(0, [0])
        checkpoint.note_tick(3)
        checkpoint.note_tick(2)
        assert checkpoint.acked_tick == 3


# -- recovery end to end: byte-identity under injected crashes ----------------


class TestKillRecovery:
    @pytest.mark.parametrize("tick", [1, 2, 3])
    def test_kill_any_quantum_byte_identical(self, tick):
        result = _chaos_run("worker_kill:at_tick=%d" % tick)
        assert _signature(result) == _baseline()
        report = result.recovery
        assert report is not None and report.recovered
        assert report.restarts >= 1
        assert all(f["error"] == "WorkerDeathError"
                   for f in report.failures)
        assert {f["shard"] for f in report.failures} <= {0, 1}

    def test_targeted_shard_kill(self):
        result = _chaos_run("worker_kill:at_tick=2,shard=1")
        assert _signature(result) == _baseline()
        report = result.recovery
        assert [f["shard"] for f in report.failures] == [1]
        assert report.failures[0]["restored_from_round"] >= 1
        events = result.stats["parallel"]["chaos_events"]
        assert events == [{"shard": 1, "kind": "worker_kill",
                           "rule": 0, "tick": 2}]
        respawns = result.stats["parallel"]["shard_respawns"]
        assert respawns == {1: 1}

    def test_stall_recovery_byte_identical(self):
        result = _chaos_run("worker_stall:at_tick=1,seconds=30",
                            heartbeat_timeout=1.0)
        assert _signature(result) == _baseline()
        report = result.recovery
        assert report.recovered
        assert all(f["error"] == "WorkerStallError"
                   for f in report.failures)

    def test_short_stall_survives_in_place(self):
        result = _chaos_run("worker_stall:at_tick=1,seconds=0.2",
                            heartbeat_timeout=10.0)
        assert _signature(result) == _baseline()
        assert result.recovery is None
        events = result.stats["parallel"]["chaos_events"]
        assert {e["kind"] for e in events} == {"worker_stall"}

    def test_ipc_delay_does_not_change_results(self):
        result = _chaos_run("ipc_delay:seconds=0.001,p=0.2")
        assert _signature(result) == _baseline()
        assert result.recovery is None

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=5, deadline=None)
    def test_random_kill_schedules_byte_identical(self, seed):
        result = _chaos_run("worker_kill:p=0.5,seed=%d" % seed,
                            shard_restarts=4)
        assert _signature(result) == _baseline()
        if result.recovery is not None:
            assert result.recovery.recovered


# -- restart budget and the degradation ladder --------------------------------


class TestRestartBudget:
    def test_exhausted_budget_raises_typed_error(self):
        with pytest.raises(ShardRestartsExhaustedError) as excinfo:
            _chaos_run("worker_kill:at_tick=1", shard_restarts=0)
        error = excinfo.value
        assert isinstance(error, HostFaultError)
        assert error.shard in (0, 1)
        assert error.report is not None
        assert error.report.failures
        assert "restart budget" in str(error)
        failure = error.report.failures[-1]
        assert failure["restored_from_round"] is None

    def test_run_rcce_degrades_to_sequential(self):
        result = run_rcce(CHAOS_SOURCE, 4, jobs=2, quantum=QUANTUM,
                          chaos="worker_kill:at_tick=1",
                          shard_restarts=0)
        assert _signature(result) == _baseline()
        # the rerun is an ordinary jobs=1 run: no parallel stats block
        assert "parallel" not in result.stats
        messages = [d.format() for d in result.diagnostics
                    if d.severity == "warning"]
        degraded = [m for m in messages
                    if "degraded to sequential (jobs=1)" in m]
        assert len(degraded) == 1
        assert "restart budget" in degraded[0]
        assert any("restart budget exhausted" in m for m in messages)
        assert result.recovery is not None
        assert result.recovery.failures
        assert not result.recovery.recovered

    def test_budget_spent_then_success_reports_recovered(self):
        result = _chaos_run("worker_kill:at_tick=1", shard_restarts=1)
        assert _signature(result) == _baseline()
        assert result.recovery.recovered
        assert result.recovery.max_restarts == 1

    def test_chaos_ignored_at_jobs_1_warns(self):
        result = run_rcce(CHAOS_SOURCE, 4, jobs=1,
                          chaos="worker_kill")
        assert _signature(result) == _baseline()
        warnings = [d.format() for d in result.diagnostics
                    if d.severity == "warning"]
        assert len(warnings) == 1
        assert "chaos plan is ignored" in warnings[0]
        assert "jobs=1" in warnings[0]


# -- watchdog composition (the lifted downgrade) ------------------------------


class TestWatchdogComposition:
    def test_watchdog_no_longer_forces_thread_backend(self):
        result = run_rcce(CHAOS_SOURCE, 4, jobs=2,
                          watchdog=Watchdog())
        assert _signature(result) == _baseline()
        assert result.stats["parallel"]["backend"] == "process"
        assert not any("sequential" in d.format()
                       for d in result.diagnostics)

    def test_watchdog_timeouts_bound_parked_waits(self):
        chip = _tiny_chip()
        with pytest.raises(CommDeadlockError):
            run_rcce_parallel(
                DEADLOCK_SOURCE, 2, chip.config, chip, None,
                50_000_000, 2,
                watchdog=Watchdog(lock_timeout=1.0,
                                  barrier_timeout=1.0))

    def test_deadlock_names_rank_and_sync_site(self):
        chip = _tiny_chip()
        with pytest.raises(CommDeadlockError) as excinfo:
            run_rcce_parallel(DEADLOCK_SOURCE, 2, chip.config, chip,
                              None, 50_000_000, 2,
                              parked_timeout=1.0)
        message = str(excinfo.value)
        assert "rank 0 parked at recv sync site" in message
        assert "rank 1 parked at barrier sync site" in message
