"""Recovery-layer tests (repro.recovery).

Covers the four pieces end to end: ECC scrubbing of injected flips,
sequence-numbered send retry over message drops, barrier-aligned
checkpoint/restore (round-trip byte-identity, snapshot rejection,
divergence detection), and the supervised restart loop — plus the
contract that everything stays byte-identical when recovery is off.
"""

import json
import os
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.frontend import parse_program
from repro.faults import CoreCrashFault
from repro.rcce.comm import Channel
from repro.rcce.sync import Monitor
from repro.recovery import (
    ECC_SCRUB_CYCLES,
    MeshRetryExhaustedError,
    RecoveryOptions,
    RetryPolicy,
    SnapshotDivergenceError,
    SnapshotError,
    SnapshotMismatchError,
    UncorrectableECCError,
    load_snapshot,
)
from repro.recovery.ecc import syndrome_weight
from repro.scc.config import Table61Config
from repro.sim.runner import run_rcce, run_rcce_supervised

# Race-free by construction: every UE reads/writes only its own slice
# of the symmetric MPB allocation, so the memory image at any barrier
# is deterministic and checkpoints can be verified bit-for-bit.
MPB_KERNEL = """
int RCCE_APP(int argc, char **argv) {
    int me;
    int i;
    int k;
    double sum;
    double *buf;
    RCCE_init(&argc, &argv);
    me = RCCE_ue();
    buf = (double *) RCCE_malloc(256);
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

SEND_KERNEL = """
int RCCE_APP(int argc, char **argv) {
    int me;
    int i;
    double *buf;
    RCCE_init(&argc, &argv);
    me = RCCE_ue();
    buf = (double *) RCCE_shmalloc(64);
    if (me == 0) {
        for (i = 0; i < 8; i++) { buf[i] = 3.5 + i; }
        for (i = 0; i < 10; i++) {
            RCCE_send((char *) buf, 64, 1);
        }
    } else {
        for (i = 0; i < 10; i++) {
            RCCE_recv((char *) buf, 64, 0);
        }
        printf("ue 1 got %f\\n", buf[7]);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"""

# Communication completes before the crash window, so no peer is
# parked in a rendezvous when the injected crash fires.
CAMPAIGN_KERNEL = """
int RCCE_APP(int argc, char **argv) {
    int me;
    int i;
    int k;
    double sum;
    double *buf;
    double *msg;
    RCCE_init(&argc, &argv);
    me = RCCE_ue();
    buf = (double *) RCCE_malloc(256);
    msg = (double *) RCCE_shmalloc(64);
    if (me == 0) {
        for (i = 0; i < 8; i++) { msg[i] = 1.25 * i; }
        RCCE_send((char *) msg, 64, 1);
    }
    if (me == 1) {
        RCCE_recv((char *) msg, 64, 0);
    }
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
    printf("ue %d sum %f msg %f\\n", me, sum, msg[7]);
    RCCE_finalize();
    return 0;
}
"""


# One compute phase, then the first barrier: a crash in that phase
# comes before the run's first checkpoint.
LATE_BARRIER_KERNEL = """
int RCCE_APP(int argc, char **argv) {
    int i;
    double s;
    RCCE_init(&argc, &argv);
    s = 0.0;
    for (i = 0; i < 400; i++) { s = s + i; }
    RCCE_barrier(&RCCE_COMM_WORLD);
    printf("ue %d s %f\\n", RCCE_ue(), s);
    RCCE_finalize();
    return 0;
}
"""


def counter_total(result, name):
    return sum(row["value"]
               for row in result.metrics.get("counters", {})
               .get(name, []))


# ---------------------------------------------------------------------------
# ECC scrubbing


class TestSyndromeWeight:
    def test_single_bit_int(self):
        assert syndrome_weight(5, 4) == 1

    def test_multi_bit_int(self):
        assert syndrome_weight(0b111, 0) == 3

    def test_float_images(self):
        assert syndrome_weight(1.5, 1.5) == 0
        assert syndrome_weight(1.5, -1.5) == 1  # sign bit

    def test_non_numeric_is_untagged(self):
        assert syndrome_weight("x", 4) is None
        assert syndrome_weight(True, 4) is None


class TestECC:
    def test_single_bit_flips_corrected(self):
        clean = run_rcce(MPB_KERNEL, 2)
        prot = run_rcce(MPB_KERNEL, 2,
                        faults="mpb_flip:p=0.05,seed=11",
                        recovery=RecoveryOptions(ecc=True))
        assert prot.stdout() == clean.stdout()
        assert counter_total(prot, "ecc_corrected") > 0
        assert counter_total(prot, "scc_mpb_ecc_corrected") > 0
        # each correction pays the scrub penalty
        assert prot.cycles >= clean.cycles + ECC_SCRUB_CYCLES

    def test_unprotected_same_seed_corrupts(self):
        clean = run_rcce(MPB_KERNEL, 2)
        unprot = run_rcce(MPB_KERNEL, 2,
                          faults="mpb_flip:p=0.05,seed=11")
        assert unprot.stdout() != clean.stdout()

    def test_unprotected_run_stays_deterministic(self):
        # the recovery layer must not perturb unprotected fault runs
        first = run_rcce(MPB_KERNEL, 2,
                         faults="mpb_flip:p=0.05,seed=11")
        second = run_rcce(MPB_KERNEL, 2,
                          faults="mpb_flip:p=0.05,seed=11")
        assert first.cycles == second.cycles
        assert first.stdout() == second.stdout()

    def test_protected_run_is_deterministic(self):
        runs = [run_rcce(MPB_KERNEL, 2,
                         faults="mpb_flip:p=0.05,seed=11",
                         recovery=RecoveryOptions(ecc=True))
                for _ in range(2)]
        assert runs[0].cycles == runs[1].cycles
        assert runs[0].stdout() == runs[1].stdout()
        assert counter_total(runs[0], "ecc_corrected") == \
            counter_total(runs[1], "ecc_corrected")

    def test_multi_bit_flip_uncorrectable(self):
        with pytest.raises(UncorrectableECCError):
            run_rcce(MPB_KERNEL, 2,
                     faults="mpb_flip:p=0.05,seed=11,bits=2",
                     recovery=RecoveryOptions(ecc=True))

    def test_multi_bit_flip_without_ecc_is_silent(self):
        # no scrubber: a double flip corrupts data, exactly like PR 3
        result = run_rcce(MPB_KERNEL, 2,
                          faults="mpb_flip:p=0.05,seed=11,bits=2")
        assert counter_total(result, "fault_injections") > 0


# ---------------------------------------------------------------------------
# Send retry


class TestRetryPolicy:
    def test_exponential_backoff_capped(self):
        policy = RetryPolicy(max_attempts=6, base_cycles=64, factor=2,
                             max_cycles=300)
        assert [policy.backoff_cycles(k) for k in range(1, 5)] == \
            [64, 128, 256, 300]

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestSendRetry:
    def test_drops_absorbed(self):
        clean = run_rcce(SEND_KERNEL, 2)
        ret = run_rcce(SEND_KERNEL, 2,
                       faults="mesh_drop:p=0.4,seed=5",
                       recovery=RecoveryOptions(retry=True))
        assert ret.stdout() == clean.stdout()
        assert counter_total(ret, "rcce_send_retries") > 0
        assert counter_total(ret, "scc_mesh_retried_messages") > 0
        # retransmissions are not free
        assert ret.cycles > clean.cycles

    def test_retry_is_deterministic(self):
        runs = [run_rcce(SEND_KERNEL, 2,
                         faults="mesh_drop:p=0.4,seed=5",
                         recovery=RecoveryOptions(retry=True))
                for _ in range(2)]
        assert runs[0].cycles == runs[1].cycles
        assert counter_total(runs[0], "rcce_send_retries") == \
            counter_total(runs[1], "rcce_send_retries")

    def test_exhaustion_raises(self):
        with pytest.raises(MeshRetryExhaustedError) as info:
            run_rcce(SEND_KERNEL, 2,
                     faults="mesh_drop:p=1.0,seed=5",
                     recovery=RecoveryOptions(retry=True))
        assert info.value.attempts == RetryPolicy().max_attempts

    def test_channel_deduplicates_sequence_numbers(self):
        channel = Channel(Monitor(2), 0, 1)
        done = []

        def sender():
            channel.send([1.0], 100, seq=0)
            channel.send([2.0], 200, seq=0)   # duplicate delivery
            done.append(channel.send([3.0], 300, seq=1))

        thread = threading.Thread(target=sender)
        thread.start()
        values, _ = channel.recv(0, 10)
        assert values == [1.0]
        values, _ = channel.recv(0, 10)
        # the seq-0 retransmission was acked but not re-delivered
        assert values == [3.0]
        thread.join()
        assert done


# ---------------------------------------------------------------------------
# Checkpoint / restore


def _checkpointed(path, every=2, **kwargs):
    return run_rcce(MPB_KERNEL, 2,
                    recovery=RecoveryOptions(checkpoint_path=path,
                                             checkpoint_every=every),
                    **kwargs)


class TestCheckpointRestore:
    def test_checkpointing_run_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        plain = run_rcce(MPB_KERNEL, 2)
        ck = _checkpointed(path)
        assert ck.cycles == plain.cycles
        assert ck.per_core_cycles == plain.per_core_cycles
        assert ck.stdout() == plain.stdout()
        assert counter_total(ck, "checkpoints_captured") > 0

    def test_restore_round_trip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        plain = run_rcce(MPB_KERNEL, 2)
        _checkpointed(path)
        restored = run_rcce(MPB_KERNEL, 2,
                            recovery=RecoveryOptions(restore=path))
        assert restored.cycles == plain.cycles
        assert restored.per_core_cycles == plain.per_core_cycles
        assert restored.stdout() == plain.stdout()

    def test_snapshot_is_versioned_and_loadable(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        _checkpointed(path)
        snapshot = load_snapshot(path, config=Table61Config())
        assert snapshot.round > 0
        assert snapshot.num_ues == 2

    def test_legacy_engine_header_still_loads(self, tmp_path):
        # snapshots from when runs chose an engine carry the field
        src = str(tmp_path / "run.ckpt")
        _checkpointed(src)
        with open(src) as handle:
            doc = json.load(handle)
        assert "engine" not in doc
        doc["engine"] = "tree"
        legacy = tmp_path / "legacy.ckpt"
        legacy.write_text(json.dumps(doc))
        restored = run_rcce(MPB_KERNEL, 2,
                            recovery=RecoveryOptions(restore=str(legacy)))
        assert restored.stdout() == run_rcce(MPB_KERNEL, 2).stdout()

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not json at all")
        with pytest.raises(SnapshotError):
            load_snapshot(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        src = str(tmp_path / "run.ckpt")
        _checkpointed(src)
        with open(src) as handle:
            doc = json.load(handle)
        doc["version"] = 99
        bad = tmp_path / "v99.ckpt"
        bad.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(str(bad))

    def test_truncated_memory_rejected(self, tmp_path):
        src = str(tmp_path / "run.ckpt")
        _checkpointed(src)
        with open(src) as handle:
            doc = json.load(handle)
        doc["memory"] = doc["memory"][:-1]
        bad = tmp_path / "trunc.ckpt"
        bad.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="digest"):
            load_snapshot(str(bad))

    def test_config_mismatch_rejected(self, tmp_path):
        src = str(tmp_path / "run.ckpt")
        _checkpointed(src)
        with open(src) as handle:
            doc = json.load(handle)
        key = sorted(doc["config"])[0]
        doc["config"][key] = -12345
        bad = tmp_path / "cfg.ckpt"
        bad.write_text(json.dumps(doc))
        with pytest.raises(SnapshotMismatchError):
            load_snapshot(str(bad), config=Table61Config())

    def test_wrong_source_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        _checkpointed(path)
        with pytest.raises(SnapshotMismatchError):
            run_rcce(SEND_KERNEL, 2,
                     recovery=RecoveryOptions(restore=path))

    def test_wrong_topology_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        _checkpointed(path)
        with pytest.raises(SnapshotMismatchError):
            run_rcce(MPB_KERNEL, 4,
                     recovery=RecoveryOptions(restore=path))

    def test_divergent_replay_detected(self, tmp_path):
        # snapshot a faulted+scrubbed run, then replay without faults:
        # the replayed clocks miss the scrub penalties and the
        # verifier must refuse to certify the restore
        path = str(tmp_path / "run.ckpt")
        run_rcce(MPB_KERNEL, 2,
                 faults="mpb_flip:p=0.05,seed=11",
                 recovery=RecoveryOptions(ecc=True,
                                          checkpoint_path=path,
                                          checkpoint_every=2))
        with pytest.raises(SnapshotDivergenceError):
            run_rcce(MPB_KERNEL, 2,
                     recovery=RecoveryOptions(restore=path))


# ---------------------------------------------------------------------------
# Supervised re-runs


class TestSupervisor:
    SPEC = ("mpb_flip:p=0.02,seed=3;mesh_drop:p=0.3,seed=4;"
            "core_crash:core=1,at=11000")

    def test_requires_checkpoint_path(self):
        with pytest.raises(ValueError):
            run_rcce_supervised(CAMPAIGN_KERNEL, 2,
                                recovery=RecoveryOptions(),
                                max_restarts=1)

    def test_campaign_recovers(self, tmp_path):
        clean = run_rcce(CAMPAIGN_KERNEL, 2)
        path = str(tmp_path / "campaign.ckpt")
        result = run_rcce_supervised(
            CAMPAIGN_KERNEL, 2, faults=self.SPEC,
            recovery=RecoveryOptions(ecc=True, retry=True,
                                     checkpoint_path=path,
                                     checkpoint_every=1),
            max_restarts=2)
        # correct output after ECC correction, send retry, and exactly
        # one checkpoint restart
        assert result.stdout() == clean.stdout()
        assert result.recovery.restarts == 1
        assert result.recovery.recovered
        assert result.recovery.failures[0]["error"] == "CoreCrashFault"
        assert result.recovery.failures[0]["restored_from_round"] \
            is not None
        assert counter_total(result, "recovery_restarts") == 1
        stages = [d.stage for d in result.diagnostics]
        assert "recovery" in stages

    def test_injections_count_the_final_attempt(self, tmp_path):
        """The supervisor zeroes the injection counts with the fault
        streams between attempts, so the result publishes the final
        attempt's injections alone: the replayed delays, without the
        crash that killed the first attempt."""
        delay = "mesh_delay:p=0.2,seed=3"
        recovery = RecoveryOptions(
            checkpoint_path=str(tmp_path / "count.ckpt"),
            checkpoint_every=1)
        result = run_rcce_supervised(
            CAMPAIGN_KERNEL, 2,
            faults=delay + ";core_crash:core=1,at=11000",
            recovery=recovery, max_restarts=1)
        assert result.recovery.restarts == 1
        single = run_rcce(CAMPAIGN_KERNEL, 2, faults=delay)
        injections = result.metrics["counters"]["fault_injections"]
        assert injections == single.metrics["counters"]["fault_injections"]
        assert {row["labels"]["kind"] for row in injections} == \
            {"mesh_delay"}

    def test_same_spec_unsupervised_fails_deterministically(self):
        outcomes = []
        for _ in range(2):
            with pytest.raises(CoreCrashFault) as info:
                run_rcce(CAMPAIGN_KERNEL, 2,
                         faults=self.SPEC)
            outcomes.append(str(info.value))
        assert outcomes[0] == outcomes[1]

    def test_restarts_exhausted_reraises_with_report(self, tmp_path):
        path = str(tmp_path / "exhaust.ckpt")
        spec = ("core_crash:core=1,at=11000;"
                "core_crash:core=0,at=13000")
        with pytest.raises(CoreCrashFault) as info:
            run_rcce_supervised(
                CAMPAIGN_KERNEL, 2, faults=spec,
                recovery=RecoveryOptions(checkpoint_path=path,
                                         checkpoint_every=1),
                max_restarts=1)
        report = info.value.recovery_report
        assert report.max_restarts == 1
        assert len(report.failures) == 1
        assert not report.recovered

    def test_stale_checkpoint_is_not_restored(self, tmp_path):
        """A snapshot an earlier run of another program left at the
        checkpoint path is not this run's: a crash before this run's
        first checkpoint restarts from the beginning.  (A pre-parsed
        unit, as ``repro run`` passes, has no source hash to reject
        the stale file by.)"""
        path = str(tmp_path / "repro.ckpt")
        _checkpointed(path)
        clean = run_rcce(LATE_BARRIER_KERNEL, 2)
        result = run_rcce_supervised(
            parse_program(LATE_BARRIER_KERNEL), 2,
            faults="core_crash:core=1,at=100",
            recovery=RecoveryOptions(checkpoint_path=path,
                                     checkpoint_every=1),
            max_restarts=1)
        assert result.stdout() == clean.stdout()
        assert result.recovery.restarts == 1
        assert result.recovery.failures[0]["restored_from_round"] is None
        assert any("restarted from the beginning" in d.message
                   for d in result.diagnostics)

    def test_clean_supervised_run_matches_plain(self, tmp_path):
        path = str(tmp_path / "clean.ckpt")
        plain = run_rcce(CAMPAIGN_KERNEL, 2)
        result = run_rcce_supervised(
            CAMPAIGN_KERNEL, 2,
            recovery=RecoveryOptions(checkpoint_path=path,
                                     checkpoint_every=1),
            max_restarts=2)
        assert result.cycles == plain.cycles
        assert result.stdout() == plain.stdout()
        assert result.recovery.restarts == 0
        assert not result.recovery.recovered


# ---------------------------------------------------------------------------
# Engine downgrade: there is none


class TestEngineDowngrade:
    """Fault injection and checkpointing run on the one engine, so
    neither reports a change of engine: their diagnostics stay as
    empty as a clean run's."""

    def test_fault_run_stays_quiet(self):
        result = run_rcce(MPB_KERNEL, 2,
                          faults="mpb_flip:p=0.0001,seed=1")
        assert result.diagnostics == []

    def test_checkpoint_run_stays_quiet(self, tmp_path):
        path = str(tmp_path / "quiet.ckpt")
        result = run_rcce(
            MPB_KERNEL, 2,
            recovery=RecoveryOptions(checkpoint_path=path))
        assert result.diagnostics == []
        assert load_snapshot(path).num_ues == 2

    def test_clean_compiled_run_stays_quiet(self):
        result = run_rcce(MPB_KERNEL, 2)
        assert result.diagnostics == []


# ---------------------------------------------------------------------------
# Property: checkpoint -> restore round-trips on generated kernels


_KERNEL_TEMPLATE = """
int RCCE_APP(int argc, char **argv) {
    int me;
    int i;
    int k;
    double acc;
    double *buf;
    RCCE_init(&argc, &argv);
    me = RCCE_ue();
    buf = (double *) RCCE_malloc(128);
    acc = %d;
    for (k = 0; k < %d; k++) {
        for (i = 0; i < 4; i++) {
            buf[me * 4 + i] = acc + %s;
            acc = acc + buf[me * 4 + i] * 0.125 + me;
        }
        RCCE_barrier(&RCCE_COMM_WORLD);
    }
    printf("ue %%d acc %%f\\n", me, acc);
    RCCE_finalize();
    return 0;
}
"""


@given(seed_value=st.integers(0, 1000),
       rounds=st.integers(3, 8),
       terms=st.lists(st.sampled_from(
           ["i", "k", "me", "i * k", "k * 3", "i + me"]),
           min_size=1, max_size=3))
@settings(max_examples=8, deadline=None)
def test_generated_kernel_round_trip(seed_value, rounds, terms):
    source = _KERNEL_TEMPLATE % (seed_value, rounds,
                                 " + ".join(terms))
    plain = run_rcce(source, 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gen.ckpt")
        ck = run_rcce(source, 2,
                      recovery=RecoveryOptions(checkpoint_path=path,
                                               checkpoint_every=2))
        assert ck.cycles == plain.cycles
        assert ck.stdout() == plain.stdout()
        restored = run_rcce(source, 2,
                            recovery=RecoveryOptions(restore=path))
        assert restored.cycles == plain.cycles
        assert restored.per_core_cycles == plain.per_core_cycles
        assert restored.stdout() == plain.stdout()
