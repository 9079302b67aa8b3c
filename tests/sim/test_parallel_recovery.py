"""Worker failure in the parallel process backend.

The coordinator detects a worker that dies (process sentinel or EOF)
or goes heartbeat-silent while it has runnable ranks, abandons the
parallel attempt, and ``run_rcce`` reruns the program sequentially
(``jobs=1``).  The fail-over suite kills (SIGKILL) or stops (SIGSTOP)
a real worker mid-run and pins the contract: the sequential cycles,
per-core cycles and stdout; exactly one warning naming the shard; no
``stats["parallel"]`` block; and no worker outliving the run.  The
watchdog composition tests pin the coordinator's deadlock detection,
and the host-spec test pins that the former host fault kinds are
unknown to ``--faults``.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.sim.parallel
from repro.faults import FaultInjector, FaultSpecError, parse_fault_spec
from repro.rcce.comm import CommDeadlockError
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim.parallel import run_rcce_parallel
from repro.sim.runner import run_rcce
from repro.sim.watchdog import Watchdog

_TINY_CONFIG = dict(num_cores=4, mesh_columns=2, mesh_rows=1,
                    cores_per_tile=2, num_memory_controllers=1)

# A compute loop long enough that a worker is still mid-run when the
# test signals it, plus every sync-site family (barrier, lock,
# send/recv rendezvous).
RING_SOURCE = """
#include <stdio.h>
#include <RCCE.h>
int RCCE_APP(int argc, char **argv) {
    RCCE_init(&argc, &argv);
    int me = RCCE_ue();
    int n = RCCE_num_ues();
    int token[1]; int incoming[1]; int i; int acc = 0;
    token[0] = me * 100;
    for (i = 0; i < 50000; i++) { acc += i; }
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


def _tiny_chip():
    return SCCChip(SCCConfig(**_TINY_CONFIG))


def _signature(result):
    return (result.cycles, dict(result.per_core_cycles),
            result.stdout())


_BASELINE = {}


def _baseline():
    if "sig" not in _BASELINE:
        _BASELINE["sig"] = _signature(run_rcce(RING_SOURCE, 4))
    return _BASELINE["sig"]


def live_workers():
    return [child for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard")]


def signal_worker(signum, shard=1, timeout=30.0):
    """Start a thread that sends ``signum`` to shard ``shard``'s
    worker as soon as the worker exists.  Returns the thread and a
    list that receives the signalled pid."""
    signalled = []

    def fire():
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for child in live_workers():
                if child.name == "repro-shard%d" % shard and child.pid:
                    os.kill(child.pid, signum)
                    signalled.append(child.pid)
                    return
            time.sleep(0.005)

    thread = threading.Thread(target=fire, daemon=True)
    thread.start()
    return thread, signalled


def _assert_failed_over(result, signalled, cause):
    assert signalled, "no worker was signalled"
    assert _signature(result) == _baseline()
    # the rerun is an ordinary jobs=1 run: no parallel stats block
    assert "parallel" not in result.stats
    warnings = [d.format() for d in result.diagnostics
                if d.severity == "warning"]
    # exactly one: a signal that landed after the parallel attempt
    # finished would leave none
    assert len(warnings) == 1, warnings
    assert "degraded to sequential (jobs=1)" in warnings[0]
    assert "shard 1" in warnings[0]
    assert cause in warnings[0]
    assert live_workers() == []


# -- host fault kinds are gone ------------------------------------------------


class TestHostFaultSpecs:
    def test_injector_rejects_host_kinds(self):
        # worker failure is exercised with real signals, not --faults:
        # the former host kinds are unknown to the chip injector
        for kind in ("worker_kill", "worker_stall", "ipc_delay"):
            with pytest.raises(FaultSpecError) as excinfo:
                FaultInjector(parse_fault_spec(kind))
            assert "unknown fault kind %r" % kind in str(excinfo.value)


# -- fail-over end to end ------------------------------------------------------


class TestFailover:
    def test_killed_worker_fails_over_to_sequential(self):
        thread, signalled = signal_worker(signal.SIGKILL)
        result = run_rcce(RING_SOURCE, 4, jobs=2)
        thread.join(timeout=30.0)
        _assert_failed_over(result, signalled, "WorkerDeathError")

    def test_stopped_worker_fails_over_to_sequential(self, monkeypatch):
        monkeypatch.setattr(repro.sim.parallel,
                            "HEARTBEAT_TIMEOUT_SECONDS", 1.0)
        thread, signalled = signal_worker(signal.SIGSTOP)
        try:
            # a short quantum keeps the running shard's heartbeat well
            # inside the 1 s bound on a loaded host
            result = run_rcce(RING_SOURCE, 4, jobs=2, quantum=10_000)
        finally:
            thread.join(timeout=30.0)
            for pid in signalled:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        _assert_failed_over(result, signalled, "WorkerStallError")


# -- watchdog composition (the lifted downgrade) ------------------------------


class TestWatchdogComposition:
    def test_watchdog_no_longer_forces_thread_backend(self):
        result = run_rcce(RING_SOURCE, 4, jobs=2,
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
