"""Watchdog tests: every kernel here used to hang the host process —
now each terminates quickly with a structured error.  All timeouts are
small so the whole module stays wall-clock bounded.
"""

import time

import pytest

from repro.sim.runner import run_rcce
from repro.sim.watchdog import (
    BarrierTimeoutError,
    DeadlockError,
    LockTimeoutError,
    SimulationTimeout,
    Watchdog,
    WatchdogError,
)

CROSSED_LOCKS = """
int RCCE_APP(int argc, char **argv) {
    int myID;
    RCCE_init(&argc, &argv);
    myID = RCCE_ue();
    if (myID == 0) {
        RCCE_acquire_lock(0);
        RCCE_barrier(&RCCE_COMM_WORLD);
        RCCE_acquire_lock(1);
        RCCE_release_lock(1);
        RCCE_release_lock(0);
    } else {
        RCCE_acquire_lock(1);
        RCCE_barrier(&RCCE_COMM_WORLD);
        RCCE_acquire_lock(0);
        RCCE_release_lock(0);
        RCCE_release_lock(1);
    }
    RCCE_finalize();
    return 0;
}
"""

NEVER_RELEASED = """
int RCCE_APP(int argc, char **argv) {
    int myID;
    RCCE_init(&argc, &argv);
    myID = RCCE_ue();
    if (myID == 0) {
        RCCE_acquire_lock(3);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_acquire_lock(3);
    RCCE_release_lock(3);
    RCCE_finalize();
    return 0;
}
"""

# rank 1 dies on an undefined function while the others reach the
# barrier: without abort propagation they would wait forever
DEAD_PEER = """
int RCCE_APP(int argc, char **argv) {
    int myID;
    RCCE_init(&argc, &argv);
    myID = RCCE_ue();
    if (myID == 1) {
        no_such_function(myID);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"""

# rank 1 dies while rank 0 waits in RCCE_recv for its message: the
# abort must wake the recv long before its 10 s dead-peer bound
RECV_DEAD_PEER = """
int RCCE_APP(int argc, char **argv) {
    int i;
    int buf[1];
    RCCE_init(&argc, &argv);
    if (RCCE_ue() == 0) {
        RCCE_recv(buf, sizeof(int), 1);
    } else {
        for (i = 0; i < 20000; i++) { }
        no_such_function(i);
    }
    RCCE_finalize();
    return 0;
}
"""

SPIN_FOREVER = """
int RCCE_APP(int argc, char **argv) {
    int i;
    RCCE_init(&argc, &argv);
    for (i = 0; i >= 0; i++) { }
    RCCE_finalize();
    return 0;
}
"""

HEALTHY = """
int RCCE_APP(int argc, char **argv) {
    int myID;
    int i;
    double sum;
    RCCE_init(&argc, &argv);
    myID = RCCE_ue();
    RCCE_acquire_lock(0);
    sum = 0.0;
    for (i = 0; i < 50; i++) { sum = sum + i; }
    RCCE_release_lock(0);
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"""


def fast_watchdog(**overrides):
    kwargs = {"lock_timeout": 5.0, "barrier_timeout": 10.0,
              "spin_slice": 0.02}
    kwargs.update(overrides)
    return Watchdog(**kwargs)


class TestDeadlockDetection:
    def test_crossed_locks_raise_deadlock(self):
        start = time.monotonic()
        with pytest.raises(DeadlockError) as info:
            run_rcce(CROSSED_LOCKS, 2, watchdog=fast_watchdog())
        # the wait-for cycle names both edges
        assert len(info.value.cycle) == 2
        assert {edge[1] for edge in info.value.cycle} == {0, 1}
        # detection must come from the cycle check, not the timeout
        assert time.monotonic() - start < 4.0

    def test_never_released_lock_times_out(self):
        with pytest.raises(LockTimeoutError) as info:
            run_rcce(NEVER_RELEASED, 2,
                     watchdog=fast_watchdog(lock_timeout=1.0))
        assert "register 3" in str(info.value)

    def test_deadlock_counts(self):
        watchdog = fast_watchdog()
        with pytest.raises(DeadlockError):
            run_rcce(CROSSED_LOCKS, 2, watchdog=watchdog)
        assert watchdog.deadlocks_detected == 1


class TestDeadPeer:
    def test_peer_failure_propagates_original_error(self):
        from repro.sim.interpreter import InterpreterError
        start = time.monotonic()
        with pytest.raises(InterpreterError) as info:
            run_rcce(DEAD_PEER, 3, watchdog=fast_watchdog())
        # the *originating* error surfaces, not a barrier timeout
        assert "no_such_function" in str(info.value)
        assert time.monotonic() - start < 5.0

    def test_peer_failure_wakes_a_recv(self):
        from repro.sim.interpreter import InterpreterError
        start = time.monotonic()
        with pytest.raises(InterpreterError) as info:
            run_rcce(RECV_DEAD_PEER, 2)
        assert "no_such_function" in str(info.value)
        assert time.monotonic() - start < 3.0

    def test_peer_failure_without_watchdog_still_bounded(self):
        # the barrier's built-in default timeout plus abort propagation
        # must bound this even with no watchdog installed
        from repro.sim.interpreter import InterpreterError
        start = time.monotonic()
        with pytest.raises(InterpreterError):
            run_rcce(DEAD_PEER, 3)
        assert time.monotonic() - start < 30.0


class TestStepBudget:
    def test_budget_raises_simulation_timeout_with_dumps(self):
        with pytest.raises(SimulationTimeout) as info:
            run_rcce(SPIN_FOREVER, 2, max_steps=20_000)
        dumps = info.value.dumps
        assert len(dumps) == 2
        for dump in dumps:
            assert dump["steps"] > 0
            assert "rank" in dump
        # the rendered message carries the per-core state
        assert "steps" in str(info.value)

    def test_pthread_budget_carries_thread_table(self):
        from repro.sim.runner import run_pthread_single_core
        source = """
        #include <pthread.h>
        void *spin(void *arg) {
            int i;
            for (i = 0; i >= 0; i++) { }
            return 0;
        }
        int main() {
            pthread_t t;
            pthread_create(&t, 0, spin, 0);
            pthread_join(t, 0);
            return 0;
        }
        """
        with pytest.raises(SimulationTimeout) as info:
            run_pthread_single_core(source, max_steps=20_000)
        assert info.value.dumps
        threads = info.value.threads
        assert any(t["function"] == "spin" and not t["finished"]
                   for t in threads)

    def test_budget_error_is_interpreter_error(self):
        # backward compatibility: existing callers catch
        # InterpreterError / StepLimitExceeded
        from repro.sim.interpreter import (InterpreterError,
                                           StepLimitExceeded)
        with pytest.raises(StepLimitExceeded):
            run_rcce(SPIN_FOREVER, 2, max_steps=20_000)
        assert issubclass(SimulationTimeout, InterpreterError)


class TestNoPerturbation:
    def test_watchdog_does_not_change_cycles(self):
        baseline = run_rcce(HEALTHY, 4)
        watched = run_rcce(HEALTHY, 4, watchdog=fast_watchdog())
        assert watched.cycles == baseline.cycles
        assert watched.per_core_cycles == baseline.per_core_cycles

    def test_healthy_run_has_no_false_positives(self):
        watchdog = fast_watchdog(lock_timeout=2.0)
        result = run_rcce(HEALTHY, 8, watchdog=watchdog)
        assert result.cycles > 0
        assert watchdog.deadlocks_detected == 0


class TestBarrierTimeout:
    def test_barrier_timeout_error_is_watchdog_error(self):
        assert issubclass(BarrierTimeoutError, WatchdogError)

    def test_clock_barrier_times_out_on_missing_peer(self):
        from repro.rcce.sync import ClockBarrier
        barrier = ClockBarrier(2, timeout=0.3)
        with pytest.raises(BarrierTimeoutError):
            barrier.wait(0, 100)  # the second party never arrives

    def test_clock_barrier_abort_carries_cause(self):
        import threading
        from repro.rcce.sync import ClockBarrier
        from repro.sim.watchdog import BarrierAbortedError
        barrier = ClockBarrier(2, timeout=5.0)
        failure = RuntimeError("peer died")
        caught = {}

        def waiter():
            try:
                barrier.wait(0, 100)
            except Exception as exc:  # noqa: BLE001
                caught["exc"] = exc

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        barrier.abort(failure)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(caught["exc"], BarrierAbortedError)
        assert caught["exc"].__cause__ is failure
