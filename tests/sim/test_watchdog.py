"""Deadlock, dead-peer and step-budget tests: every kernel here used to
hang the host process — now each ends at once with a structured error.
No wait has a timeout: a deadlock is detected when it forms, so each
bound below is on how fast that happens.
"""

import _thread
import random
import sys
import threading
import time

import pytest

from repro.bench.programs import benchmark_source
from repro.cfront.frontend import parse_program
from repro.faults import FaultInjector
from repro.rcce.sync import ClockBarrier, Monitor
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim.interpreter import (
    TICK_STEPS,
    Interpreter,
    InterpreterError,
    StepLimitExceeded,
)
from repro.sim.runner import run_pthread_single_core, run_rcce
from repro.sim.watchdog import (
    DeadlockError,
    SimulationTimeout,
    WatchdogAborted,
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

# rank 0 waits for a message rank 1 never sends: rank 1 is at the
# barrier, waiting for rank 0
RECV_VERSUS_BARRIER = """
int RCCE_APP(int argc, char **argv) {
    int buf[1];
    RCCE_init(&argc, &argv);
    if (RCCE_ue() == 0) {
        RCCE_recv(buf, sizeof(int), 1);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"""

# rank 1 returns before RCCE_finalize, whose barrier then never fills
EARLY_RETURN = """
int RCCE_APP(int argc, char **argv) {
    RCCE_init(&argc, &argv);
    if (RCCE_ue() == 1) {
        return 0;
    }
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


def deadlock_of(source, num_ues=2):
    """The DeadlockError ``source`` raises, which must come within 2 s
    of wall time."""
    start = time.monotonic()
    with pytest.raises(DeadlockError) as info:
        run_rcce(source, num_ues)
    assert time.monotonic() - start < 2.0
    return info.value


class TestDeadlockDetection:
    def test_crossed_locks_raise_deadlock(self):
        error = deadlock_of(CROSSED_LOCKS)
        # the wait-for cycle names both edges
        assert len(error.cycle) == 2
        assert {edge[1] for edge in error.cycle} == {0, 1}
        assert "rank 0 in RCCE_acquire_lock(1); " \
            "rank 1 in RCCE_acquire_lock(0)" in str(error)

    def test_never_released_lock_times_out(self):
        # rank 0 asks again for the register it holds: a cycle of one
        error = deadlock_of(NEVER_RELEASED)
        assert error.cycle == [(0, 3)]
        assert "rank 0 waits for register 3 -> back to rank 0" \
            in str(error)
        assert "rank 1 in RCCE_acquire_lock(3)" in str(error)

    def test_recv_while_peer_waits_at_barrier(self):
        error = deadlock_of(RECV_VERSUS_BARRIER)
        assert error.cycle == []
        assert str(error) == ("deadlock detected: rank 0 in RCCE_recv "
                              "from rank 1; rank 1 in RCCE_barrier")

    def test_return_before_finalize(self):
        error = deadlock_of(EARLY_RETURN)
        assert str(error) == ("deadlock detected: rank 0 in "
                              "RCCE_finalize; rank 1 has exited")


class TestDeadPeer:
    def test_peer_failure_propagates_original_error(self):
        start = time.monotonic()
        with pytest.raises(InterpreterError) as info:
            run_rcce(DEAD_PEER, 3)
        # the *originating* error surfaces, not a barrier timeout
        assert "no_such_function" in str(info.value)
        assert time.monotonic() - start < 5.0

    def test_peer_failure_wakes_a_recv(self):
        start = time.monotonic()
        with pytest.raises(InterpreterError) as info:
            run_rcce(RECV_DEAD_PEER, 2)
        assert "no_such_function" in str(info.value)
        assert time.monotonic() - start < 3.0

    def test_peer_failure_without_watchdog_still_bounded(self):
        # abort propagation alone bounds it: the survivors' barrier
        # waits end with the failure as their cause, not a deadlock
        start = time.monotonic()
        with pytest.raises(InterpreterError) as info:
            run_rcce(DEAD_PEER, 3)
        assert not isinstance(info.value, DeadlockError)
        assert time.monotonic() - start < 5.0


class _TickRecorder(FaultInjector):
    """A fault injector that never fires and records the step count
    of every tick."""

    def __init__(self):
        super().__init__("core_stall:core=0,p=0")
        self.ticks = []
        self.interp = None

    def core_tick(self, interp):
        self.ticks.append(interp.steps)
        self.interp = interp
        super().core_tick(interp)


class _HaltInsideLoad(FaultInjector):
    """A fault injector that never fires.  Inside the first load past
    step 1000 it interrupts the caller, as Ctrl-C would, and waits
    there until the runner's halt has zeroed the core's budget.  The
    pause before the interrupt lets the caller reach its wait for the
    cores first."""

    def __init__(self):
        super().__init__("dram_flip:p=0,seed=1")
        self.halted_at = None
        self.interp = None

    def filter_load(self, interp, addr, value):
        if self.halted_at is None and interp.steps >= 1000:
            self.interp = interp
            time.sleep(0.2)
            _thread.interrupt_main()
            deadline = time.monotonic() + 10.0
            while interp.max_steps and time.monotonic() < deadline:
                time.sleep(0.01)
            self.halted_at = interp.steps
        return super().filter_load(interp, addr, value)


class TestStepBudget:
    def test_budget_raises_simulation_timeout_with_dumps(self):
        with pytest.raises(SimulationTimeout) as info:
            run_rcce(SPIN_FOREVER, 2, max_steps=20_000)
        dumps = info.value.dumps
        assert len(dumps) == 2
        for dump in dumps:
            # the step past the budget raises; none runs beyond it
            assert dump["steps"] == 20_001
            assert "rank" in dump
        # the rendered message carries the per-core state
        assert "steps" in str(info.value)

    def test_pthread_budget_carries_thread_table(self):
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

    def test_ticks_fall_on_multiples_of_tick_steps(self):
        recorder = _TickRecorder()
        run_pthread_single_core(benchmark_source("pi", 4, steps=512),
                                faults=recorder)
        steps = recorder.interp.steps
        assert len(recorder.ticks) == steps // TICK_STEPS
        assert recorder.ticks == [TICK_STEPS * (index + 1)
                                  for index in range(len(recorder.ticks))]

    def test_halt_stops_a_running_core_at_its_next_step(self):
        injector = _HaltInsideLoad()
        with pytest.raises(KeyboardInterrupt):
            run_rcce(SPIN_FOREVER, 1, faults=injector)
        for thread in threading.enumerate():
            if thread.name.startswith("scc-ue"):
                thread.join(10.0)
                assert not thread.is_alive()
        assert injector.interp.max_steps == 0
        assert injector.interp.steps == injector.halted_at + 1

    def test_halt_from_another_thread_is_never_lost(self):
        """Stress: four spinning cores, more than this host's CPUs, are
        halted from the main thread at random moments with a tiny
        thread switch interval; each stops at most one step after
        its halt returned, wherever in the step loop it landed."""
        unit = parse_program(
            "int main(void) { int i; for (i = 0; i >= 0; i++) { } "
            "return 0; }")
        rng = random.Random(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(25):
                chip = SCCChip(SCCConfig())
                interps = [Interpreter(unit, chip, core)
                           for core in range(4)]
                stopped = []

                def spin(interp):
                    try:
                        interp.run_main()
                    except StepLimitExceeded:
                        stopped.append(interp.core_id)

                threads = [threading.Thread(target=spin, args=(interp,))
                           for interp in interps]
                for thread in threads:
                    thread.start()
                time.sleep(rng.uniform(0.0, 0.005))
                seen = []
                for interp in interps:
                    interp.halt()
                    seen.append(interp.steps)
                for thread in threads:
                    thread.join(10.0)
                    assert not thread.is_alive()
                assert sorted(stopped) == [0, 1, 2, 3]
                for interp, steps in zip(interps, seen):
                    assert interp.steps <= steps + 1
        finally:
            sys.setswitchinterval(interval)

    def test_budget_error_is_interpreter_error(self):
        # backward compatibility: existing callers catch
        # InterpreterError / StepLimitExceeded
        from repro.sim.interpreter import (InterpreterError,
                                           StepLimitExceeded)
        with pytest.raises(StepLimitExceeded):
            run_rcce(SPIN_FOREVER, 2, max_steps=20_000)
        assert issubclass(SimulationTimeout, InterpreterError)


# every blocking RCCE call in one SPMD program: two contended locks,
# barriers, a send/recv ring, a flag and a bcast
MIXED_SYNC = """
#include <stdio.h>
#include <RCCE.h>
int RCCE_APP(int argc, char **argv) {
    int me;
    int n;
    int i;
    int k;
    int *counter;
    int token[1];
    int got[1];
    double total[1];
    RCCE_FLAG ready;
    RCCE_init(&argc, &argv);
    me = RCCE_ue();
    n = RCCE_num_ues();
    counter = (int *) RCCE_shmalloc(sizeof(int) * 2);
    RCCE_flag_alloc(&ready);
    if (me == 0) {
        counter[0] = 0;
        counter[1] = 0;
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    got[0] = 0;
    for (k = 0; k < 3; k++) {
        for (i = 0; i < 4; i++) {
            RCCE_acquire_lock(k % 2);
            counter[k % 2] = counter[k % 2] + me + 1;
            RCCE_release_lock(k % 2);
        }
        RCCE_barrier(&RCCE_COMM_WORLD);
        token[0] = got[0] + me;
        if (me % 2 == 0) {
            RCCE_send(token, sizeof(int), (me + 1) % n);
            RCCE_recv(got, sizeof(int), (me + n - 1) % n);
        } else {
            RCCE_recv(got, sizeof(int), (me + n - 1) % n);
            RCCE_send(token, sizeof(int), (me + 1) % n);
        }
    }
    if (me == 0) {
        RCCE_flag_write(&ready, RCCE_FLAG_SET, 0);
    } else {
        RCCE_wait_until(ready, RCCE_FLAG_SET);
    }
    total[0] = counter[0] + counter[1];
    RCCE_bcast((char *) total, sizeof(double), 0, RCCE_COMM_WORLD);
    printf("ue %d token %d total %d\\n", me, got[0], (int) total[0]);
    RCCE_finalize();
    return 0;
}
"""


class TestNoPerturbation:
    def test_watchdog_does_not_change_cycles(self):
        # deadlock detection never touches simulated time
        result = run_rcce(HEALTHY, 4)
        assert result.per_core_cycles == {core: 7081 for core in range(4)}

    def test_healthy_run_has_no_false_positives(self):
        result = run_rcce(HEALTHY, 8)
        assert result.cycles == 7609

    def test_mixed_sync_stress_has_no_false_positives(self):
        """Stress: 8 UEs, more threads than host CPUs, block in every
        kind of RCCE wait under a tiny thread switch interval, so ranks
        are often woken but not yet run when the last one blocks.  No
        round may report a deadlock, and every round gives the same
        cycles and stdout."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = {(result.cycles, tuple(sorted(
                        result.per_core_cycles.items())),
                     result.stdout())
                    for result in (run_rcce(MIXED_SYNC, 8)
                                   for _ in range(25))}
        finally:
            sys.setswitchinterval(interval)
        assert len(runs) == 1
        (cycles, _per_core, stdout), = runs
        assert cycles == 17782
        assert stdout.splitlines()[0] == "ue 0 token 18 total 432"


class TestBarrierTimeout:
    def test_clock_barrier_times_out_on_missing_peer(self):
        monitor = Monitor(2)
        barrier = ClockBarrier(monitor, 2)
        monitor.exit(1)  # the second party never arrives
        with pytest.raises(DeadlockError) as info:
            barrier.wait(0, 100)
        assert str(info.value) == ("deadlock detected: rank 0 in "
                                   "RCCE_barrier; rank 1 has exited")

    def test_clock_barrier_abort_carries_cause(self):
        monitor = Monitor(2)
        barrier = ClockBarrier(monitor, 2)
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
        monitor.abort(failure)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert isinstance(caught["exc"], WatchdogAborted)
        assert caught["exc"].__cause__ is failure
