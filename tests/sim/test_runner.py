"""Runner-level tests (RunResult, core maps, chip reuse, Ctrl-C)."""

import _thread
import threading
import time

import pytest

from repro.cfront.frontend import parse_program
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig, Table61Config
from repro.sim.runner import RunResult, run_pthread_single_core, run_rcce

RCCE_PROGRAM = """
#include <stdio.h>
#include <RCCE.h>
int RCCE_APP(int argc, char **argv) {
    RCCE_init(&argc, &argv);
    int s = 0;
    for (int i = 0; i < 100 * (RCCE_ue() + 1); i++) s += i;
    printf("%d\\n", RCCE_ue());
    RCCE_finalize();
    return 0;
}
"""


class TestRunResult:
    def test_seconds_property(self):
        result = RunResult(800_000_000, Table61Config(), ["x"])
        assert result.seconds == pytest.approx(1.0)

    def test_stdout_joins_output(self):
        result = RunResult(1, Table61Config(), ["a", "b\n", "c"])
        assert result.stdout() == "ab\nc"

    def test_repr(self):
        result = RunResult(1600, Table61Config(), [])
        assert "1600 cycles" in repr(result)


class TestRunRcce:
    def test_accepts_source_string(self):
        result = run_rcce(RCCE_PROGRAM, 2)
        assert sorted(result.stdout().split()) == ["0", "1"]

    def test_accepts_parsed_unit(self):
        unit = parse_program(RCCE_PROGRAM)
        result = run_rcce(unit, 2)
        assert result.stats["num_ues"] == 2

    def test_custom_core_map_changes_physical_cores(self):
        result = run_rcce(RCCE_PROGRAM, 2, core_map=[10, 40])
        assert set(result.per_core_cycles) == {10, 40}

    def test_output_ordered_by_core(self):
        result = run_rcce(RCCE_PROGRAM, 3)
        assert result.stdout() == "0\n1\n2\n"

    def test_stats_have_barrier_rounds(self):
        result = run_rcce(RCCE_PROGRAM, 2)
        assert result.stats["barrier_rounds"] >= 1

    def test_explicit_chip_accumulates_state(self):
        chip = SCCChip(Table61Config())
        run_rcce(RCCE_PROGRAM, 2, chip.config, chip)
        assert any(chip.cores[c].l1.stats.accesses > 0
                   for c in range(2))

    def test_single_ue(self):
        result = run_rcce(RCCE_PROGRAM, 1)
        assert result.stdout() == "0\n"


class TestRunPthread:
    SRC = """
    #include <stdio.h>
    int main(void) { printf("hello\\n"); return 42; }
    """

    def test_exit_value(self):
        result = run_pthread_single_core(self.SRC)
        assert result.exit_value == 42

    def test_custom_core(self):
        result = run_pthread_single_core(self.SRC, core=7)
        assert list(result.per_core_cycles) == [7]

    def test_custom_config(self):
        config = SCCConfig(core_freq_mhz=400)
        result = run_pthread_single_core(self.SRC, config)
        assert result.config.core_freq_mhz == 400

    def test_cache_stats_present(self):
        result = run_pthread_single_core(self.SRC)
        assert "l1" in result.stats["cache"]


# rank 0 computes for tens of seconds holding lock 0; rank 1 waits at
# the barrier, rank 2 in RCCE_recv and rank 3 for the lock: an
# interrupt finds a core in each state
LONG_RUN = """
int RCCE_APP(int argc, char **argv) {
    int i;
    int acc = 0;
    int buf[1];
    RCCE_init(&argc, &argv);
    if (RCCE_ue() == 0) {
        RCCE_acquire_lock(0);
        for (i = 0; i < 3000000; i++) { acc += i; }
        RCCE_release_lock(0);
        buf[0] = acc;
        RCCE_send(buf, sizeof(int), 2);
    } else if (RCCE_ue() == 2) {
        RCCE_recv(buf, sizeof(int), 0);
    } else if (RCCE_ue() == 3) {
        for (i = 0; i < 1000; i++) { acc += i; }
        RCCE_acquire_lock(0);
        RCCE_release_lock(0);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}
"""


class TestInterrupt:
    def test_ctrl_c_stops_every_core(self):
        timer = threading.Timer(1.0, _thread.interrupt_main)
        started = time.monotonic()
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_rcce(LONG_RUN, 4)
        finally:
            timer.cancel()
        # within 2 s of the timer, and no simulated core outlives it
        assert time.monotonic() - started < 3.0
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("scc-ue")]

    def test_interrupt_as_a_start_returns_waits_for_that_core(
            self, monkeypatch):
        """A Ctrl-C that lands just as rank 1's ``start()`` returns:
        the thread is held a moment before it runs ``core_main``, yet
        run_rcce re-raises only once that thread has stopped."""
        real_start = threading.Thread.start
        real_run = threading.Thread.run

        def start(thread):
            real_start(thread)
            if thread.name == "scc-ue1":
                raise KeyboardInterrupt

        def run(thread):
            if thread.name == "scc-ue1":
                time.sleep(0.3)
            real_run(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(threading.Thread, "run", run)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_rcce(RCCE_PROGRAM, 4)
            assert not [thread for thread in threading.enumerate()
                        if thread.name.startswith("scc-ue")]
        finally:
            for thread in threading.enumerate():
                if thread.name.startswith("scc-ue"):
                    thread.join(10.0)
