"""RCCE runtime emulation tests."""

import threading

import pytest

from repro.obs.metrics import series_value
from repro.rcce.api import RCCEAllocationError, RCCEWorld
from repro.rcce.sync import ClockBarrier, Monitor, TestAndSetRegisters
from repro.sim.watchdog import DeadlockError
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim.runner import run_rcce


@pytest.fixture
def chip():
    return SCCChip(SCCConfig())


class TestWorld:
    def test_core_map_default_identity(self, chip):
        world = RCCEWorld(chip, 4)
        assert world.core_map == [0, 1, 2, 3]

    def test_custom_core_map(self, chip):
        world = RCCEWorld(chip, 2, core_map=[0, 47])
        assert world.runtime_for(1).core_id == 47

    def test_too_many_ues_rejected(self, chip):
        with pytest.raises(ValueError):
            RCCEWorld(chip, 49)

    def test_bad_core_map_rejected(self, chip):
        with pytest.raises(ValueError):
            RCCEWorld(chip, 2, core_map=[0])


class TestSymmetricHeap:
    def test_same_sequence_same_address(self, chip):
        world = RCCEWorld(chip, 2)
        a0 = world.shared_heap.allocate(0, 64)
        b0 = world.shared_heap.allocate(1, 64)
        assert a0.base == b0.base

    def test_distinct_allocations_distinct_addresses(self, chip):
        world = RCCEWorld(chip, 2)
        first = world.shared_heap.allocate(0, 64)
        second = world.shared_heap.allocate(0, 64)
        assert first.base != second.base

    def test_size_mismatch_detected(self, chip):
        world = RCCEWorld(chip, 2)
        world.shared_heap.allocate(0, 64)
        with pytest.raises(RCCEAllocationError):
            world.shared_heap.allocate(1, 128)

    def test_spill_is_recorded_for_every_ue(self, chip):
        """An allocation the MPB cannot hold is a spill (None) for
        every UE's call at that index, and the calls after it stay
        matched."""
        world = RCCEWorld(chip, 2)
        assert world.mpb_heap.allocate(0, 1_000_000) is None
        small = world.mpb_heap.allocate(0, 16)
        assert world.mpb_heap.allocate(1, 1_000_000) is None
        assert world.mpb_heap.allocate(1, 16) is small
        assert chip.address_space.classify(small.base).value == "mpb"

    def test_mpb_heap_separate(self, chip):
        world = RCCEWorld(chip, 2)
        shared = world.shared_heap.allocate(0, 64)
        mpb = world.mpb_heap.allocate(0, 64)
        assert chip.address_space.classify(shared.base).value == "shared"
        assert chip.address_space.classify(mpb.base).value == "mpb"


class TestClockBarrier:
    def test_aligns_clocks_to_max(self):
        barrier = ClockBarrier(Monitor(3), 3, cost_cycles=100)
        results = {}

        def participant(rank, clock):
            results[rank] = barrier.wait(rank, clock)

        threads = [threading.Thread(target=participant, args=(r, c))
                   for r, c in ((0, 500), (1, 900), (2, 100))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(results.values()) == {1000}

    def test_multiple_rounds(self):
        barrier = ClockBarrier(Monitor(2), 2, cost_cycles=0)
        out = {0: [], 1: []}

        def participant(rank):
            clock = rank * 10
            for _ in range(3):
                clock = barrier.wait(rank, clock) + rank
                out[rank].append(clock)

        threads = [threading.Thread(target=participant, args=(r,))
                   for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert barrier.rounds == 3
        # both saw the same aligned base each round
        assert out[0][0] == 10 and out[1][0] == 11

    def test_single_party(self):
        barrier = ClockBarrier(Monitor(1), 1, cost_cycles=5)
        assert barrier.wait(0, 10) == 15


class TestTestAndSet:
    def test_acquire_release(self):
        registers = TestAndSetRegisters(Monitor(1), 4)
        registers.acquire(2, 0)
        assert registers.owners == {2: 0}
        registers.release(2, 0)
        assert registers.owners == {}
        assert registers.acquisitions[2] == 1

    def test_register_wraps_modulo_cores(self):
        registers = TestAndSetRegisters(Monitor(1), 4)
        registers.acquire(6, 0)  # register 2
        registers.release(6, 0)
        assert registers.acquisitions[2] == 1

    def test_release_unheld_is_noop(self):
        registers = TestAndSetRegisters(Monitor(1), 2)
        registers.release(0, 0)  # must not raise

    def test_mutual_exclusion(self):
        monitor = Monitor(4)
        registers = TestAndSetRegisters(monitor, 1)
        counter = [0]
        errors = []

        def bump(rank):
            try:
                for _ in range(200):
                    registers.acquire(0, rank)
                    value = counter[0]
                    counter[0] = value + 1
                    registers.release(0, rank)
            except DeadlockError as exc:  # must never happen
                errors.append(exc)
            monitor.exit(rank)

        threads = [threading.Thread(target=bump, args=(rank,))
                   for rank in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert counter[0] == 800


class TestRCCEPrograms:
    def test_ue_and_num_ues(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            printf("%d/%d\\n", RCCE_ue(), RCCE_num_ues());
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 3)
        assert result.stdout() == "0/3\n1/3\n2/3\n"

    def test_shmalloc_shared_across_cores(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            int *data = (int *)RCCE_shmalloc(sizeof(int) * 4);
            int me = RCCE_ue();
            data[me] = me + 1;
            RCCE_barrier(&RCCE_COMM_WORLD);
            int total = 0;
            for (int i = 0; i < 4; i++) total += data[i];
            printf("%d\\n", total);
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 4)
        assert result.stdout() == "10\n10\n10\n10\n"

    def test_locks_protect_shared_counter(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            int *counter = (int *)RCCE_shmalloc(sizeof(int) * 1);
            for (int i = 0; i < 50; i++) {
                RCCE_acquire_lock(0);
                counter[0] = counter[0] + 1;
                RCCE_release_lock(0);
            }
            RCCE_barrier(&RCCE_COMM_WORLD);
            printf("%d\\n", counter[0]);
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 4)
        assert result.stdout() == "200\n" * 4

    def test_barrier_aligns_per_core_cycles(self):
        source = """
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            int me = RCCE_ue();
            int s = 0;
            for (int i = 0; i < me * 500; i++) s += i;
            RCCE_barrier(&RCCE_COMM_WORLD);
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 4)
        clocks = list(result.per_core_cycles.values())
        # finalize barrier equalizes everything
        assert max(clocks) - min(clocks) == 0

    def test_runtime_is_slowest_core(self):
        source = """
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            if (RCCE_ue() == 0) {
                int s = 0;
                for (int i = 0; i < 2000; i++) s += i;
            }
            return 0;
        }
        """
        result = run_rcce(source, 2)
        assert result.cycles == max(result.per_core_cycles.values())

    def test_mpb_malloc_fallback_counted(self):
        source = """
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            double *big = (double *)RCCE_malloc(500000);
            big[0] = 1.0;
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 2)
        assert series_value(result.metrics["counters"],
                            "rcce_mpb_fallbacks") == 2

    def test_malloc_after_a_spill_is_symmetric(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            int *big, *small, id, i, s;
            RCCE_init(&argc, &argv);
            id = RCCE_ue();
            big = (int *)RCCE_malloc(1000000);
            small = (int *)RCCE_malloc(16);
            big[id] = id;
            small[id] = id + 1;
            RCCE_barrier(&RCCE_COMM_WORLD);
            if (id == 0) {
                s = 0;
                for (i = 0; i < 4; i++) s += big[i] + small[i];
                printf("s = %d\\n", s);
            }
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 4)
        assert result.stdout() == "s = 16\n"
        assert series_value(result.metrics["counters"],
                            "rcce_mpb_fallbacks") == 4

    def test_error_in_one_core_propagates(self):
        source = """
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            if (RCCE_ue() == 1) {
                int z = 0;
                return 1 / z;
            }
            RCCE_barrier(&RCCE_COMM_WORLD);
            return 0;
        }
        """
        with pytest.raises(Exception):
            run_rcce(source, 2)

    def test_wtime_monotonic(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            double t0 = RCCE_wtime();
            int s = 0;
            for (int i = 0; i < 100; i++) s += i;
            double t1 = RCCE_wtime();
            printf("%d\\n", t1 > t0);
            return 0;
        }
        """
        result = run_rcce(source, 1)
        assert result.stdout() == "1\n"
