"""RCCE two-sided communication, flags, collectives, power tests."""

import pytest

from repro.rcce.comm import (
    CollectiveArea,
    FlagTable,
    REDUCE_OPS,
)
from repro.rcce.sync import Monitor
from repro.sim.interpreter import InterpreterError
from repro.sim.runner import run_rcce


class TestFlagTable:
    def test_alloc_write_read(self):
        flags = FlagTable(Monitor(1))
        flag = flags.alloc()
        assert flags.read(flag) == 0
        flags.write(flag, 1, clock=500)
        assert flags.read(flag) == 1

    def test_wait_until_immediate(self):
        flags = FlagTable(Monitor(1))
        flag = flags.alloc()
        flags.write(flag, 1, clock=900)
        # waiter's clock advances to the writer's
        assert flags.wait_until(0, flag, 1, clock=100) == 900

    def test_wait_keeps_later_clock(self):
        flags = FlagTable(Monitor(1))
        flag = flags.alloc()
        flags.write(flag, 1, clock=100)
        assert flags.wait_until(0, flag, 1, clock=5000) == 5000

    def test_free_then_use_raises(self):
        flags = FlagTable(Monitor(1))
        flag = flags.alloc()
        flags.free(flag)
        # a program failure at once, for every use, not a hang
        with pytest.raises(InterpreterError, match="read of unallocated"):
            flags.read(flag)
        with pytest.raises(InterpreterError, match="write to unallocated"):
            flags.write(flag, 1, clock=0)
        with pytest.raises(InterpreterError, match="wait on unallocated"):
            flags.wait_until(0, flag, 1, clock=0)

    def test_distinct_ids(self):
        flags = FlagTable(Monitor(1))
        assert flags.alloc() != flags.alloc()


class TestReduceOps:
    def test_all_ops_present(self):
        assert set(REDUCE_OPS) == {"sum", "max", "min", "prod"}

    def test_reduce_combines_elementwise(self):
        deposits = {0: [1, 5], 1: [2, 1], 2: [3, 3]}
        assert CollectiveArea.reduce(deposits, "sum") == [6, 9]
        assert CollectiveArea.reduce(deposits, "max") == [3, 5]
        assert CollectiveArea.reduce(deposits, "min") == [1, 1]
        assert CollectiveArea.reduce(deposits, "prod") == [6, 15]

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            CollectiveArea.reduce({0: [1]}, "xor")


class TestSendRecvPrograms:
    def test_ring_pass(self):
        """Each UE sends its rank to the next; values travel the ring."""
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            int me = RCCE_ue();
            int n = RCCE_num_ues();
            int token[1];
            int incoming[1];
            token[0] = me * 100;
            if (me % 2 == 0) {
                RCCE_send(token, sizeof(int), (me + 1) % n);
                RCCE_recv(incoming, sizeof(int), (me + n - 1) % n);
            } else {
                RCCE_recv(incoming, sizeof(int), (me + n - 1) % n);
                RCCE_send(token, sizeof(int), (me + 1) % n);
            }
            printf("%d got %d\\n", me, incoming[0]);
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 4)
        lines = sorted(result.stdout().strip().splitlines())
        assert lines == ["0 got 300", "1 got 0", "2 got 100",
                         "3 got 200"]

    def test_send_blocks_until_recv(self):
        """Synchronous semantics: the sender's clock includes the
        receiver's delay."""
        source = """
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            int buf[1];
            if (RCCE_ue() == 0) {
                buf[0] = 7;
                RCCE_send(buf, sizeof(int), 1);
            } else {
                int s = 0;
                for (int i = 0; i < 3000; i++) s += i;
                RCCE_recv(buf, sizeof(int), 0);
            }
            return 0;
        }
        """
        result = run_rcce(source, 2)
        clocks = result.per_core_cycles
        # sender (core 0) finished no earlier than the busy receiver
        assert clocks[0] >= 0.9 * clocks[1]

    def test_multiword_payload(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            double data[4];
            if (RCCE_ue() == 0) {
                for (int i = 0; i < 4; i++) data[i] = i + 0.5;
                RCCE_send(data, 4 * sizeof(double), 1);
            } else {
                RCCE_recv(data, 4 * sizeof(double), 0);
                printf("%.1f %.1f\\n", data[0], data[3]);
            }
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 2)
        assert "0.5 3.5" in result.stdout()


class TestFlagPrograms:
    def test_producer_consumer_flag(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            int *data = (int *)RCCE_shmalloc(sizeof(int) * 1);
            RCCE_FLAG ready;
            RCCE_flag_alloc(&ready);
            if (RCCE_ue() == 0) {
                data[0] = 1234;
                RCCE_flag_write(&ready, RCCE_FLAG_SET, 1);
            } else {
                RCCE_wait_until(ready, RCCE_FLAG_SET);
                printf("%d\\n", data[0]);
            }
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 2)
        assert "1234" in result.stdout()

    def test_flag_read_into_pointer(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            RCCE_FLAG f;
            int value;
            RCCE_flag_alloc(&f);
            RCCE_flag_write(&f, RCCE_FLAG_SET, RCCE_ue());
            RCCE_flag_read(f, &value, RCCE_ue());
            printf("%d\\n", value);
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 1)
        assert result.stdout() == "1\n"


class TestCollectives:
    def test_bcast(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            int data[2];
            if (RCCE_ue() == 0) { data[0] = 5; data[1] = 9; }
            RCCE_bcast(data, 2 * sizeof(int), 0, RCCE_COMM_WORLD);
            printf("%d%d\\n", data[0], data[1]);
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 4)
        assert result.stdout() == "59\n" * 4

    def test_reduce_sum_to_root(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            int mine[1];
            int total[1];
            total[0] = -1;
            mine[0] = RCCE_ue() + 1;
            RCCE_reduce(mine, total, 1, RCCE_INT, RCCE_SUM, 0,
                        RCCE_COMM_WORLD);
            printf("%d\\n", total[0]);
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 4)
        lines = result.stdout().strip().splitlines()
        assert lines[0] == "10"            # root has the sum
        assert lines[1:] == ["-1"] * 3     # others untouched

    def test_allreduce_max(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            double mine[1];
            double top[1];
            mine[0] = (RCCE_ue() + 1) * 1.5;
            RCCE_allreduce(mine, top, 1, RCCE_DOUBLE, RCCE_MAX,
                           RCCE_COMM_WORLD);
            printf("%.1f\\n", top[0]);
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 3)
        assert result.stdout() == "4.5\n" * 3

    def test_consecutive_collectives_do_not_mix(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            int mine[1];
            int out[1];
            mine[0] = 1;
            RCCE_allreduce(mine, out, 1, RCCE_INT, RCCE_SUM,
                           RCCE_COMM_WORLD);
            int first = out[0];
            mine[0] = 2;
            RCCE_allreduce(mine, out, 1, RCCE_INT, RCCE_SUM,
                           RCCE_COMM_WORLD);
            printf("%d %d\\n", first, out[0]);
            RCCE_finalize();
            return 0;
        }
        """
        result = run_rcce(source, 4)
        assert result.stdout() == "4 8\n" * 4

    def test_comm_rank_and_size(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            int rank;
            int size;
            RCCE_comm_rank(RCCE_COMM_WORLD, &rank);
            RCCE_comm_size(RCCE_COMM_WORLD, &size);
            printf("%d/%d\\n", rank, size);
            return 0;
        }
        """
        result = run_rcce(source, 2)
        assert result.stdout() == "0/2\n1/2\n"


class TestPowerAPI:
    def test_power_domain_query(self):
        source = """
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            printf("%d\\n", RCCE_power_domain());
            return 0;
        }
        """
        result = run_rcce(source, 1)
        assert result.stdout() == "0\n"

    def test_iset_power_lowers_chip_power(self):
        from repro.scc.chip import SCCChip
        from repro.scc.config import Table61Config
        chip = SCCChip(Table61Config())
        before = chip.power.chip_power_watts()
        source = """
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            RCCE_iset_power(4);
            RCCE_wait_power();
            return 0;
        }
        """
        run_rcce(source, 1, chip.config, chip)
        assert chip.power.chip_power_watts() < before
