"""CLI tests (python -m repro)."""

import io
import json
import pathlib
import re
import time

import pytest

from repro.bench.programs import EXAMPLE_4_1, benchmark_source
from repro.cli import build_parser, main
from repro.core.framework import TranslationFramework
from repro.diagnostics import Diagnostic
from repro.scc.memmap import SPLIT_BASE
from repro.sim.runner import run_rcce


NATIVE_RCCE = """
#include <stdio.h>
#include <RCCE.h>
int RCCE_APP(int argc, char **argv) {
    RCCE_init(&argc, &argv);
    printf("ue %d\\n", RCCE_ue());
    return 0;
}
"""

LOCKED_CLEAN = (pathlib.Path(__file__).parent / "fixtures" / "static"
                / "locked_clean.c")


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.c"
    path.write_text(EXAMPLE_4_1)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


def run_cli_err(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["translate", "x.c", "--policy", "magic"])

    @pytest.mark.parametrize("argv", [
        ["run", "pi.c", "--ues", "49"],
        ["run", "pi.c", "--ues", "0", "--mode", "pthread"],
        ["run", "pi.c", "--ues", "-1", "--mode", "compare"],
        ["run", "native.c", "--ues", "0", "--mode", "rcce"],
        ["run", "native.c", "--ues", "49", "--mode", "rcce"],
        ["check", "mutex.c", "--ues", "0"],
        ["check", "mutex.c", "--ues", "-3"],
        ["check", "mutex.c", "--ues", "49"],
        ["bench", "6.1", "--ues", "0"],
        ["bench", "6.3", "--ues", "49"],
    ])
    def test_ues_out_of_range_exits_2(self, tmp_path, capsys, argv):
        """--ues counts the cores of Table 6.1's chip: a value outside
        1..48 is a usage error, before any input is read."""
        sources = {
            "pi.c": benchmark_source("pi", 4, steps=64),
            "native.c": NATIVE_RCCE,
            "mutex.c": LOCKED_CLEAN.read_text(),
        }
        for name, text in sources.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / arg) if arg in sources else arg
                for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv, io.StringIO(), io.StringIO())
        assert exc.value.code == 2
        assert "argument --ues: %s is outside 1..48" % argv[3] \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run", "x.c"], ["check", "x.c"],
                                         ["bench", "6.1"]])
    def test_ues_bounds_are_accepted(self, command):
        for ues in (1, 48):
            args = build_parser().parse_args(command + ["--ues", str(ues)])
            assert args.ues == ues

    @pytest.mark.parametrize("argv, message", [
        (["run", "pi.c", "--capacity", "-100"],
         "argument --capacity: -100 is below the minimum, 0"),
        (["translate", "pi.c", "--capacity", "-1"],
         "argument --capacity: -1 is below the minimum, 0"),
        (["run", "pi.c", "--mode", "rcce", "--ues", "2",
          "--max-restarts", "-1"],
         "argument --max-restarts: -1 is below the minimum, 0"),
        (["run", "pi.c", "--mode", "rcce", "--ues", "2",
          "--checkpoint-every", "-1"],
         "argument --checkpoint-every: -1 is below the minimum, 0"),
        (["run", "pi.c", "--ues", "2", "--max-steps", "-5"],
         "argument --max-steps: -5 is below the minimum, 1"),
        (["run", "pi.c", "--ues", "2", "--max-steps", "0"],
         "argument --max-steps: 0 is below the minimum, 1"),
    ])
    def test_numeric_option_out_of_range_exits_2(self, tmp_path, capsys,
                                                 argv, message):
        """A negative capacity, restart count or checkpoint interval,
        or a step budget below one, is a usage error naming the option
        and its range, before any input is read or simulated."""
        (tmp_path / "pi.c").write_text(benchmark_source("pi", 2, steps=64))
        argv = [str(tmp_path / arg) if arg == "pi.c" else arg
                for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv, io.StringIO(), io.StringIO())
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("option, low", [
        ("--capacity", 0), ("--max-restarts", 0),
        ("--checkpoint-every", 0), ("--max-steps", 1)])
    def test_numeric_option_bounds_are_accepted(self, option, low):
        args = build_parser().parse_args(["run", "x.c", option, str(low)])
        assert getattr(args, option[2:].replace("-", "_")) == low

    def test_jobs_and_quantum_exit_2(self, example_file, capsys):
        """Every RCCE run takes the one sequential host path: argparse
        refuses the removed process-backend options."""
        for flag, value in (("--jobs", "2"), ("--quantum", "0")):
            with pytest.raises(SystemExit) as exc:
                main(["run", example_file, flag, value],
                     io.StringIO(), io.StringIO())
            assert exc.value.code == 2
            assert "unrecognized arguments: %s" % flag \
                in capsys.readouterr().err


class TestTranslate:
    def test_to_stdout(self, example_file):
        code, output = run_cli(["translate", example_file])
        assert code == 0
        assert "RCCE_APP" in output
        assert "RCCE_shmalloc" in output or "RCCE_malloc" in output

    def test_to_file(self, example_file, tmp_path):
        out_path = str(tmp_path / "out.c")
        code, output = run_cli(
            ["translate", example_file, "-o", out_path])
        assert code == 0
        with open(out_path) as handle:
            assert "RCCE_init" in handle.read()

    def test_off_chip_policy(self, example_file):
        _, output = run_cli(["translate", example_file,
                             "--policy", "off-chip-only"])
        assert "RCCE_shmalloc" in output
        assert "RCCE_malloc(" not in output

    def test_capacity_override(self, example_file):
        # 8 bytes: sum (12 B) must spill off-chip
        _, output = run_cli(["translate", example_file,
                             "--capacity", "8"])
        assert "sum = (int *)RCCE_shmalloc" in output

    def test_condvars_fail_loudly(self):
        """Condition variables have no RCCE translation: each wait and
        signal is an error naming the call and its line."""
        code, output, err = run_cli_err(
            ["translate", FIXTURES + "/cond_missed_signal.c"])
        assert code == 65
        assert output == ""
        assert "pthread_cond_wait" in err and "line 19" in err
        assert "pthread_cond_signal" in err and "line 35" in err

    @pytest.mark.parametrize("fixture, variable", [
        ("thread_arg_local.c", "'local'"),
        ("thread_arg_slot.c", "'ids'"),
    ])
    def test_pointer_thread_arguments_fail_loudly(self, fixture,
                                                  variable):
        """A pointer thread argument has no RCCE translation: the call
        is an error naming the pointed-at variable, for translate and
        for an RCCE run alike; the pthreads program itself still
        analyzes."""
        path = FIXTURES + "/" + fixture
        code, output, err = run_cli_err(["translate", path])
        assert code == 65
        assert output == ""
        assert "pthread_create passes a pointer to %s" % variable in err
        code, _, err = run_cli_err(["run", path, "--mode", "rcce",
                                    "--ues", "4"])
        assert code == 65
        assert variable in err
        assert run_cli_err(["analyze", path])[0] == 0

    def test_join_results_fail_loudly(self):
        """The simulator stores a joined thread's return value; the
        translation, whose joins become a barrier, rejects the call
        naming the variable."""
        path = FIXTURES + "/join_retval.c"
        code, output, _ = run_cli_err(["run", path, "--mode", "pthread"])
        assert code == 0
        assert "['s = 18']" in output
        code, output, err = run_cli_err(["translate", path])
        assert code == 65
        assert output == ""
        assert "pthread_join stores the thread's return value in " \
            "'rv'" in err


class TestAnalyze:
    def test_tables_printed(self, example_file):
        code, output = run_cli(["analyze", example_file])
        assert code == 0
        assert "Sharing status per stage" in output
        assert "tmp" in output
        assert "Partition plan" in output

    def test_plan_lists_banks(self, example_file):
        _, output = run_cli(["analyze", example_file,
                             "--policy", "off-chip-only"])
        assert "off-chip" in output


class TestRun:
    def test_compare_mode(self, example_file):
        code, output = run_cli(["run", example_file, "--ues", "3"])
        assert code == 0
        assert "pthread x1 core" in output
        assert "rcce    x3 cores" in output
        assert "speedup:" in output

    def test_pthread_only(self, example_file):
        code, output = run_cli(["run", example_file,
                                "--mode", "pthread"])
        assert code == 0
        assert "rcce" not in output

    def test_native_rcce_program(self, tmp_path):
        path = tmp_path / "native.c"
        path.write_text(NATIVE_RCCE)
        code, output = run_cli(["run", str(path), "--mode", "rcce",
                                "--ues", "2"])
        assert code == 0
        assert "x2 cores" in output

    def test_on_chip_plan_past_the_mpb_spills(self, tmp_path):
        """``--capacity`` lets Stage 4 put ``big`` on-chip, where it
        does not fit: every UE's ``RCCE_malloc`` of it spills to DRAM,
        and the one after it still gets the same segment on every
        UE."""
        path = tmp_path / "spill.c"
        path.write_text(SPILL_PTHREADS)
        code, output, err = run_cli_err(
            ["run", str(path), "--ues", "4", "--mode", "rcce",
             "--capacity", "1000000"])
        assert (code, err) == (0, "")
        assert output.endswith("cycles  ['s = 16']\n")

    def test_fold_flag(self, tmp_path):
        path = tmp_path / "pi.c"
        path.write_text(benchmark_source("pi", nthreads=8, steps=128))
        code, output = run_cli(["run", str(path), "--ues", "2",
                                "--fold", "--mode", "rcce"])
        assert code == 0


# each thread writes big[id] and small[id]; main sums them to 16
SPILL_PTHREADS = """
#include <stdio.h>
#include <pthread.h>
int big[120000];
int small[4];
void *work(void *arg) {
    int id = (int)arg;
    big[id] = id;
    small[id] = id + 1;
    return NULL;
}
int main(void) {
    pthread_t threads[4];
    int i, s = 0;
    for (i = 0; i < 4; i++)
        pthread_create(&threads[i], NULL, work, (void *)i);
    for (i = 0; i < 4; i++)
        pthread_join(threads[i], NULL);
    for (i = 0; i < 4; i++)
        s += big[i] + small[i];
    printf("s = %d\\n", s);
    return 0;
}
"""


DEADLOCK_KERNEL = """
int RCCE_APP(int argc, char **argv) {
    int myID;
    RCCE_init(&argc, &argv);
    myID = RCCE_ue();
    if (myID == 0) {
        RCCE_acquire_lock(0);
        RCCE_barrier(&RCCE_COMM_WORLD);
        RCCE_acquire_lock(1);
    } else {
        RCCE_acquire_lock(1);
        RCCE_barrier(&RCCE_COMM_WORLD);
        RCCE_acquire_lock(0);
    }
    RCCE_finalize();
    return 0;
}
"""


FREED_FLAG_KERNEL = """
#include <RCCE.h>
int RCCE_APP(int argc, char **argv) {
    RCCE_FLAG f;
    int v;
    RCCE_init(&argc, &argv);
    RCCE_flag_alloc(&f);
    RCCE_flag_free(&f);
    RCCE_flag_read(f, &v, RCCE_ue());
    RCCE_finalize();
    return 0;
}
"""


RECV_DEADLOCK_KERNEL = """
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


class TestErrorHandling:
    def test_missing_input_exits_66(self):
        code, _, err = run_cli_err(["translate", "/no/such/file.c"])
        assert code == 66
        assert "cannot read input" in err
        assert len(err.strip().splitlines()) == 1

    def test_unwritable_translation_exits_73(self, example_file,
                                             tmp_path):
        target = tmp_path / "missing" / "out.c"
        code, out, err = run_cli_err(
            ["translate", example_file, "-o", str(target)])
        assert code == 73
        assert out == ""
        assert err == ("repro: cannot write output: [Errno 2] No such "
                       "file or directory: '%s'\n" % target)

    def test_unwritable_report_exits_73(self, tmp_path):
        source = tmp_path / "pi.c"
        source.write_text(benchmark_source("pi", 2, steps=64))
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli_err(
            ["run", str(source), "--ues", "2", "--report", str(target)])
        assert code == 73
        assert "rcce    x2 cores:" in out
        assert "report written" not in out
        assert err == ("repro: cannot write output: [Errno 2] No such "
                       "file or directory: '%s'\n" % target)

    def test_parse_error_exits_65(self, tmp_path):
        path = tmp_path / "bad.c"
        path.write_text("int main( { return 0; }")
        code, _, err = run_cli_err(["translate", str(path)])
        assert code == 65
        assert "parse error" in err

    def test_bad_fault_spec_exits_2(self, example_file):
        for spec in ("gamma_ray:p=1", "worker_kill"):
            code, _, err = run_cli_err(
                ["run", example_file, "--mode", "pthread",
                 "--faults", spec])
            assert code == 2
            assert "bad --faults spec" in err

    def test_deadlock_exits_75(self, tmp_path):
        path = tmp_path / "deadlock.c"
        path.write_text(DEADLOCK_KERNEL)
        started = time.monotonic()
        code, _, err = run_cli_err(
            ["run", str(path), "--mode", "rcce", "--ues", "2"])
        assert time.monotonic() - started < 2.0
        assert code == 75
        assert err.splitlines() == [
            "repro: simulation deadlocked: deadlock detected: rank 0 in "
            "RCCE_acquire_lock(1); rank 1 in RCCE_acquire_lock(0)",
            "lock wait-for cycle: rank 0 waits for register 1 -> rank 1 "
            "waits for register 0 -> back to rank 0"]

    def test_recv_deadlock_names_rank_and_site(self, tmp_path):
        """A recv nobody matches is a deadlock as soon as its peer
        blocks too, and the report names every rank and where."""
        path = tmp_path / "recv_deadlock.c"
        path.write_text(RECV_DEADLOCK_KERNEL)
        started = time.monotonic()
        code, _, err = run_cli_err(
            ["run", str(path), "--mode", "rcce", "--ues", "2"])
        assert time.monotonic() - started < 2.0
        assert code == 75
        assert err == ("repro: simulation deadlocked: deadlock detected: "
                       "rank 0 in RCCE_recv from rank 1; "
                       "rank 1 in RCCE_barrier\n")

    def test_freed_flag_exits_70(self, tmp_path):
        """Using a freed RCCE flag is a bug in the program, not a
        hang."""
        path = tmp_path / "freed_flag.c"
        path.write_text(FREED_FLAG_KERNEL)
        code, _, err = run_cli_err(
            ["run", str(path), "--mode", "rcce", "--ues", "2"])
        assert code == 70
        assert err == ("repro: simulated program failed: read of "
                       "unallocated flag 1\n")

    @pytest.mark.parametrize("mode", ["pthread", "rcce"])
    @pytest.mark.parametrize("body, message", [
        ("int *p = a; int x; x = a[p];", "array subscript is not an integer"),
        ("int *p = a; a[p] = 1;", "array subscript is not an integer"),
        ("int *p = a; int *q = a; int x; x = q[p];",
         "array subscript is not an integer"),
        ("int *p; p = (int *)8; a[0] = *p;",
         "address 0x8 is outside every segment"),
        ("int *p; p = (int *)8; *p = 1;",
         "address 0x8 is outside every segment"),
    ], ids=["pointer_index_load", "pointer_index_store",
            "pointer_index_through_pointer", "wild_load", "wild_store"])
    def test_bad_pointer_exits_70(self, tmp_path, mode, body, message):
        """A pointer used as a subscript, or a load or store through a
        wild pointer, fails as the simulated program."""
        path = tmp_path / "pointer.c"
        path.write_text("int a[4];\nint main(void) {\n    %s\n"
                        "    return 0;\n}\n" % body)
        code, _, err = run_cli_err(["run", str(path), "--mode", mode,
                                    "--ues", "2"])
        assert code == 70
        assert err == "repro: simulated program failed: %s\n" % message

    def test_step_budget_exits_75(self, tmp_path):
        path = tmp_path / "spin.c"
        path.write_text("""
        int RCCE_APP(int argc, char **argv) {
            int i;
            RCCE_init(&argc, &argv);
            for (i = 0; i >= 0; i++) { }
            RCCE_finalize();
            return 0;
        }
        """)
        code, _, err = run_cli_err(
            ["run", str(path), "--mode", "rcce", "--ues", "2",
             "--max-steps", "5000"])
        assert code == 75
        assert "simulation timed out" in err

    @pytest.mark.parametrize("globals_, body, message", [
        ("int a[4];", "int *p = a; int *q = a + 1; p = p + q;",
         "cannot add two pointers"),
        ("int a[4];", "int *p = a; long x; x = -p;",
         "unary - on a pointer"),
        ("int a[4];", "int *p = a; long x; x = ~p;",
         "unary ~ on a pointer"),
        ("", "int s = -1; int x; x = 1 << s;", "negative shift count"),
        ("", "int s = -2; long x = 8; x >>= s;", "negative shift count"),
        ("int g = 1 << -1;", "int x; x = g;", "negative shift count"),
    ], ids=["pointer_sum", "negated_pointer", "complemented_pointer",
            "negative_shift", "negative_shift_update",
            "negative_shift_static_initializer"])
    def test_rejected_operand_exits_70(self, tmp_path, globals_, body,
                                       message):
        """An operator on operands the C subset rejects fails as the
        simulated program, not as the simulator."""
        path = tmp_path / "misuse.c"
        path.write_text("%s\nint main(void) {\n    %s\n    return 0;\n}\n"
                        % (globals_, body))
        code, _, err = run_cli_err(["run", str(path), "--mode", "pthread"])
        assert code == 70
        assert err.startswith("repro: simulated program failed:")
        assert message in err

    def test_injected_crash_exits_70(self, tmp_path):
        path = tmp_path / "victim.c"
        path.write_text("""
        int RCCE_APP(int argc, char **argv) {
            int i; double s;
            RCCE_init(&argc, &argv);
            s = 0.0;
            for (i = 0; i < 5000; i++) { s = s + i; }
            RCCE_barrier(&RCCE_COMM_WORLD);
            RCCE_finalize();
            return 0;
        }
        """)
        code, _, err = run_cli_err(
            ["run", str(path), "--mode", "rcce", "--ues", "2",
             "--faults", "core_crash:core=1,at=100"])
        assert code == 70
        assert "simulated program failed" in err
        assert "injected crash" in err


class TestFaultFlags:
    def test_faulted_run_smoke_with_metrics(self, example_file,
                                            tmp_path):
        report_path = tmp_path / "report.json"
        code, output, _ = run_cli_err(
            ["run", example_file, "--ues", "3", "--mode", "rcce",
             "--faults", "mesh_delay:p=0.2,seed=5",
             "--report", str(report_path)])
        assert code == 0
        counters = json.loads(report_path.read_text())[
            "metrics"]["rcce"]["counters"]
        assert "fault_injections" in counters



RECOVERY_KERNEL = """
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


@pytest.fixture
def recovery_file(tmp_path):
    path = tmp_path / "recovery.c"
    path.write_text(RECOVERY_KERNEL)
    return str(path)


# an LU batch whose shared matrices overflow a 1 KB on-chip capacity:
# with --split, Stage 4 puts their head in the MPB and the tail in
# shared DRAM
SPLIT_ARGS = ["--ues", "2", "--mode", "rcce", "--split",
              "--capacity", "1024"]


@pytest.fixture
def split_file(tmp_path):
    path = tmp_path / "lu2.c"
    path.write_text(benchmark_source("lu", 2, batch=4, dim=8))
    return str(path)


class TestRecoveryFlags:
    def test_faults_and_checkpoints_run_without_downgrade(
            self, recovery_file, tmp_path):
        """Fault injection, recovery and checkpoints all run on the one
        engine, so even --strict has no downgrade to refuse."""
        code, _, err = run_cli_err(
            ["run", recovery_file, "--mode", "rcce", "--ues", "2",
             "--faults", "mesh_delay:p=0.02,seed=3", "--recover",
             "--checkpoint-every", "1",
             "--checkpoint", str(tmp_path / "run.ckpt"), "--strict"])
        assert code == 0
        assert "warning" not in err

    def test_faulted_run_stays_quiet(self, recovery_file):
        code, _, err = run_cli_err(
            ["run", recovery_file, "--mode", "rcce", "--ues", "2",
             "--faults", "mpb_flip:p=0.0001,seed=1"])
        assert code == 0
        assert "warning" not in err

    def test_supervised_recovery_exits_0(self, recovery_file,
                                         tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        report_path = tmp_path / "report.json"
        code, output, err = run_cli_err(
            ["run", recovery_file, "--mode", "rcce", "--ues", "2",
             "--faults",
             "mpb_flip:p=0.02,seed=3;core_crash:core=1,at=6000",
             "--recover", "--max-restarts", "2",
             "--checkpoint", ckpt, "--report", str(report_path)])
        assert code == 0
        assert "restart" in err
        doc = json.loads(report_path.read_text())
        counters = doc["metrics"]["rcce"]["counters"]
        assert "ecc_corrected" in counters
        assert "checkpoints_captured" in counters
        # the recovery warnings printed on stderr are in the report too
        assert any(d["stage"] == "recovery" for d in doc["diagnostics"])

    def test_checkpoint_then_restore(self, recovery_file, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        code, first, _ = run_cli_err(
            ["run", recovery_file, "--mode", "rcce", "--ues", "2",
             "--checkpoint-every", "2", "--checkpoint", ckpt])
        assert code == 0
        code, second, _ = run_cli_err(
            ["run", recovery_file, "--mode", "rcce", "--ues", "2",
             "--restore", ckpt])
        assert code == 0
        assert first == second

    def test_split_run_checkpoints_and_restores(self, split_file,
                                                tmp_path):
        """A split window (§4.4: part MPB, part shared DRAM) is in the
        snapshot's allocation rows, and a restore verifies it."""
        ckpt = tmp_path / "split.ckpt"
        code, first, err = run_cli_err(
            ["run", split_file, *SPLIT_ARGS, "--checkpoint-every", "1",
             "--checkpoint", str(ckpt)])
        assert (code, err) == (0, "")
        rows = json.loads(ckpt.read_text())["lut"]
        assert ["shared", SPLIT_BASE, 2048, None, "split#0"] in rows
        code, second, err = run_cli_err(
            ["run", split_file, *SPLIT_ARGS, "--restore", str(ckpt)])
        assert (code, err) == (0, "")
        assert second == first

    def test_supervised_split_run_recovers(self, split_file, tmp_path):
        code, clean, _ = run_cli_err(["run", split_file, *SPLIT_ARGS])
        assert code == 0
        code, output, err = run_cli_err(
            ["run", split_file, *SPLIT_ARGS,
             "--faults", "core_crash:core=1,at=5000",
             "--max-restarts", "1",
             "--checkpoint", str(tmp_path / "split.ckpt")])
        assert code == 0
        assert "run completed after 1 restart" in err
        assert output == clean

    def test_bad_snapshot_exits_65(self, recovery_file, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("{ definitely not a snapshot")
        code, _, err = run_cli_err(
            ["run", recovery_file, "--mode", "rcce", "--ues", "2",
             "--restore", str(bad)])
        assert code == 65
        assert "bad snapshot" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_snapshot_exits_66(self, recovery_file, tmp_path):
        code, _, err = run_cli_err(
            ["run", recovery_file, "--mode", "rcce", "--ues", "2",
             "--restore", str(tmp_path / "absent.ckpt")])
        assert code == 66

    def test_unwritable_checkpoint_exits_73(self, recovery_file,
                                            tmp_path):
        target = tmp_path / "missing" / "s.ckpt"
        code, _, err = run_cli_err(
            ["run", recovery_file, "--mode", "rcce", "--ues", "2",
             "--checkpoint-every", "1", "--checkpoint", str(target)])
        assert code == 73
        assert err == ("repro: cannot write output: [Errno 2] No such "
                       "file or directory: '%s.tmp'\n" % target)

FIXTURES = __import__("os").path.join(
    __import__("os").path.dirname(__file__), "fixtures")


class TestRaceFlags:
    def test_clean_compare_run(self, example_file):
        code, output, err = run_cli_err(
            ["run", example_file, "--ues", "3", "--race"])
        assert code == 0
        # one audit line per mode (pthread baseline + rcce run)
        assert output.count("race audit: clean") == 2
        assert "data race" not in err

    def test_racy_fixture_warns_but_exits_0_without_strict(self):
        fixture = FIXTURES + "/race_unprotected_counter.c"
        code, output, err = run_cli_err(
            ["run", fixture, "--mode", "rcce", "--ues", "2",
             "--race"])
        assert code == 0
        assert "race audit: 2 race(s)" in output
        assert "data race" in err
        assert "core 0" in err and "core 1" in err

    def test_racy_fixture_exits_70_under_strict(self):
        fixture = FIXTURES + "/race_unprotected_counter.c"
        code, _, err = run_cli_err(
            ["run", fixture, "--mode", "rcce", "--ues", "2",
             "--race", "--strict"])
        assert code == 70
        assert "data race" in err

    def test_coherence_fixture_exits_70_under_strict(self):
        fixture = FIXTURES + "/race_cacheable_alias.c"
        code, _, err = run_cli_err(
            ["run", fixture, "--mode", "rcce", "--ues", "2",
             "--race", "--strict"])
        assert code == 70
        assert "stale cacheable" in err
        assert "stash" in err

    def test_locked_fixture_clean_under_strict(self):
        fixture = FIXTURES + "/race_locked_counter.c"
        code, output, _ = run_cli_err(
            ["run", fixture, "--mode", "rcce", "--ues", "2",
             "--race", "--strict"])
        assert code == 0
        assert "race audit: clean" in output

    def test_race_report_file(self, tmp_path):
        fixture = FIXTURES + "/race_unprotected_counter.c"
        report_path = str(tmp_path / "race.json")
        code, output, _ = run_cli_err(
            ["run", fixture, "--mode", "rcce", "--ues", "2",
             "--race", "--report", report_path])
        assert code == 0
        assert "report written to" in output
        with open(report_path) as handle:
            payload = json.load(handle)
        findings = payload["race"]["rcce"]["findings"]
        assert findings
        assert findings[0]["category"] == "race"
        assert findings[0]["current"]["epoch"]


STATIC_FIXTURES = FIXTURES + "/static"


@pytest.fixture
def pi_files(tmp_path):
    """Pi with 4 threads and with 2 (the answer is 3.141613 either
    way)."""
    paths = {}
    for threads in (2, 4):
        path = tmp_path / ("pi%d.c" % threads)
        path.write_text(benchmark_source("pi", threads, steps=64))
        paths[threads] = str(path)
    return paths


def roundtrip(payload):
    """``payload`` as it reads back from a JSON file."""
    return json.loads(json.dumps(payload, sort_keys=True))


class TestThreadCount:
    """Stage 5 maps thread k to UE k: a program that launches more
    threads than ``--ues`` is refused instead of dropping threads."""

    @pytest.mark.parametrize("mode", ["rcce", "compare"])
    def test_more_threads_than_ues_exits_65(self, pi_files, mode):
        code, output, err = run_cli_err(
            ["run", pi_files[4], "--ues", "2", "--mode", mode])
        assert code == 65
        assert output == ""  # refused before anything was simulated
        assert err.startswith("repro: too few UEs: ")
        assert "launches 4 threads but --ues is 2" in err
        assert "--fold" in err and "--ues 4" in err

    def test_analyze_bottlenecks_checks_too(self, pi_files):
        code, output, err = run_cli_err(
            ["run", pi_files[4], "--mode", "rcce", "--bottlenecks",
             "--ues", "2"])
        assert code == 65
        assert output == ""
        assert "launches 4 threads but --ues is 2" in err

    def test_fold_runs_every_thread(self, pi_files):
        code, output, _ = run_cli_err(
            ["run", pi_files[4], "--ues", "2", "--fold"])
        assert code == 0
        lines = [line for line in output.splitlines()
                 if "cycles" in line]
        assert len(lines) == 2
        assert all("pi = 3.141613" in line for line in lines)


class TestBottlenecks:
    """``run --bottlenecks`` attributes the RCCE run it simulates, so
    it shares that run's deadlock and supervisor rules."""

    def test_pthread_mode_exits_2(self, pi_files):
        code, output, err = run_cli_err(
            ["run", pi_files[2], "--mode", "pthread", "--bottlenecks"])
        assert code == 2
        assert output == ""
        assert "--bottlenecks" in err

    def test_stats_in_pthread_mode_exits_2(self, pi_files):
        """``--stats`` prints the RCCE run's chip counters: with no
        RCCE run it is a usage error, not silently ignored."""
        code, output, err = run_cli_err(
            ["run", pi_files[2], "--mode", "pthread", "--stats"])
        assert code == 2
        assert output == ""
        assert err == ("repro: --stats prints the RCCE run's chip "
                       "counters; use --mode rcce or compare\n")

    def test_deadlock_exits_75(self, tmp_path):
        path = tmp_path / "deadlock.c"
        path.write_text(DEADLOCK_KERNEL)
        started = time.monotonic()
        code, _, err = run_cli_err(
            ["run", str(path), "--mode", "rcce", "--ues", "2",
             "--bottlenecks"])
        assert time.monotonic() - started < 2.0
        assert code == 75
        assert err.startswith("repro: simulation deadlocked: deadlock "
                              "detected: rank 0 in RCCE_acquire_lock(1)")

    def test_supervised_crash_matches_fault_free(self, recovery_file,
                                                 tmp_path):
        """The restarted run replays from the beginning, so its
        attribution is the fault-free one, and it conserves."""
        reports = {}
        for name, extra in (("clean", []), ("crash", [
                "--faults", "core_crash:core=1,at=11000",
                "--max-restarts", "1",
                "--checkpoint", str(tmp_path / "run.ckpt")])):
            path = tmp_path / (name + ".json")
            code, _, err = run_cli_err(
                ["run", recovery_file, "--mode", "rcce", "--ues", "2",
                 "--bottlenecks", "--report", str(path)] + extra)
            assert code == 0
            reports[name] = json.loads(path.read_text())["attribution"]
        assert "restarted from checkpoint round" in err
        crash = reports["crash"]
        for core, classes in crash["per_core"].items():
            assert sum(classes.values()) == crash["per_core_cycles"][core]
        assert crash == reports["clean"]

    def test_restart_from_the_beginning_conserves(self, tmp_path):
        """A crash before the first checkpoint restarts the run from
        the beginning; the attribution is the final attempt's alone:
        the fault-free one, each core's classes summing to its
        cycles."""
        path = tmp_path / "pi4.c"
        path.write_text(benchmark_source("pi", 4, steps=256))
        argv = ["run", str(path), "--mode", "rcce", "--ues", "4",
                "--bottlenecks", "--report", "-"]
        code, clean, _ = run_cli_err(argv)
        assert code == 0
        code, output, err = run_cli_err(argv + [
            "--faults", "core_crash:core=1,at=5000",
            "--max-restarts", "1",
            "--checkpoint", str(tmp_path / "run.ckpt")])
        assert code == 0
        assert "restarted from the beginning" in err
        assert "run completed after 1 restart" in err
        report = json.loads(output)["attribution"]
        for core, classes in report["per_core"].items():
            assert sum(classes.values()) == \
                report["per_core_cycles"][core]
        assert report == json.loads(clean)["attribution"]


def printed_in_order(diagnostics, err):
    """True when every report diagnostic is a line of ``err``, in
    order."""
    lines = err.splitlines()
    position = 0
    for entry in diagnostics:
        text = Diagnostic(**entry).format()
        while position < len(lines) and text not in lines[position]:
            position += 1
        if position == len(lines):
            return False
        position += 1
    return True


HEADER = {"format", "version", "command", "diagnostics"}


class TestReport:
    """``--report FILE``: one versioned document per command, holding
    only the sections of the features that ran."""

    def test_run_sections(self, tmp_path):
        path = STATIC_FIXTURES + "/race_counter.c"
        report_path = tmp_path / "run.json"
        code, output, err = run_cli_err(
            ["run", path, "--ues", "2", "--race", "--static-check",
             "--report", str(report_path)])
        assert code == 0
        assert output.endswith("report written to %s\n" % report_path)
        doc = json.loads(report_path.read_text())
        assert set(doc) == HEADER | {"metrics", "race", "static"}
        assert (doc["format"], doc["version"], doc["command"]) \
            == ("repro-report", 1, "run")
        assert set(doc["metrics"]) == {"pthread", "rcce"}
        assert set(doc["race"]) == {"pthread", "rcce"}
        assert doc["race"]["rcce"]["checks"] > 0
        with open(path) as handle:
            checked = TranslationFramework(strict=False).check(
                handle.read(), filename=path)
        assert doc["static"] == roundtrip(checked.static_report.as_dict())
        # the static findings printed as warnings, and the report
        # keeps them in print order
        assert doc["diagnostics"]
        assert printed_in_order(doc["diagnostics"], err)

    def test_report_turns_no_feature_on(self, pi_files, tmp_path):
        report_path = tmp_path / "run.json"
        code, _, _ = run_cli_err(
            ["run", pi_files[2], "--ues", "2", "--mode", "rcce",
             "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert set(doc) == HEADER | {"metrics"}
        assert set(doc["metrics"]) == {"rcce"}
        assert doc["diagnostics"] == []

    def test_check_sections(self, tmp_path):
        path = STATIC_FIXTURES + "/race_counter.c"
        report_path = tmp_path / "check.json"
        code, _, _ = run_cli_err(["check", path, "--report",
                                  str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert set(doc) == HEADER | {"metrics", "static"}
        assert doc["command"] == "check"
        assert doc["diagnostics"] == []  # findings print as the audit
        assert set(doc["metrics"]) == {"static"}
        with open(path) as handle:
            checked = TranslationFramework(strict=False).check(
                handle.read(), filename=path)
        assert doc["static"] == roundtrip(checked.static_report.as_dict())

    def test_profile_section(self, tmp_path):
        report_path = tmp_path / "check.json"
        code, output, _ = run_cli_err(
            ["check", STATIC_FIXTURES + "/locked_clean.c", "--profile",
             "--report", str(report_path)])
        assert code == 0
        assert "pipeline profile" in output
        doc = json.loads(report_path.read_text())
        assert set(doc) == HEADER | {"metrics", "static", "profile"}
        names = [span["name"] for span in doc["profile"]]
        assert names[0].startswith("stage1")

    def test_analyze_sections(self, pi_files, tmp_path):
        """``run --bottlenecks`` writes the ``attribution`` section:
        the same breakdown an in-process attributed run builds."""
        report_path = tmp_path / "run.json"
        code, _, _ = run_cli_err(
            ["run", pi_files[2], "--mode", "rcce", "--bottlenecks",
             "--ues", "2", "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert set(doc) == HEADER | {"metrics", "attribution"}
        assert doc["command"] == "run"
        assert set(doc["metrics"]) == {"rcce"}
        # the heatmap inputs travel as chip counters (two UEs share a
        # tile, so only the MPB owners see traffic)
        assert "scc_mpb_owner_bytes" in doc["metrics"]["rcce"]["counters"]
        with open(pi_files[2]) as handle:
            unit = TranslationFramework().translate(handle.read()).unit
        result = run_rcce(unit, 2, attribution=True)
        assert doc["attribution"] == roundtrip(
            result.attribution.as_dict())

    def test_one_run_explains_itself(self, pi_files, tmp_path):
        """The dynamic audit, the static audit and the attribution of
        one compare run land in one document."""
        report_path = tmp_path / "run.json"
        code, _, _ = run_cli_err(
            ["run", pi_files[2], "--ues", "2", "--race",
             "--static-check", "--bottlenecks",
             "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert set(doc) == HEADER | {"metrics", "race", "static",
                                     "attribution"}
        assert set(doc["metrics"]) == {"pthread", "rcce"}
        assert set(doc["race"]) == {"pthread", "rcce"}
        with open(pi_files[2]) as handle:
            unit = TranslationFramework().translate(handle.read()).unit
        result = run_rcce(unit, 2, attribution=True)
        assert doc["attribution"] == roundtrip(
            result.attribution.as_dict())

    def test_analyze_tables_report_has_header_only(self, tmp_path,
                                                   example_file):
        report_path = tmp_path / "analyze.json"
        code, _, _ = run_cli_err(["analyze", example_file, "--report",
                                  str(report_path)])
        assert code == 0
        assert set(json.loads(report_path.read_text())) == HEADER

    def test_stdout_carries_the_document_alone(self, pi_files):
        code, output, err = run_cli_err(
            ["run", pi_files[2], "--ues", "2", "--report", "-"])
        assert code == 0
        doc = json.loads(output)  # exactly one JSON document
        assert doc["command"] == "run"
        assert "pthread x1 core" in err
        assert "rcce    x2 cores" in err
        assert "speedup:" in err
        assert "report written to stdout" in err

    def test_strict_findings_exit_70_with_report(self, tmp_path):
        report_path = tmp_path / "check.json"
        code, _, _ = run_cli_err(
            ["check", STATIC_FIXTURES + "/race_counter.c", "--strict",
             "--report", str(report_path)])
        assert code == 70
        assert json.loads(report_path.read_text())["static"]["findings"]

    def test_no_report_on_exit_65(self, pi_files, tmp_path):
        report_path = tmp_path / "run.json"
        code, output, _ = run_cli_err(
            ["run", pi_files[4], "--ues", "2", "--report", "-"])
        assert code == 65
        assert output == ""
        code, _, _ = run_cli_err(
            ["run", pi_files[4], "--ues", "2",
             "--report", str(report_path)])
        assert code == 65
        assert not report_path.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "x.c", "--metrics", "m.json"],
        ["run", "x.c", "--race-report", "r.json"],
        ["run", "x.c", "--static-report", "s.json"],
        ["check", "x.c", "--json"],
        ["check", "x.c", "--metrics", "m.json"],
        ["analyze", "x.c", "--json", "a.json"],
        # only `run` simulates: `run --bottlenecks` replaced these
        ["analyze", "x.c", "--bottlenecks"],
        ["analyze", "x.c", "--ues", "4"],
        ["analyze", "x.c", "--trace", "t.json"],
        ["analyze", "x.c", "--max-steps", "1000"],
        # deadlocks are detected exactly: there is nothing to tune
        ["run", "x.c", "--no-watchdog"],
        ["run", "x.c", "--watchdog-timeout", "5"],
        # --report is a run's one machine-readable output
        ["run", "x.c", "--trace", "t.json"],
    ])
    def test_deleted_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


OCTAL_TYPEDEF = __import__("os").path.join(FIXTURES, "frontend",
                                           "octal_typedef.c")


class TestFrontEnd:
    """Octal constants, typedef'd arithmetic types and file names in
    front-end errors, through every command."""

    def test_octal_constant_translates_and_runs(self, tmp_path):
        path = tmp_path / "octal.c"
        path.write_text('#include <stdio.h>\n'
                        'int main() { int x = 017;'
                        ' printf("%d\\n", x); return 0; }\n')
        code, output = run_cli(["translate", str(path)])
        assert code == 0
        assert "= 017;" in output
        code, output = run_cli(["check", str(path)])
        assert code == 0
        code, output = run_cli(["run", str(path), "--mode", "pthread"])
        assert code == 0
        assert "['15']" in output

    @pytest.mark.parametrize("command", ["translate", "check", "run"])
    def test_bad_octal_digit_is_a_parse_error(self, tmp_path, command):
        path = tmp_path / "octal8.c"
        path.write_text("int main() {\n    int x = 08;\n    return x; }\n")
        code, _, err = run_cli_err([command, str(path)])
        assert code == 65
        assert "invalid digit '8' in octal constant (%s, line 2, col 13)" \
            % path in err

    def test_typedef_double_computes_the_c_answer(self):
        code, output = run_cli(["run", OCTAL_TYPEDEF, "--ues", "2",
                                "--mode", "compare"])
        assert code == 0
        results = [line for line in output.splitlines()
                   if "cycles" in line]
        assert len(results) == 2
        assert all("['7.000000']" in line for line in results)

    def test_typedef_double_array_is_planned_at_its_size(self):
        code, output = run_cli(["analyze", OCTAL_TYPEDEF])
        assert code == 0
        assert re.search(r"part\s+16 B", output)

    @pytest.mark.parametrize("argv", [
        ["translate"], ["analyze"], ["check"], ["run", "--mode", "pthread"],
        ["run", "--ues", "2"]], ids=lambda argv: " ".join(argv))
    def test_parse_error_names_the_file(self, tmp_path, argv):
        path = tmp_path / "bad.c"
        path.write_text("int main() { int x = 1 +; return 0; }\n")
        code, _, err = run_cli_err(argv[:1] + [str(path)] + argv[1:])
        assert code == 65
        assert "(%s, line 1, col 25)" % path in err

    def test_stdin_is_named_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("int x = ;\n"))
        code, _, err = run_cli_err(["translate", "-"])
        assert code == 65
        assert "(<stdin>, line 1, col 9)" in err
