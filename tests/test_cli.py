"""CLI tests (python -m repro)."""

import io
import json
import signal

import pytest

from repro.bench.programs import EXAMPLE_4_1, benchmark_source
from repro.cli import build_parser, main
from repro.core.framework import TranslationFramework
from repro.diagnostics import Diagnostic
from repro.sim.runner import run_rcce
from tests.sim.test_parallel_recovery import (
    RING_SOURCE,
    live_workers,
    signal_worker,
)


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
        path.write_text("""
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            printf("ue %d\\n", RCCE_ue());
            return 0;
        }
        """)
        code, output = run_cli(["run", str(path), "--mode", "rcce",
                                "--ues", "2"])
        assert code == 0
        assert "x2 cores" in output

    def test_fold_flag(self, tmp_path):
        path = tmp_path / "pi.c"
        path.write_text(benchmark_source("pi", nthreads=8, steps=128))
        code, output = run_cli(["run", str(path), "--ues", "2",
                                "--fold", "--mode", "rcce"])
        assert code == 0


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


class TestErrorHandling:
    def test_missing_input_exits_66(self):
        code, _, err = run_cli_err(["translate", "/no/such/file.c"])
        assert code == 66
        assert "cannot read input" in err
        assert len(err.strip().splitlines()) == 1

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
        code, _, err = run_cli_err(
            ["run", str(path), "--mode", "rcce", "--ues", "2",
             "--watchdog-timeout", "5"])
        assert code == 75
        assert "simulation timed out" in err
        assert "deadlock" in err

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

    def test_no_watchdog_flag_accepted(self, example_file):
        code, output = run_cli(["run", example_file, "--ues", "3",
                                "--mode", "rcce", "--no-watchdog"])
        assert code == 0



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

class TestParallelFlags:
    def test_jobs_zero_exits_2(self, example_file):
        code, _, err = run_cli_err(["run", example_file,
                                    "--jobs", "0"])
        assert code == 2
        assert "--jobs" in err

    def test_jobs_negative_exits_2(self, example_file):
        code, _, err = run_cli_err(["run", example_file,
                                    "--jobs", "-2"])
        assert code == 2

    def test_quantum_zero_exits_2(self, example_file):
        code, _, err = run_cli_err(["run", example_file,
                                    "--jobs", "2", "--quantum", "0"])
        assert code == 2
        assert "--quantum" in err

    def test_jobs_output_is_byte_identical(self, example_file):
        sequential = run_cli(["run", example_file, "--ues", "3"])
        parallel = run_cli(["run", example_file, "--ues", "3",
                            "--jobs", "2"])
        assert parallel == sequential

    def test_incompatible_feature_warns_without_strict(
            self, example_file):
        code, _, err = run_cli_err(
            ["run", example_file, "--mode", "rcce", "--ues", "3",
             "--jobs", "2", "--race"])
        assert code == 0
        assert "warning" in err
        assert "race detection" in err
        assert "running sequentially (jobs=1)" in err

    def test_incompatible_feature_exits_2_under_strict(
            self, example_file):
        code, _, err = run_cli_err(
            ["run", example_file, "--mode", "rcce", "--ues", "2",
             "--jobs", "2", "--race", "--strict"])
        assert code == 2
        assert "--race" in err
        assert "sequential (jobs=1)" in err

    def test_native_program_runs_sharded(self, tmp_path):
        path = tmp_path / "native.c"
        path.write_text("""
        #include <stdio.h>
        #include <RCCE.h>
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            printf("ue %d\\n", RCCE_ue());
            return 0;
        }
        """)
        sequential = run_cli(["run", str(path), "--mode", "rcce",
                              "--ues", "4"])
        parallel = run_cli(["run", str(path), "--mode", "rcce",
                            "--ues", "4", "--jobs", "2"])
        assert parallel == sequential
        assert parallel[0] == 0


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


class TestChaosFlags:
    """``--jobs`` runs that go wrong: a dead worker, a watchdog, a
    simulated deadlock."""

    @pytest.fixture
    def ring_file(self, tmp_path):
        path = tmp_path / "ring.c"
        path.write_text(RING_SOURCE)
        return str(path)

    def test_killed_worker_exits_2_under_strict(self, ring_file):
        thread, signalled = signal_worker(signal.SIGKILL)
        code, _, err = run_cli_err(
            ["run", ring_file, "--mode", "rcce", "--ues", "4",
             "--jobs", "2", "--strict"])
        thread.join(timeout=30.0)
        assert signalled
        assert code == 2
        assert "--strict" in err
        assert "degraded to sequential (jobs=1)" in err
        assert "shard 1" in err
        assert live_workers() == []

    def test_watchdog_with_jobs_no_longer_downgrades(
            self, ring_file):
        code, _, err = run_cli_err(
            ["run", ring_file, "--mode", "rcce", "--ues", "4",
             "--jobs", "2", "--watchdog-timeout", "30", "--strict"])
        assert code == 0
        assert "sequential" not in err

    def test_parallel_deadlock_names_rank_and_site(self, tmp_path):
        path = tmp_path / "recv_deadlock.c"
        path.write_text(RECV_DEADLOCK_KERNEL)
        code, _, err = run_cli_err(
            ["run", str(path), "--mode", "rcce", "--ues", "2",
             "--jobs", "2", "--watchdog-timeout", "2"])
        assert code == 75
        assert "rank 0 parked at recv sync site" in err
        assert "rank 1 parked at barrier sync site" in err


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
        code, _, err = run_cli_err(
            ["analyze", pi_files[4], "--bottlenecks", "--ues", "2"])
        assert code == 65
        assert "launches 4 threads but --ues is 2" in err

    def test_fold_runs_every_thread(self, pi_files):
        code, output, _ = run_cli_err(
            ["run", pi_files[4], "--ues", "2", "--fold"])
        assert code == 0
        lines = [line for line in output.splitlines()
                 if "cycles" in line]
        assert len(lines) == 2
        assert all("pi = 3.141613" in line for line in lines)


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
        report_path = tmp_path / "analyze.json"
        code, _, _ = run_cli_err(
            ["analyze", pi_files[2], "--bottlenecks", "--ues", "2",
             "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert set(doc) == HEADER | {"metrics", "attribution"}
        assert doc["command"] == "analyze"
        assert set(doc["metrics"]) == {"rcce"}
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
    ])
    def test_deleted_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
