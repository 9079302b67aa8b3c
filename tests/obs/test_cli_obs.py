"""Observability through the CLI: --profile and --report."""

import io

import pytest

from repro.bench.programs import benchmark_source
from repro.cli import main


@pytest.fixture
def pi_file(tmp_path):
    path = tmp_path / "pi.c"
    # two threads: the RCCE runs below use --ues 2
    path.write_text(benchmark_source("pi", 2, steps=64))
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


class TestTranslateProfile:
    def test_profile_comments_keep_stdout_valid_c(self, pi_file):
        code, output = run_cli(["translate", pi_file, "--profile"])
        assert code == 0
        profile_lines = [line for line in output.splitlines()
                         if "pipeline profile" in line
                         or line.startswith("//   stage")]
        assert profile_lines, "no profile lines in output"
        for line in profile_lines:
            assert line.startswith("// ")

    def test_all_five_stages_timed(self, pi_file):
        _, output = run_cli(["translate", pi_file, "--profile"])
        for stage in ("stage1", "stage2", "stage3", "stage4", "stage5"):
            assert any(line.startswith("//   %s" % stage)
                       for line in output.splitlines()), stage

    def test_stage_offsets_monotone(self, pi_file):
        _, output = run_cli(["translate", pi_file, "--profile"])
        offsets = []
        for line in output.splitlines():
            if not line.startswith("//   stage"):
                continue
            offsets.append(float(
                line.split("+", 1)[1].split("s", 1)[0]))
        assert len(offsets) == 5
        assert offsets == sorted(offsets)

    def test_stage_stats_annotated(self, pi_file):
        _, output = run_cli(["translate", pi_file, "--profile"])
        assert "variables_classified=" in output
        assert "pointsto_rounds=" in output
        assert "on_chip_bytes=" in output


class TestRunTrace:
    def test_run_without_flags_writes_no_files(self, pi_file, tmp_path):
        code, output = run_cli(["run", pi_file, "--mode", "rcce",
                                "--ues", "2"])
        assert code == 0
        assert "written to" not in output
        assert list(tmp_path.glob("*.json")) == []


class TestRunMetricsSnapshot:
    def test_run_results_carry_metrics(self, pi_file):
        from repro.sim.runner import run_pthread_single_core
        with open(pi_file) as handle:
            source = handle.read()
        result = run_pthread_single_core(source)
        counters = result.metrics["counters"]
        assert "scc_cache_hits" in counters
        assert "sim_steps" in counters

    def test_rcce_run_metrics_include_barrier_histogram(self, pi_file):
        from repro.core.framework import TranslationFramework
        from repro.sim.runner import run_rcce
        with open(pi_file) as handle:
            source = handle.read()
        translated = TranslationFramework().translate(source)
        result = run_rcce(translated.unit, 2)
        rows = result.metrics["histograms"]["rcce_barrier_wait_cycles"]
        summary = rows[0]["summary"]
        # every UE waits at the finalize barrier at least once
        assert summary["count"] >= 2
        assert summary["max"] >= summary["min"] >= 0
