"""CLI contract: ``repro check`` and ``repro run --static-check``.

Every negative fixture must be detected with file/line/variable
provenance and exit 70 under --strict; the correctly locked twin must
exit 0; and without --static-check the run pipeline's output must not
change at all."""

import io
import json
import os

import pytest

from repro.cfront.frontend import parse_program
from repro.cli import EXIT_OK, EXIT_SIM, main
from repro.core.framework import TranslationFramework

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "static")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestCheckExitCodes:
    @pytest.mark.parametrize("name,needle", [
        ("race_counter.c", "hits"),
        ("oob_write.c", "out-of-bounds"),
        ("uninit_read.c", "'x' is read before it is initialized"),
        ("overflow_loop.c", "overflow"),
    ])
    def test_negative_fixtures_fail_strict(self, name, needle):
        code, out, _ = run_cli(["check", fixture(name), "--strict"])
        assert code == EXIT_SIM
        assert needle in out
        # file and line provenance on every finding line
        assert "%s:" % name in out

    def test_negative_fixture_exits_zero_without_strict(self):
        code, out, _ = run_cli(["check", fixture("race_counter.c")])
        assert code == EXIT_OK
        assert "race candidate" in out

    def test_clean_twin_exits_zero_under_strict(self):
        code, out, _ = run_cli(["check", fixture("locked_clean.c"),
                                "--strict"])
        assert code == EXIT_OK
        assert "static audit: clean" in out
        assert "lockset-suppressed" in out

    def test_truncating_division_exits_zero_under_strict(self):
        # arr[a / 2] and arr[a >> 1] with a = 7 both index arr[3]
        code, out, _ = run_cli(["check", fixture("div_index_clean.c"),
                                "--strict"])
        assert code == EXIT_OK
        assert "static audit: clean" in out

    def test_race_counter_reports_both_counters_with_sites(self):
        _, out, _ = run_cli(["check", fixture("race_counter.c")])
        assert "'hits'" in out and "'misses'" in out
        assert "write in worker at line" in out


class TestCheckOutputs:
    def test_json_on_stdout(self):
        code, out, _ = run_cli(["check", fixture("oob_write.c"),
                                "--report", "-"])
        assert code == EXIT_OK
        payload = json.loads(out)["static"]
        assert payload["counts"] == {"out-of-bounds": 1}
        finding = payload["findings"][0]
        assert finding["file"].endswith("oob_write.c")
        assert finding["line"] is not None

    def test_report_file(self, tmp_path):
        path = str(tmp_path / "static.json")
        code, out, _ = run_cli(["check", fixture("race_counter.c"),
                                "--report", path])
        assert code == EXIT_OK
        assert "report written to" in out
        with open(path) as handle:
            payload = json.load(handle)["static"]
        assert {f["variable"] for f in payload["findings"]} \
            == {"hits", "misses"}

    def test_metrics_file(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        code, out, _ = run_cli(["check", fixture("uninit_read.c"),
                                "--report", path])
        assert code == EXIT_OK
        with open(path) as handle:
            counters = json.load(handle)["metrics"]["static"]["counters"]
        assert "static_checks_total" in counters
        assert "static_findings_total" in counters

    def test_parse_error_exits_65(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        code, _, err = run_cli(["check", str(bad)])
        assert code == 65
        assert err


class TestRunIntegration:
    def test_static_check_gates_strict_exit(self):
        code, out, _ = run_cli(["run", fixture("race_counter.c"),
                                "--ues", "2", "--mode", "rcce",
                                "--static-check", "--strict"])
        assert code == EXIT_SIM
        assert "static audit: 2 race candidate(s)" in out

    def test_static_report_flag_writes_json(self, tmp_path):
        path = str(tmp_path / "static.json")
        code, out, _ = run_cli(["run", fixture("locked_clean.c"),
                                "--ues", "2", "--mode", "rcce",
                                "--static-check", "--report", path])
        assert code == EXIT_OK
        assert "static audit: clean" in out
        with open(path) as handle:
            assert json.load(handle)["static"]["lockset_suppressed"] \
                == 2

    def test_off_by_default_output_is_unchanged(self):
        code, out, err = run_cli(["run", fixture("locked_clean.c"),
                                  "--ues", "2", "--mode", "rcce"])
        assert code == EXIT_OK
        assert "static" not in out and "static" not in err

    def test_pipeline_result_identical_when_disabled(self):
        """The static stage never changes the translation: a unit
        translated after ``check()`` ran on it translates as a fresh
        parse of the source does."""
        with open(fixture("locked_clean.c")) as handle:
            source = handle.read()
        plain = TranslationFramework().translate(source)
        assert plain.static_report is None
        framework = TranslationFramework()
        unit = parse_program(source)
        checked = framework.check(unit)
        assert checked.static_report is not None
        translated = framework.translate(unit)
        assert translated.static_report is None
        assert translated.rcce_source == plain.rcce_source
