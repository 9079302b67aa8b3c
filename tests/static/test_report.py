"""StaticReport rendering, JSON export, and metrics publication."""

from repro.static.report import (
    DEFINITE,
    DIV_BY_ZERO,
    OUT_OF_BOUNDS,
    POSSIBLE,
    RACE_CANDIDATE,
    StaticAccessSite,
    StaticFinding,
    StaticReport,
)


def _race_finding():
    site = StaticAccessSite("worker", "write", 12, 9, [], ["worker"],
                            "par")
    return StaticFinding(
        RACE_CANDIDATE, POSSIBLE, "hits", None,
        "shared variable 'hits' has no common lock",
        filename="prog.c", line=12, column=9, sites=[site])


def _oob_finding():
    return StaticFinding(
        OUT_OF_BOUNDS, DEFINITE, "a", "main",
        "write of 'a[[7, 7]]' exceeds bound 3",
        filename="prog.c", line=4, column=5)


class TestRender:
    def test_clean(self):
        report = StaticReport()
        report.count_check(OUT_OF_BOUNDS, 3)
        report.shared_variables = 2
        text = report.render()
        assert text.startswith("static audit: clean")
        assert "3 checks" in text
        assert report.ok and not report.has_findings

    def test_findings_with_provenance(self):
        report = StaticReport()
        report.add(_race_finding())
        report.add(_oob_finding())
        text = report.render()
        assert "1 race candidate(s), 1 run-time-error finding(s)" \
            in text
        assert "prog.c:12:9" in text
        assert "write in worker at line 12" in text
        assert not report.ok

    def test_suppression_ratio(self):
        report = StaticReport()
        assert report.suppression_ratio == 0.0
        report.add(_race_finding())
        report.lockset_suppressed = 3
        assert report.suppression_ratio == 0.75


class TestExport:
    def test_as_dict_mirrors_race_report_shape(self):
        report = StaticReport()
        report.count_check(RACE_CANDIDATE, 2)
        report.add(_race_finding())
        report.lockset_suppressed = 1
        payload = report.as_dict()
        # the dynamic race report's consumer contract
        for key in ("checks", "lockset_suppressed", "dropped",
                    "counts", "findings"):
            assert key in payload
        assert payload["counts"] == {RACE_CANDIDATE: 1}
        finding = payload["findings"][0]
        assert finding["file"] == "prog.c"
        assert finding["line"] == 12
        assert finding["variable"] == "hits"
        assert finding["sites"][0]["function"] == "worker"

    def test_diagnostics_are_warnings(self):
        report = StaticReport()
        report.add(_oob_finding())
        diagnostic = report.diagnostics()[0]
        assert diagnostic.severity == "warning"
        assert diagnostic.stage == "static"
        assert diagnostic.line == 4


def _possible_oob_finding():
    return StaticFinding(
        OUT_OF_BOUNDS, POSSIBLE, "b", "main",
        "write of 'b[[0, 9]]' may exceed bound 3",
        filename="prog.c", line=6, column=5)


class TestMetrics:
    def test_metrics_rows_sorted_by_labels(self):
        report = StaticReport()
        report.count_check(OUT_OF_BOUNDS, 5)
        report.count_check(DIV_BY_ZERO, 2)
        report.count_check(RACE_CANDIDATE, 0)
        # added out of label order: the rows come out sorted
        report.add(_race_finding())
        report.add(_possible_oob_finding())
        report.add(_oob_finding())
        report.add(_oob_finding())
        report.lockset_suppressed = 4
        assert report.metrics() == {
            "counters": {
                "static_checks_total": [
                    {"labels": {"check": DIV_BY_ZERO}, "value": 2},
                    {"labels": {"check": OUT_OF_BOUNDS}, "value": 5},
                    {"labels": {"check": RACE_CANDIDATE}, "value": 0}],
                "static_findings_total": [
                    {"labels": {"check": OUT_OF_BOUNDS,
                                "severity": DEFINITE}, "value": 2},
                    {"labels": {"check": OUT_OF_BOUNDS,
                                "severity": POSSIBLE}, "value": 1},
                    {"labels": {"check": RACE_CANDIDATE,
                                "severity": POSSIBLE}, "value": 1}],
                "static_lockset_suppressed_total": [
                    {"labels": {}, "value": 4}]},
            "gauges": {},
            "histograms": {}}

    def test_metrics_suppressed_row_at_zero(self):
        """A report that checked nothing still carries the unlabelled
        lockset-suppressed row."""
        assert StaticReport().metrics() == {
            "counters": {"static_lockset_suppressed_total": [
                {"labels": {}, "value": 0}]},
            "gauges": {},
            "histograms": {}}
