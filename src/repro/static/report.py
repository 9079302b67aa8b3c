"""Structured static-analysis findings with source provenance.

The shapes deliberately mirror ``repro.race.report`` — a
:class:`StaticReport` carries findings plus the check/suppression
counters, renders the same one-line-clean / indented-findings text, and
exports the same ``checks`` / ``lockset_suppressed`` / ``dropped`` /
``counts`` / ``findings`` JSON keys — so tooling that consumes the
dynamic race report can consume the static one unchanged.
"""

from repro.diagnostics import Diagnostic

STAGE = "static"

# finding categories (the check catalog)
RACE_CANDIDATE = "race-candidate"
OUT_OF_BOUNDS = "out-of-bounds"
DIV_BY_ZERO = "div-by-zero"
OVERFLOW = "overflow"
UNINIT_READ = "uninit-read"

RTE_CHECKS = (OUT_OF_BOUNDS, DIV_BY_ZERO, OVERFLOW, UNINIT_READ)

DEFINITE = "error"     # the error occurs on every concrete run
POSSIBLE = "warning"   # the abstraction cannot rule the error out


class StaticAccessSite:
    """One syntactic access to a shared variable, with the lockset the
    must-analysis proved held there and the threads that may execute
    it."""

    __slots__ = ("function", "kind", "line", "column", "locks",
                 "threads", "phase")

    def __init__(self, function, kind, line, column, locks, threads,
                 phase):
        self.function = function
        self.kind = kind              # "read" | "write"
        self.line = line
        self.column = column
        self.locks = sorted(locks)    # human-readable lock names
        self.threads = sorted(threads)
        self.phase = phase            # pre | par | post

    def describe(self):
        held = "{%s}" % ", ".join(self.locks) if self.locks \
            else "no locks"
        return "%s in %s at line %s holding %s (threads: %s)" % (
            self.kind, self.function or "<global>",
            self.line if self.line is not None else "?", held,
            ", ".join(self.threads) or "?")

    def as_dict(self):
        return {"function": self.function, "kind": self.kind,
                "line": self.line, "column": self.column,
                "locks": self.locks, "threads": self.threads,
                "phase": self.phase}


class StaticFinding:
    """One static finding — a race candidate or a run-time-error
    check violation — with file/line/variable provenance."""

    __slots__ = ("check", "severity", "variable", "function",
                 "message", "filename", "line", "column", "sites")

    def __init__(self, check, severity, variable, function, message,
                 filename=None, line=None, column=None, sites=()):
        self.check = check
        self.severity = severity      # DEFINITE | POSSIBLE
        self.variable = variable      # resolved name, or None
        self.function = function
        self.message = message
        self.filename = filename
        self.line = line
        self.column = column
        self.sites = list(sites)      # StaticAccessSite, races only

    def location(self):
        where = self.filename or "<source>"
        if self.line is not None:
            where += ":%d" % self.line
            if self.column is not None:
                where += ":%d" % self.column
        return where

    def full_message(self):
        text = "%s: %s: %s" % (self.location(), self.check,
                               self.message)
        for site in self.sites:
            text += "\n    " + site.describe()
        return text

    def as_diagnostic(self):
        # surfaced as pipeline warnings regardless of internal
        # severity: a static finding must not abort translation the
        # way a parse error does (--strict maps them to exit 70 at the
        # CLI instead, mirroring the dynamic detector)
        return Diagnostic.warning(
            STAGE, "%s: %s" % (self.check, self.message),
            filename=self.filename, line=self.line, column=self.column)

    def as_dict(self):
        return {"check": self.check, "severity": self.severity,
                "variable": self.variable, "function": self.function,
                "message": self.message, "file": self.filename,
                "line": self.line, "column": self.column,
                "sites": [site.as_dict() for site in self.sites]}

    def __repr__(self):
        return "StaticFinding(%s: %s)" % (self.check, self.message)


class StaticReport:
    """Everything one static-analysis run decided, ready to render,
    export, and count into ``repro.obs`` metrics."""

    def __init__(self):
        self.findings = []
        self.checks = {}              # check kind -> checks evaluated
        self.lockset_suppressed = 0   # shared vars a common lock covers
        self.dropped = 0              # sites skipped (unknown pointer)
        self.shared_variables = 0     # shared vars the audit examined

    # -- accumulation (the engines call these) ----------------------------

    def count_check(self, check, amount=1):
        self.checks[check] = self.checks.get(check, 0) + amount

    def add(self, finding):
        self.findings.append(finding)

    # -- queries ----------------------------------------------------------

    @property
    def has_findings(self):
        return bool(self.findings)

    @property
    def ok(self):
        return not self.has_findings

    def counts(self):
        result = {}
        for finding in self.findings:
            result[finding.check] = result.get(finding.check, 0) + 1
        return result

    def race_candidates(self):
        return [f for f in self.findings
                if f.check == RACE_CANDIDATE]

    def rte_findings(self):
        return [f for f in self.findings if f.check in RTE_CHECKS]

    def candidate_variables(self):
        return {f.variable for f in self.race_candidates()}

    @property
    def suppression_ratio(self):
        """Fraction of examined shared variables the lockset audit
        proved protected — the precision headroom the dynamic detector
        no longer has to cover."""
        considered = len(self.race_candidates()) \
            + self.lockset_suppressed
        if considered == 0:
            return 0.0
        return self.lockset_suppressed / considered

    def total_checks(self):
        return sum(self.checks.values())

    # -- output -----------------------------------------------------------

    def diagnostics(self):
        return [finding.as_diagnostic() for finding in self.findings]

    def render(self):
        if not self.has_findings:
            return "static audit: clean (%d checks over %d shared " \
                "variable(s), %d lockset-suppressed)" % (
                    self.total_checks(), self.shared_variables,
                    self.lockset_suppressed)
        counts = self.counts()
        races = counts.get(RACE_CANDIDATE, 0)
        rtes = sum(counts.get(kind, 0) for kind in RTE_CHECKS)
        lines = ["static audit: %d race candidate(s), %d run-time-"
                 "error finding(s) (%d checks, %d lockset-suppressed, "
                 "suppression ratio %.2f)"
                 % (races, rtes, self.total_checks(),
                    self.lockset_suppressed, self.suppression_ratio)]
        for finding in self.findings:
            lines.append("  " + finding.full_message())
        return "\n".join(lines)

    def as_dict(self):
        return {"checks": self.total_checks(),
                "per_check": dict(self.checks),
                "lockset_suppressed": self.lockset_suppressed,
                "dropped": self.dropped,
                "shared_variables": self.shared_variables,
                "suppression_ratio": self.suppression_ratio,
                "counts": self.counts(),
                "findings": [f.as_dict() for f in self.findings]}

    def metrics(self):
        """The per-check counters in the shape of a
        :meth:`repro.obs.metrics.MetricsRegistry.snapshot` (rows sorted
        by label values): the ``metrics.static`` section of ``repro
        check --report``."""
        found = {}
        for finding in self.findings:
            key = (finding.check, finding.severity)
            found[key] = found.get(key, 0) + 1
        counters = {}
        if self.checks:
            counters["static_checks_total"] = [
                {"labels": {"check": kind}, "value": amount}
                for kind, amount in sorted(self.checks.items())]
        if found:
            counters["static_findings_total"] = [
                {"labels": {"check": check, "severity": severity},
                 "value": count}
                for (check, severity), count in sorted(found.items())]
        counters["static_lockset_suppressed_total"] = [
            {"labels": {}, "value": self.lockset_suppressed}]
        return {"counters": counters, "gauges": {}, "histograms": {}}

    def __len__(self):
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)
