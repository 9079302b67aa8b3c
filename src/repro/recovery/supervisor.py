"""The supervised re-run report.

The supervisor itself lives in :func:`repro.sim.runner.
run_rcce_supervised`; this module holds its structured outcome so the
CLI, diagnostics, and metrics layers can consume one object:
which attempts failed and why, which checkpoint round each restart
resumed from, and whether the campaign ultimately recovered.
"""

from repro.diagnostics import INFO, WARNING, Diagnostic
from repro.faults import CoreCrashFault
from repro.recovery.ecc import UncorrectableECCError
from repro.sim.watchdog import SimulationTimeout

# Failures worth a supervised restart: one-shot crashes do not re-fire
# on replay, and a hung attempt may have been wedged by the fault the
# checkpoint predates.  Everything else (parse errors, divergence,
# retry exhaustion — all deterministic under replay) fails fast.
RESTARTABLE_ERRORS = (CoreCrashFault, SimulationTimeout,
                      UncorrectableECCError)


class RecoveryReport:
    """Outcome of one supervised campaign (N attempts, <= N-1 restarts)."""

    def __init__(self, max_restarts=0):
        self.max_restarts = max_restarts
        self.failures = []   # one dict per failed attempt
        self.restarts = 0    # restarts actually performed
        self.recovered = False

    def record_failure(self, attempt, exc, restored_round=None,
                       audit=None):
        self.failures.append({
            "attempt": attempt,
            "error": type(exc).__name__,
            "message": str(exc).splitlines()[0] if str(exc) else "",
            "restored_from_round": restored_round,
            # the failed attempt's RaceReport (race=... runs), so an
            # audit finding that died with the attempt still surfaces
            "audit": audit,
        })

    @property
    def attempts(self):
        """Attempts started (failures plus the final one)."""
        return len(self.failures) + 1

    def as_dict(self):
        failures = []
        for failure in self.failures:
            entry = dict(failure)
            audit = entry.get("audit")
            if audit is not None:
                entry["audit"] = audit.as_dict() \
                    if hasattr(audit, "as_dict") else audit
            failures.append(entry)
        return {"max_restarts": self.max_restarts,
                "restarts": self.restarts,
                "recovered": self.recovered,
                "failures": failures}

    def diagnostics(self):
        """The report as pipeline-style diagnostics (stage
        'recovery'), for ``RunResult.diagnostics`` and the CLI."""
        found = []
        for failure in self.failures:
            where = failure["restored_from_round"]
            found.append(Diagnostic(
                "recovery", WARNING,
                "attempt %d failed (%s: %s); restarted %s"
                % (failure["attempt"] + 1, failure["error"],
                   failure["message"],
                   "from checkpoint round %d" % where
                   if where is not None else "from the beginning")))
            audit = failure.get("audit")
            if audit is not None and audit.findings:
                found.append(Diagnostic(
                    "recovery", WARNING,
                    "attempt %d's race audit reported %d finding(s) "
                    "before the failure"
                    % (failure["attempt"] + 1, len(audit.findings))))
        if self.recovered:
            found.append(Diagnostic(
                "recovery", INFO,
                "run completed after %d restart(s)" % self.restarts))
        return found

    def __repr__(self):
        return "RecoveryReport(restarts=%d, recovered=%r)" % (
            self.restarts, self.recovered)
