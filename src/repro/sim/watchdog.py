"""The failure taxonomy of simulated runs that cannot finish.

The simulated platform synchronizes with spin-on-test-and-set mutexes,
software barriers, MPB flags and synchronous send/recv (paper §4.5) —
primitives with no timeout of their own.  A translated program with a
crossed-lock cycle, a mutex that is never released, a recv nobody
sends to, or a rank that returns before a barrier therefore used to
hang the *host* process.  Every such case now ends in a structured
error:

* every RCCE wait blocks on the world's one
  :class:`~repro.rcce.sync.Monitor`, which raises
  :class:`DeadlockError` — naming every rank's call site, and the lock
  wait-for cycle when there is one — as soon as no rank can progress;
* when a core fails or the run is interrupted, every wait ends at once
  with :class:`WatchdogAborted`, caused by the original error;
* the runners convert a blown step budget into
  :class:`SimulationTimeout`, which carries a per-core state dump
  (core, steps, cycles, current function) for every interpreter.

None of this touches simulated time.
"""

from repro.sim.interpreter import StepLimitExceeded


class WatchdogError(Exception):
    """Base class for detected deadlocks and aborted waits.  ``dumps``
    holds per-core state dumps when the runner attached them."""

    def __init__(self, message):
        super().__init__(message)
        self.dumps = []


class DeadlockError(WatchdogError):
    """No rank can make progress.  ``cycle`` lists the ``(rank,
    register)`` edges of a lock wait-for cycle, when the waits form
    one."""

    def __init__(self, message, cycle=()):
        super().__init__(message)
        self.cycle = list(cycle)


class WatchdogAborted(WatchdogError):
    """A wait was cancelled because another core already failed or the
    run was interrupted (the world aborted); the originating exception
    is the ``__cause__``."""


class SimulationTimeout(StepLimitExceeded):
    """The simulation exceeded its step/cycle budget.  Carries a
    per-core state dump so the failure is diagnosable.  Subclasses
    :class:`StepLimitExceeded` (and therefore ``InterpreterError``) so
    existing budget handling keeps working."""

    def __init__(self, message, dumps=()):
        self.dumps = list(dumps)
        super().__init__(self._render(message, self.dumps))

    @staticmethod
    def _render(message, dumps):
        if not dumps:
            return message
        lines = [message]
        for dump in dumps:
            lines.append(
                "  core %-3s rank %-3s %12s steps %14s cycles  in %s"
                % (dump.get("core"), dump.get("rank", "-"),
                   dump.get("steps"), dump.get("cycles"),
                   dump.get("function") or "?"))
        return "\n".join(lines)


def core_dumps(interpreters, ranks=None):
    """Per-core state dumps for a set of interpreters, sorted by
    core id — the payload of :class:`SimulationTimeout` and friends."""
    dumps = []
    for interp in sorted(interpreters, key=lambda i: i.core_id):
        dump = {"core": interp.core_id, "steps": interp.steps,
                "cycles": interp.cycles,
                "function": interp.current_function}
        if ranks is not None and interp.core_id in ranks:
            dump["rank"] = ranks[interp.core_id]
        dumps.append(dump)
    return dumps
