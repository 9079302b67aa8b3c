"""Deadlock/livelock detection and bounded-failure machinery.

The simulated platform synchronizes with spin-on-test-and-set mutexes
and software barriers (paper §4.5) — primitives with no timeout of
their own.  A translated program with a crossed-lock cycle, a mutex
that is never released, or a crashed peer therefore used to hang the
*host* process.  The watchdog turns every such hang into a structured,
bounded failure:

* :meth:`Watchdog.acquire_lock` replaces the blind blocking acquire
  with a sliced wait that builds the lock wait-for graph (rank → wanted
  register → holding rank → …) and raises :class:`DeadlockError` with
  the full cycle as soon as one closes; a non-cyclic starvation raises
  :class:`LockTimeoutError` after ``lock_timeout`` wall seconds.
* :class:`~repro.rcce.sync.ClockBarrier` takes wall-clock timeouts and
  propagates ``abort()`` with the originating exception
  (:class:`BarrierAbortedError` / :class:`BarrierTimeoutError`).
* The runners convert a blown step budget into
  :class:`SimulationTimeout`, which carries a per-core state dump
  (core, steps, cycles, current function) for every interpreter.

With no watchdog installed every primitive behaves exactly as before —
the cycle accounting never changes either way, so enabling the
watchdog does not perturb simulated results.
"""

import threading
import time

from repro.sim.interpreter import StepLimitExceeded

DEFAULT_LOCK_TIMEOUT = 30.0
DEFAULT_BARRIER_TIMEOUT = 600.0
DEFAULT_SPIN_SLICE = 0.05


class WatchdogError(Exception):
    """Base class for watchdog-detected failures.  ``dumps`` holds
    per-core state dumps when the runner attached them."""

    def __init__(self, message):
        super().__init__(message)
        self.dumps = []


class DeadlockError(WatchdogError):
    """A cycle in the lock wait-for graph."""

    def __init__(self, message, cycle=()):
        super().__init__(message)
        self.cycle = list(cycle)


class LockTimeoutError(WatchdogError):
    """A lock wait exceeded the wall-clock bound without a detectable
    cycle (e.g. the holder finished without releasing)."""


class BarrierTimeoutError(WatchdogError):
    """A barrier wait exceeded its wall-clock bound (dead peer or a
    peer stuck elsewhere)."""


class BarrierAbortedError(WatchdogError):
    """The barrier was aborted, usually because a peer failed; the
    originating exception, when known, is the ``__cause__``."""


class WatchdogAborted(WatchdogError):
    """A lock, send/recv or flag wait was cancelled because another
    core already failed or the run was interrupted (the world
    aborted)."""


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


class Watchdog:
    """Run-wide supervision of blocking synchronization waits.

    One watchdog serves one run.  ``lock_timeout`` bounds any single
    lock wait in wall seconds, ``barrier_timeout`` any barrier wait;
    ``spin_slice`` is the poll interval for supervised lock waits (and
    the cadence of deadlock-cycle checks).
    """

    def __init__(self, lock_timeout=DEFAULT_LOCK_TIMEOUT,
                 barrier_timeout=DEFAULT_BARRIER_TIMEOUT,
                 spin_slice=DEFAULT_SPIN_SLICE):
        self.lock_timeout = lock_timeout
        self.barrier_timeout = barrier_timeout
        self.spin_slice = spin_slice
        self.deadlocks_detected = 0
        self._waiting = {}      # rank -> register it is blocked on
        self._lock = threading.Lock()
        self._aborted = False

    def abort(self):
        """Cancel every supervised wait (a peer already failed)."""
        self._aborted = True

    @property
    def aborted(self):
        return self._aborted

    # -- supervised lock acquisition ---------------------------------------

    def acquire_lock(self, lock, register, rank, owners):
        """Acquire ``lock`` (test-and-set register ``register``) on
        behalf of ``rank``, watching for deadlock.  ``owners`` is the
        live register→holder map maintained by the caller."""
        deadline = time.monotonic() + self.lock_timeout
        if rank is not None:
            with self._lock:
                self._waiting[rank] = register
        try:
            while True:
                if lock.acquire(timeout=self.spin_slice):
                    return
                if self._aborted:
                    raise WatchdogAborted(
                        "lock wait on register %d cancelled: another "
                        "core already failed" % register)
                cycle = self._find_cycle(rank, owners)
                if cycle is not None:
                    # One more chance: the cycle may be a transient
                    # hand-off artefact.  Re-probe the lock, then
                    # require the same cycle a second time.
                    if lock.acquire(timeout=self.spin_slice):
                        return
                    if self._find_cycle(rank, owners) == cycle:
                        self.deadlocks_detected += 1
                        self._aborted = True
                        raise DeadlockError(
                            self._render_cycle(cycle), cycle=cycle)
                if time.monotonic() > deadline:
                    holder = owners.get(register)
                    raise LockTimeoutError(
                        "rank %s waited more than %gs for test-and-set "
                        "register %d (held by %s) — mutex never "
                        "released or holder dead"
                        % (rank, self.lock_timeout, register,
                           "rank %s" % holder if holder is not None
                           else "an unknown owner"))
        finally:
            if rank is not None:
                with self._lock:
                    self._waiting.pop(rank, None)

    def _find_cycle(self, start, owners):
        """Follow start → wanted register → holder → … until the walk
        returns to ``start`` (a deadlock cycle, returned as a list of
        ``(rank, register)`` edges) or dead-ends (``None``)."""
        if start is None:
            return None
        with self._lock:
            waiting = dict(self._waiting)
        cycle = []
        rank = start
        seen = set()
        while True:
            register = waiting.get(rank)
            if register is None:
                return None
            cycle.append((rank, register))
            holder = owners.get(register)
            if holder is None or holder == rank:
                return None
            if holder == start:
                return cycle
            if holder in seen:
                return None  # a cycle, but not through ``start``
            seen.add(holder)
            rank = holder

    @staticmethod
    def _render_cycle(cycle):
        chain = " -> ".join(
            "rank %s waits for register %d" % edge for edge in cycle)
        return ("deadlock detected in the lock wait-for graph: %s -> "
                "back to rank %s" % (chain, cycle[0][0]))
