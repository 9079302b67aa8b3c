"""Synchronization primitives for the RCCE emulation.

:class:`Monitor` is the one condition every wait of an RCCE world
blocks on.  Every primitive keeps its state under it and notifies it
on each change, so the monitor sees every rank that waits and detects
a deadlock exactly and at once (see :meth:`Monitor.wait`).

:class:`ClockBarrier` synchronizes the *simulated clocks* as well as
the Python threads: every participant's cycle counter advances to the
slowest participant's, plus the modelled barrier cost — exactly how a
real barrier serializes progress.

:class:`TestAndSetRegisters` models the one test-and-set register each
SCC core owns (§4.5): acquiring lock ``k`` spins on core ``k``'s
register, so the cost depends on mesh distance to that tile.
"""

import threading

from repro.sim.watchdog import DeadlockError, WatchdogAborted


class Monitor:
    """The condition that guards the state of every RCCE primitive of
    one world of ``parties`` ranks.

    A blocking call holds :attr:`condition` and waits through
    :meth:`wait` with its call site and a readiness test; every state
    change notifies the condition.  When a rank starts to wait or
    exits, and every rank has exited or waits with a false readiness
    test, no rank can ever change the state again: that is a deadlock,
    raised as :class:`DeadlockError` in the rank that completed it.
    The tests of the waiting ranks are re-evaluated each time, so a
    rank that was woken but has not run yet is not mistaken for a
    stuck one; a rank whose thread has not started counts as running.
    """

    def __init__(self, parties):
        self.parties = parties
        self.condition = threading.Condition()
        self.blocked = {}     # rank -> (site, ready, wanted register)
        self.exited = set()
        self.owners = {}      # test-and-set register -> holding rank
        self.failure = None   # the abort's cause; every wait then fails

    def wait(self, rank, site, ready, register=None):
        """Block ``rank`` at ``site`` (e.g. ``"RCCE_recv from rank
        1"``) until ``ready()`` holds; the caller holds
        :attr:`condition`.  A lock wait names the ``register`` it
        wants, which the deadlock report follows to a wait-for cycle.
        Once the world is aborted, the wait raises
        :class:`WatchdogAborted` caused by the original failure."""
        if self.failure is None and ready():
            return
        self.blocked[rank] = (site, ready, register)
        try:
            self._detect()
            while self.failure is None and not ready():
                self.condition.wait()
        finally:
            del self.blocked[rank]
        if self.failure is not None:
            raise WatchdogAborted(
                "%s cancelled: another core already failed (%s: %s)"
                % (site, type(self.failure).__name__, self.failure)) \
                from self.failure

    def exit(self, rank):
        """``rank``'s program returned; raises :class:`DeadlockError`
        when that leaves every other rank stuck."""
        with self.condition:
            self.exited.add(rank)
            self._detect()

    def abort(self, failure):
        """Wake every wait, now and later, with ``failure`` (the first
        one reported) as the cause."""
        with self.condition:
            if self.failure is None:
                self.failure = failure
            self.condition.notify_all()

    def _detect(self):
        blocked = self.blocked
        if self.failure is not None or not blocked or \
                len(blocked) + len(self.exited) < self.parties:
            return
        for _site, ready, _register in blocked.values():
            if ready():
                return
        message = "deadlock detected: " + "; ".join(
            "rank %d in %s" % (rank, blocked[rank][0])
            if rank in blocked else "rank %d has exited" % rank
            for rank in range(self.parties))
        cycle = self._cycle()
        if cycle:
            message += "\nlock wait-for cycle: %s -> back to rank %d" % (
                " -> ".join("rank %d waits for register %d" % edge
                            for edge in cycle), cycle[0][0])
        raise DeadlockError(message, cycle)

    def _cycle(self):
        """The first cycle of lock waits, as ``(rank, register)``
        edges from its lowest rank (rank -> wanted register -> its
        holder -> ...), or ``[]``."""
        wants = {rank: register
                 for rank, (_site, _ready, register) in self.blocked.items()
                 if register is not None}
        for start in sorted(wants):
            cycle, rank = [], start
            while rank in wants and len(cycle) < len(wants):
                cycle.append((rank, wants[rank]))
                rank = self.owners.get(wants[rank])
                if rank == start:
                    return cycle
        return []


class ClockBarrier:
    """A barrier that aligns simulated cycle counters.

    Each party publishes its clock; the last to arrive computes the
    aligned clock, runs the round hook and releases the round.  A party
    of round N+1 cannot complete that round before every party of
    round N has left, so one aligned value serves every round.
    """

    def __init__(self, monitor, parties, cost_cycles=0):
        self.monitor = monitor
        self.parties = parties
        self.cost_cycles = cost_cycles
        self._clocks = {}
        self._aligned = 0
        self._released = 0       # rounds released; never reset
        self.rounds = 0
        # quiesce-point hook (repro.recovery.checkpoint): called by the
        # last party to arrive, with every other party parked; None
        # costs one attribute check per round
        self.on_round = None
        # race detector (repro.race): barrier entry/exit edges
        self.race = None

    def published_clocks(self):
        """rank -> entry clock for the round in flight.  Meaningful
        from the round hook, where every party has published and none
        has resumed."""
        return dict(self._clocks)

    def wait(self, rank, clock, site="RCCE_barrier"):
        """Synchronize; returns the new (aligned) clock value."""
        race = self.race
        if race is not None:
            race.barrier_enter(rank, self.parties, key=id(self))
        monitor = self.monitor
        with monitor.condition:
            self._clocks[rank] = clock
            released = self._released
            if len(self._clocks) == self.parties:
                self.rounds += 1
                hook = self.on_round
                if hook is not None:
                    hook(self.rounds)
                self._aligned = max(self._clocks.values()) \
                    + self.cost_cycles
                self._clocks = {}
                self._released += 1
                monitor.condition.notify_all()
            else:
                monitor.wait(rank, site,
                             lambda: self._released != released)
            aligned = self._aligned
        if race is not None:
            race.barrier_exit(rank, key=id(self))
        return aligned


class TestAndSetRegisters:
    """One atomic test-and-set register per core.

    ``owners`` (the monitor's) tracks which rank holds each register;
    ``acquire`` waits until the register is free, as the hardware spin
    would.
    """

    __test__ = False  # not a pytest class, despite the hardware's name

    def __init__(self, monitor, num_cores):
        self.monitor = monitor
        self.num_cores = num_cores
        self.acquisitions = [0] * num_cores
        self.owners = monitor.owners  # register index -> holding rank
        # race detector (repro.race): release->acquire ordering edges
        self.race = None

    def acquire(self, register, rank):
        index = register % self.num_cores
        owners = self.owners
        monitor = self.monitor
        with monitor.condition:
            monitor.wait(rank, "RCCE_acquire_lock(%d)" % register,
                         lambda: index not in owners, index)
            owners[index] = rank
            self.acquisitions[index] += 1
        if self.race is not None:
            self.race.lock_acquire(rank, ("reg", index))

    def release(self, register, rank):
        """Free the register; releasing a free one is a no-op, as on
        the SCC register."""
        index = register % self.num_cores
        if self.race is not None:
            self.race.lock_release(rank, ("reg", index))
        with self.monitor.condition:
            self.owners.pop(index, None)
            self.monitor.condition.notify_all()
