"""Synchronization primitives for the RCCE emulation.

:class:`ClockBarrier` synchronizes the *simulated clocks* as well as
the Python threads: every participant's cycle counter advances to the
slowest participant's, plus the modelled barrier cost — exactly how a
real barrier serializes progress.

:class:`TestAndSetRegisters` models the one test-and-set register each
SCC core owns (§4.5): acquiring lock ``k`` spins on core ``k``'s
register, so the cost depends on mesh distance to that tile.

Robustness: a barrier participant that dies (or a run-level ``abort``)
no longer strands the survivors — waits are wall-clock bounded and an
abort carries the originating exception to every waiter
(:class:`~repro.sim.watchdog.BarrierAbortedError`).  Lock acquisition
optionally runs under a :class:`~repro.sim.watchdog.Watchdog`, which
detects wait-for cycles (crossed mutexes) and never-released locks.
"""

import threading

from repro.sim.watchdog import (
    DEFAULT_BARRIER_TIMEOUT,
    BarrierAbortedError,
    BarrierTimeoutError,
)


class ClockBarrier:
    """A two-phase barrier that aligns simulated cycle counters.

    Phase 1: everyone publishes its clock and waits.  Phase 2 (after
    the max is computed) keeps fast threads from racing ahead and
    clobbering the published clocks of the next round.

    ``timeout`` bounds each phase's wait in wall seconds; a peer that
    never arrives (it crashed, or the program deadlocked elsewhere)
    breaks the barrier for everyone with a
    :class:`BarrierTimeoutError` instead of hanging the host process.
    """

    def __init__(self, parties, cost_cycles=0,
                 timeout=DEFAULT_BARRIER_TIMEOUT):
        self.parties = parties
        self.cost_cycles = cost_cycles
        self.timeout = timeout
        self.failure = None      # originating exception, via abort()
        self._aborted = False
        self._clocks = {}
        self._max_holder = [0]
        self._lock = threading.Lock()
        self._phase1 = threading.Barrier(parties, action=self._compute_max)
        self._phase2 = threading.Barrier(parties)
        self.rounds = 0
        # quiesce-point hook (repro.recovery.checkpoint): called from
        # the phase-1 action with every party parked; None costs one
        # attribute check per round
        self.on_round = None
        # race detector (repro.race): barrier entry/exit edges
        self.race = None

    def _compute_max(self):
        self._max_holder[0] = max(self._clocks.values())
        self.rounds += 1
        hook = self.on_round
        if hook is not None:
            try:
                hook(self.rounds)
            except BaseException as exc:
                # the action's thread re-raises out of wait(); record
                # the cause first so peers see a BarrierAbortedError
                # naming it instead of a misleading timeout
                if self.failure is None:
                    self.failure = exc
                raise

    def published_clocks(self):
        """rank -> entry clock for the round in flight.  Meaningful
        from the phase-1 action, where every party has published and
        none has resumed."""
        return dict(self._clocks)

    def wait(self, rank, clock):
        """Synchronize; returns the new (aligned) clock value."""
        race = self.race
        if race is not None:
            race.barrier_enter(rank, self.parties, key=id(self))
        with self._lock:
            self._clocks[rank] = clock
        try:
            self._phase1.wait(self.timeout)
            aligned = self._max_holder[0] + self.cost_cycles
            self._phase2.wait(self.timeout)
        except threading.BrokenBarrierError:
            raise self._broken_error(rank) from self.failure
        if race is not None:
            race.barrier_exit(rank, key=id(self))
        return aligned

    def _broken_error(self, rank):
        if self.failure is not None:
            return BarrierAbortedError(
                "barrier aborted after a peer failed: %s: %s"
                % (type(self.failure).__name__, self.failure))
        if self._aborted:
            return BarrierAbortedError("barrier aborted")
        return BarrierTimeoutError(
            "rank %s waited more than %gs at the barrier — a peer is "
            "dead or stuck (deadlock/livelock elsewhere)"
            % (rank, self.timeout))

    def abort(self, failure=None):
        """Break the barrier for every current and future waiter.
        ``failure`` (the originating exception) is propagated to them
        as the cause of their :class:`BarrierAbortedError`."""
        if failure is not None and self.failure is None:
            self.failure = failure
        self._aborted = True
        self._phase1.abort()
        self._phase2.abort()


class SkewBarrier:
    """Graphite-style lax clock synchronization bookkeeping.

    The parallel backend (``repro.sim.parallel``) lets each shard of
    simulated cores run ahead under its own clock, reconciling at
    **quantum** boundaries (every ``quantum`` simulated cycles) and —
    early — at every true sync point (:class:`ClockBarrier` rounds,
    test-and-set registers, MPB flags, send/recv rendezvous).  Because
    every cross-shard value and every cross-shard clock comparison in
    this simulator already flows through those sync primitives, the
    quantum checkpoint is pure *bookkeeping*: shards publish their
    clocks here (never blocking — a shard parked inside ``recv`` must
    not be waited on), and the recorded skew shows how far the lax
    clocks drifted between reconciliations.  Results are byte-identical
    to the sequential engine by construction, for any quantum.
    """

    DEFAULT_QUANTUM = 50_000  # simulated cycles between checkpoints

    def __init__(self, num_shards, quantum=DEFAULT_QUANTUM):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if quantum < 1:
            raise ValueError("quantum must be >= 1 cycle")
        self.num_shards = num_shards
        self.quantum = quantum
        self._lock = threading.Lock()
        self._clocks = {}              # shard -> last published clock
        self.quantum_reconciliations = [0] * num_shards
        self.sync_reconciliations = [0] * num_shards
        self.max_skew = 0              # widest clock spread observed

    def _publish(self, shard, clock):
        self._clocks[shard] = clock
        if len(self._clocks) > 1:
            spread = max(self._clocks.values()) - min(
                self._clocks.values())
            if spread > self.max_skew:
                self.max_skew = spread

    def note_quantum(self, shard, clock):
        """A shard crossed a quantum boundary: publish its clock and
        return the next quantum deadline.  Never blocks."""
        with self._lock:
            self.quantum_reconciliations[shard] += 1
            self._publish(shard, clock)
        return clock + self.quantum

    def note_sync(self, shard, clock=None):
        """A shard reached a true sync point (barrier, lock, flag,
        send/recv): an early reconciliation.  ``clock`` is optional —
        some sync ops (lock acquire/release) carry no clock."""
        with self._lock:
            self.sync_reconciliations[shard] += 1
            if clock is not None:
                self._publish(shard, clock)

    def reconciliations(self, shard):
        return (self.quantum_reconciliations[shard]
                + self.sync_reconciliations[shard])

    def total_reconciliations(self):
        return (sum(self.quantum_reconciliations)
                + sum(self.sync_reconciliations))


class TestAndSetRegisters:
    """One atomic test-and-set register per core.

    ``owners`` tracks which rank currently holds each register — the
    input to the watchdog's wait-for-graph deadlock detection.  With no
    watchdog, ``acquire`` blocks indefinitely exactly as the hardware
    register spin would.
    """

    __test__ = False  # not a pytest class, despite the hardware's name

    def __init__(self, num_cores, watchdog=None):
        self.num_cores = num_cores
        self.watchdog = watchdog
        self._locks = [threading.Lock() for _ in range(num_cores)]
        self.acquisitions = [0] * num_cores
        self.owners = {}  # register index -> holding rank
        # race detector (repro.race): release->acquire ordering edges
        self.race = None

    def contended(self, register):
        """Whether register ``register`` is currently held (the
        would-be acquirer would spin)."""
        return self._locks[register % self.num_cores].locked()

    def reset_counts(self):
        self.acquisitions = [0] * self.num_cores

    def acquire(self, register, rank=None):
        index = register % self.num_cores
        lock = self._locks[index]
        if self.watchdog is None:
            lock.acquire()
        else:
            self.watchdog.acquire_lock(lock, index, rank, self.owners)
        self.owners[index] = rank
        self.acquisitions[index] += 1
        if self.race is not None and rank is not None:
            self.race.lock_acquire(rank, ("reg", index))

    def release(self, register, rank=None):
        index = register % self.num_cores
        if self.race is not None and rank is not None:
            self.race.lock_release(rank, ("reg", index))
        # clear ownership before freeing the lock so the watchdog never
        # sees a free register with a stale owner
        self.owners.pop(index, None)
        try:
            self._locks[index].release()
        except RuntimeError:
            pass  # releasing an unheld lock is a no-op on the SCC register
