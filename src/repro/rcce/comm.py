"""RCCE two-sided communication, flags, and collectives.

The real RCCE builds synchronous ``RCCE_send``/``RCCE_recv`` on top of
one-sided put/get plus MPB flags (van der Wijngaart et al. [29]: "The
foundation of RCCE lies in one-sided put and get primitives").  The
emulation keeps that structure:

* a :class:`FlagTable` of MPB-resident synchronization flags with
  write/read/wait-until semantics and clock propagation (a waiter's
  simulated clock advances to the writer's clock — time spent spinning
  is real time);
* rendezvous :class:`Channel` pairs for send/recv, synchronous like
  RCCE's (the sender returns only after the receiver has drained the
  message), with transfer cost modelled as a bulk MPB copy each way;
* staging-area collectives (bcast / reduce / allreduce) built on the
  clock-aligning barrier.

Deadlocks in the *simulated* program (send without a matching recv,
wait on a flag nobody writes) surface as :class:`CommDeadlockError`
after a wall-clock timeout instead of hanging the host process.  Both
the fabric and the flag table take that timeout from the world (a
watchdog shortens it), and a world abort wakes every waiter at once
with the abort's cause.
"""

import threading

from repro.sim.watchdog import WatchdogAborted

DEADLOCK_TIMEOUT_SECONDS = 10.0

FLAG_SET = 1
FLAG_UNSET = 0

REDUCE_OPS = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: a if a >= b else b,
    "min": lambda a, b: a if a <= b else b,
    "prod": lambda a, b: a * b,
}


class CommDeadlockError(Exception):
    """A blocking RCCE operation was never matched."""


def _wait(condition, owner, what):
    """One wait on ``condition`` (held by the caller) for a peer,
    bounded by ``owner.timeout`` wall seconds; ``what`` words the
    :class:`CommDeadlockError` when the bound passes.  ``owner`` is the
    fabric or flag table; once its ``abort`` has run, the wait ends
    at once with :class:`WatchdogAborted` caused by the failure."""
    if owner.failure is None:
        notified = condition.wait(owner.timeout)
        if owner.failure is None:
            if notified:
                return
            raise CommDeadlockError("%s within %gs"
                                    % (what, owner.timeout))
    raise WatchdogAborted(
        "RCCE wait cancelled: another core already failed (%s: %s)"
        % (type(owner.failure).__name__, owner.failure)) \
        from owner.failure


class FlagTable:
    """MPB synchronization flags.

    Each flag lives in one UE's MPB segment; waiting on it is a remote
    poll, so the waiter pays one MPB round trip per check and its clock
    lands at ``max(own, writer's clock at the satisfying write)``.
    """

    def __init__(self, timeout=DEADLOCK_TIMEOUT_SECONDS):
        self.timeout = timeout
        self.failure = None      # the world's abort cause, once set
        self._lock = threading.Lock()
        self._condition = threading.Condition(self._lock)
        self._values = {}        # flag id -> value
        self._write_clocks = {}  # flag id -> simulated clock of writer
        self._next_id = 1
        self._sequence = {}      # rank -> next allocation index
        self._allocations = []   # allocation index -> flag id

    def alloc(self, rank=0):
        """Collective, symmetric allocation: every UE's n-th call
        returns the same flag (RCCE flags live at symmetric MPB
        offsets)."""
        with self._lock:
            index = self._sequence.get(rank, 0)
            self._sequence[rank] = index + 1
            if index < len(self._allocations):
                return self._allocations[index]
            flag_id = self._next_id
            self._next_id += 1
            self._values[flag_id] = FLAG_UNSET
            self._write_clocks[flag_id] = 0
            self._allocations.append(flag_id)
            return flag_id

    def free(self, flag_id):
        with self._lock:
            self._values.pop(flag_id, None)
            self._write_clocks.pop(flag_id, None)

    def write(self, flag_id, value, clock, race=None, tid=None):
        with self._condition:
            if flag_id not in self._values:
                raise CommDeadlockError(
                    "write to unallocated flag %r" % flag_id)
            self._values[flag_id] = value
            self._write_clocks[flag_id] = clock
            if race is not None:
                # publish the writer's clock before waiters wake: the
                # release edge must be visible under the same lock
                race.flag_write(tid, flag_id)
            self._condition.notify_all()

    def read(self, flag_id, race=None, tid=None):
        with self._lock:
            if flag_id not in self._values:
                raise CommDeadlockError(
                    "read of unallocated flag %r" % flag_id)
            if race is not None:
                race.flag_sync(tid, flag_id)
            return self._values[flag_id]

    def wait_until(self, flag_id, value, clock, race=None, tid=None):
        """Block until the flag holds ``value``; returns the waiter's
        new simulated clock."""
        with self._condition:
            while self._values.get(flag_id) != value:
                if flag_id not in self._values:
                    raise CommDeadlockError(
                        "wait on unallocated flag %r" % flag_id)
                _wait(self._condition, self,
                      "flag %r never reached %r" % (flag_id, value))
            if race is not None:
                race.flag_sync(tid, flag_id)
            return max(clock, self._write_clocks.get(flag_id, 0))

    def abort(self, failure):
        """Wake every flag waiter with ``failure`` as the cause."""
        with self._condition:
            self.failure = failure
            self._condition.notify_all()


class Channel:
    """One synchronous rendezvous channel for a (source, dest) pair.

    Messages optionally carry a sequence number (the recovery layer's
    :class:`~repro.recovery.retry.SendRetrier` numbers every send).
    The receiver acknowledges but does not re-deliver a duplicate
    sequence number, so a retransmitted message is idempotent."""

    def __init__(self, fabric=None):
        # the fabric holds the wait timeout and the world's abort cause
        self.fabric = fabric if fabric is not None else MessageFabric()
        self.condition = threading.Condition()
        self.payload = None       # (values, sender_clock, seq, vc)
        self.consumed_clock = None
        self.delivered_seq = None
        self.ack_vc = None        # receiver's clock for the sender

    def send(self, values, clock, seq=None, race=None, tid=None):
        """Deposit and block until the receiver drains the message;
        returns the sender's new clock (receive-completion time)."""
        with self.condition:
            while self.payload is not None:
                _wait(self.condition, self.fabric, "send never matched")
            sender_vc = race.channel_send(tid) \
                if race is not None else None
            self.payload = (list(values), clock, seq, sender_vc)
            self.condition.notify_all()
            while self.consumed_clock is None:
                _wait(self.condition, self.fabric,
                      "send never completed")
            done = self.consumed_clock
            self.consumed_clock = None
            if race is not None:
                race.channel_ack(tid, self.ack_vc)
                self.ack_vc = None
            self.condition.notify_all()
            return done

    def recv(self, clock, transfer_cost, race=None, tid=None):
        """Block for a message; returns (values, new_clock)."""
        with self.condition:
            while True:
                while self.payload is None:
                    _wait(self.condition, self.fabric,
                          "recv never matched")
                values, sender_clock, seq, sender_vc = self.payload
                self.payload = None
                if seq is not None and seq == self.delivered_seq:
                    # duplicate retransmission: ack the sender so it
                    # unblocks, but do not deliver the payload twice
                    if race is not None:
                        self.ack_vc = race.channel_recv(tid, None)
                    self.consumed_clock = max(clock, sender_clock)
                    self.condition.notify_all()
                    continue
                if seq is not None:
                    self.delivered_seq = seq
                if race is not None:
                    self.ack_vc = race.channel_recv(tid, sender_vc)
                done = max(clock, sender_clock) + transfer_cost
                self.consumed_clock = done
                self.condition.notify_all()
                return values, done


class MessageFabric:
    """All channels of one RCCE world.  ``timeout`` bounds every
    send/recv wait in wall seconds."""

    def __init__(self, timeout=DEADLOCK_TIMEOUT_SECONDS):
        self.timeout = timeout
        self.failure = None      # the world's abort cause, once set
        self._channels = {}
        self._lock = threading.Lock()

    def channel(self, source, dest):
        key = (source, dest)
        with self._lock:
            if key not in self._channels:
                self._channels[key] = Channel(self)
            return self._channels[key]

    def abort(self, failure):
        """Wake every send/recv waiter with ``failure`` as the cause
        (a channel opened later fails its first wait)."""
        self.failure = failure
        with self._lock:
            channels = list(self._channels.values())
        for channel in channels:
            with channel.condition:
                channel.condition.notify_all()


class CollectiveArea:
    """Staging memory for bcast/reduce/allreduce.

    Collectives are round-numbered by each UE's *own* collective
    sequence counter — correct because RCCE programs are SPMD and every
    UE issues collectives in the same order.  A round's staging is
    retired once every party has read it.
    """

    def __init__(self, barrier, parties):
        self.barrier = barrier
        self.parties = parties
        self._lock = threading.Lock()
        self._deposits = {}
        self._readers = {}

    def exchange(self, rank, clock, values, round_id):
        """Deposit ``values`` under ``round_id``, synchronize, and
        return (everyone's deposits, aligned clock)."""
        with self._lock:
            self._deposits.setdefault(round_id, {})[rank] = list(values)
        clock = self.barrier.wait(rank, clock)
        with self._lock:
            snapshot = dict(self._deposits[round_id])
            readers = self._readers.get(round_id, 0) + 1
            self._readers[round_id] = readers
            if readers == self.parties:
                del self._deposits[round_id]
                del self._readers[round_id]
        return snapshot, clock

    @staticmethod
    def reduce(deposits, op):
        """Element-wise reduction over every rank's deposit."""
        if op not in REDUCE_OPS:
            raise ValueError("unknown reduction op %r" % op)
        combine = REDUCE_OPS[op]
        ranks = sorted(deposits)
        result = list(deposits[ranks[0]])
        for rank in ranks[1:]:
            values = deposits[rank]
            for index, value in enumerate(values):
                result[index] = combine(result[index], value)
        return result
