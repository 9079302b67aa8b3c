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

Every wait blocks on the world's :class:`~repro.rcce.sync.Monitor`, so
a send without a matching recv, or a wait on a flag nobody writes,
raises :class:`~repro.sim.watchdog.DeadlockError` as soon as no rank
can make progress, and a world abort wakes every waiter at once with
the abort's cause.
"""

from repro.sim.interpreter import InterpreterError

FLAG_SET = 1
FLAG_UNSET = 0

REDUCE_OPS = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: a if a >= b else b,
    "min": lambda a, b: a if a <= b else b,
    "prod": lambda a, b: a * b,
}


class FlagTable:
    """MPB synchronization flags.

    Each flag lives in one UE's MPB segment; waiting on it is a remote
    poll, so the waiter pays one MPB round trip per check and its clock
    lands at ``max(own, writer's clock at the satisfying write)``.
    Using a flag that was never allocated, or was freed, is a program
    failure (:class:`~repro.sim.interpreter.InterpreterError`).
    """

    def __init__(self, monitor):
        self.monitor = monitor
        self._values = {}        # flag id -> value
        self._write_clocks = {}  # flag id -> simulated clock of writer
        self._next_id = 1
        self._sequence = {}      # rank -> next allocation index
        self._allocations = []   # allocation index -> flag id

    def alloc(self, rank=0):
        """Collective, symmetric allocation: every UE's n-th call
        returns the same flag (RCCE flags live at symmetric MPB
        offsets)."""
        with self.monitor.condition:
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
        with self.monitor.condition:
            self._values.pop(flag_id, None)
            self._write_clocks.pop(flag_id, None)
            # a waiter on the freed flag fails instead of waiting on
            self.monitor.condition.notify_all()

    def _check(self, flag_id, use):
        if flag_id not in self._values:
            raise InterpreterError("%s unallocated flag %r"
                                   % (use, flag_id))

    def write(self, flag_id, value, clock, race=None, tid=None):
        with self.monitor.condition:
            self._check(flag_id, "write to")
            self._values[flag_id] = value
            self._write_clocks[flag_id] = clock
            if race is not None:
                # publish the writer's clock before waiters wake: the
                # release edge must be visible under the same lock
                race.flag_write(tid, flag_id)
            self.monitor.condition.notify_all()

    def read(self, flag_id, race=None, tid=None):
        with self.monitor.condition:
            self._check(flag_id, "read of")
            if race is not None:
                race.flag_sync(tid, flag_id)
            return self._values[flag_id]

    def wait_until(self, rank, flag_id, value, clock, race=None):
        """Block ``rank`` until the flag holds ``value``; returns the
        waiter's new simulated clock."""
        values = self._values
        with self.monitor.condition:
            # ready at ``value``, or once the flag is freed: the check
            # below then fails the wait
            self.monitor.wait(
                rank, "RCCE_wait_until on flag %s" % flag_id,
                lambda: values.get(flag_id, value) == value)
            self._check(flag_id, "wait on")
            if race is not None:
                race.flag_sync(rank, flag_id)
            return max(clock, self._write_clocks[flag_id])


class Channel:
    """One synchronous rendezvous channel from rank ``source`` to rank
    ``dest``.

    Messages optionally carry a sequence number (the recovery layer's
    :class:`~repro.recovery.retry.SendRetrier` numbers every send).
    The receiver acknowledges but does not re-deliver a duplicate
    sequence number, so a retransmitted message is idempotent."""

    def __init__(self, monitor, source, dest):
        self.monitor = monitor
        self.source = source
        self.dest = dest
        self.payload = None       # (values, sender_clock, seq, vc)
        self.consumed_clock = None
        self.delivered_seq = None
        self.ack_vc = None        # receiver's clock for the sender

    def send(self, values, clock, seq=None, race=None):
        """Deposit and block until the receiver drains the message;
        returns the sender's new clock (receive-completion time)."""
        monitor = self.monitor
        rank, site = self.source, "RCCE_send to rank %d" % self.dest
        with monitor.condition:
            monitor.wait(rank, site, lambda: self.payload is None)
            sender_vc = race.channel_send(rank) \
                if race is not None else None
            self.payload = (list(values), clock, seq, sender_vc)
            monitor.condition.notify_all()
            monitor.wait(rank, site,
                         lambda: self.consumed_clock is not None)
            done = self.consumed_clock
            self.consumed_clock = None
            if race is not None:
                race.channel_ack(rank, self.ack_vc)
                self.ack_vc = None
            monitor.condition.notify_all()
            return done

    def recv(self, clock, transfer_cost, race=None):
        """Block for a message; returns (values, new_clock)."""
        monitor = self.monitor
        rank, site = self.dest, "RCCE_recv from rank %d" % self.source
        with monitor.condition:
            while True:
                monitor.wait(rank, site, lambda: self.payload is not None)
                values, sender_clock, seq, sender_vc = self.payload
                self.payload = None
                if seq is not None and seq == self.delivered_seq:
                    # duplicate retransmission: ack the sender so it
                    # unblocks, but do not deliver the payload twice
                    if race is not None:
                        self.ack_vc = race.channel_recv(rank, None)
                    self.consumed_clock = max(clock, sender_clock)
                    monitor.condition.notify_all()
                    continue
                if seq is not None:
                    self.delivered_seq = seq
                if race is not None:
                    self.ack_vc = race.channel_recv(rank, sender_vc)
                done = max(clock, sender_clock) + transfer_cost
                self.consumed_clock = done
                monitor.condition.notify_all()
                return values, done


class MessageFabric:
    """All channels of one RCCE world, opened on first use."""

    def __init__(self, monitor):
        self.monitor = monitor
        self._channels = {}

    def channel(self, source, dest):
        key = (source, dest)
        with self.monitor.condition:
            if key not in self._channels:
                self._channels[key] = Channel(self.monitor, source, dest)
            return self._channels[key]


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
        self._deposits = {}
        self._readers = {}

    def exchange(self, rank, clock, values, round_id, site):
        """Deposit ``values`` under ``round_id``, synchronize on the
        barrier (blocked at ``site``), and return (everyone's
        deposits, aligned clock)."""
        condition = self.barrier.monitor.condition
        with condition:
            self._deposits.setdefault(round_id, {})[rank] = list(values)
        clock = self.barrier.wait(rank, clock, site)
        with condition:
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
