"""Sequence-numbered, idempotent RCCE sends with bounded backoff.

Without recovery, an injected ``mesh_drop`` only re-prices memory
accesses (the PR 3 model: the access pays its cost twice).  With the
recovery layer on, the fault layer additionally exposes *message*
drops to ``RCCE_send``: each transmission of a message draws from the
same per-(rule, core) RNG streams, and a dropped transmission is
retried with exponential backoff instead of wedging the rendezvous.

Every message carries a per-(source, dest) sequence number all the way
into the channel, whose receiver discards duplicate deliveries — a
retransmitted message is idempotent even if the drop hit the ack
rather than the payload.  A message still undeliverable after
``max_attempts`` transmissions raises
:class:`MeshRetryExhaustedError` (an ``InterpreterError`` — CLI exit
70, supervisor-restartable like any other fatal simulated failure).

Timing: every dropped transmission charges the sender the full
transfer cost plus the backoff window, so absorbed faults still show
up in the cycle accounting — recovery is not free, it is bounded.
"""

import threading

from repro.sim.interpreter import InterpreterError


class MeshRetryExhaustedError(InterpreterError):
    """A message was dropped on every transmission attempt."""

    def __init__(self, message, source=None, dest=None, attempts=None):
        super().__init__(message)
        self.source = source
        self.dest = dest
        self.attempts = attempts


class RetryPolicy:
    """Bounded exponential backoff: attempt ``k``'s retry waits
    ``base_cycles * factor**(k-1)`` cycles, capped at ``max_cycles``."""

    __slots__ = ("max_attempts", "base_cycles", "factor", "max_cycles")

    def __init__(self, max_attempts=6, base_cycles=64, factor=2,
                 max_cycles=4096):
        if max_attempts < 1:
            raise ValueError("need at least one send attempt")
        self.max_attempts = max_attempts
        self.base_cycles = base_cycles
        self.factor = factor
        self.max_cycles = max_cycles

    def backoff_cycles(self, attempt):
        return min(self.base_cycles * self.factor ** (attempt - 1),
                   self.max_cycles)


class SendRetrier:
    """Retries dropped RCCE_send transmissions; owned by one
    ``RCCEWorld`` (``world.retrier``, None by default so the send path
    stays a single attribute check)."""

    def __init__(self, injector=None, policy=None):
        self.injector = injector
        self.policy = policy or RetryPolicy()
        self.retries = {}   # core -> retransmissions
        self.exhausted = 0
        self._seq = {}      # (source rank, dest rank) -> next seq
        self._lock = threading.Lock()

    def next_seq(self, source, dest):
        """The next sequence number for the (source, dest) stream.
        Sends on one stream are ordered by the rendezvous channel, so
        numbering is deterministic."""
        key = (source, dest)
        with self._lock:
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
        return seq

    def transmit(self, runtime, interp, dest, seq, cost):
        """Model the transmissions of one message; returns the extra
        cycles the sender burned on dropped attempts (zero on a clean
        first transmission, and always zero with no injector)."""
        injector = self.injector
        if injector is None:
            return 0
        chip = runtime.world.chip
        core = interp.core_id
        extra = 0
        attempt = 1
        while injector.message_dropped(core):
            if attempt >= self.policy.max_attempts:
                self.exhausted += 1
                raise MeshRetryExhaustedError(
                    "RCCE_send from UE %d to UE %d dropped on all %d "
                    "attempts (seq %d)"
                    % (runtime.rank, dest, attempt, seq),
                    source=runtime.rank, dest=dest, attempts=attempt)
            backoff = self.policy.backoff_cycles(attempt)
            extra += cost + backoff
            self.retries[core] = self.retries.get(core, 0) + 1
            chip.mesh.record_retry()
            attempt += 1
        return extra
