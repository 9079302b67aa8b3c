"""Parallel host execution: shard per-core interpreters across
processes with Graphite-style relaxed clock synchronization.

The sequential ``run_rcce`` steps every simulated core inside one
GIL-bound host process.  This backend shards the ``num_ues`` ranks
round-robin across N worker *processes*; each shard runs its ranks
under the existing compiled engine on a full **chip replica**, letting
its simulated clocks run ahead of its peers' (lax sync) up to a
configurable quantum of cycles, and reconciling

* at **quantum boundaries** — a non-blocking checkpoint (the shard
  publishes its clock and ships its dirty shared memory home; it never
  waits, because a peer parked inside ``recv`` must not be waited on);
* **early, at every true sync point** — barrier rounds, test-and-set
  registers, MPB flag publish/consume, send/recv rendezvous — which
  are routed through a single-threaded **coordinator** event loop in
  the parent process.

Determinism contract: cycles and outputs are **byte-identical to the
sequential engine for any shard count and any quantum**.  That holds
by construction, not by tuning:

* every cross-rank value and every cross-rank clock comparison already
  flows through the coordinator-routed sync primitives, which replay
  the sequential semantics exactly (barrier = max of published clocks
  + cost; rendezvous = max of both clocks + transfer cost; flag wait =
  max of waiter clock and the satisfying write's clock);
* each chip replica's timing state is either per-core (caches — a core
  runs wholly inside one worker), statically geometric (mesh hops), or
  statically determined by the full ``activate_core`` registration
  that every replica performs for *all* ranks (DRAM queue depth);
* symmetric heap allocations replay in SPMD program order against
  identical per-replica bump pointers, so all replicas agree on every
  address.

Shared memory consistency uses dirty-address write logging: every
worker store to a non-private address is logged and shipped to the
coordinator's versioned global delta log at the next reconciliation;
sync replies carry the other shards' deltas back (contiguous version
ranges per worker, applied in order).  For well-synchronized programs
— the only programs whose sequential result is deterministic in the
first place — this release/acquire shipping delivers exactly the
values the sequential run would read.  Racy programs should run under
the race detector, which (like every other incompatible feature)
forces a loud downgrade to a sequential run.

**Worker failure.**  The coordinator watches its workers but does not
heal them: every control-pipe message is a heartbeat, worker process
exit (EOF without a reported simulated error) raises
:class:`~repro.sim.watchdog.WorkerDeathError`, and heartbeat silence
while a shard still has runnable ranks raises
:class:`~repro.sim.watchdog.WorkerStallError`.  Either one abandons
the attempt — every worker is stopped and reaped — and ``run_rcce``
reruns the program sequentially (``jobs=1``) from the beginning, which
reproduces the same cycles and output by construction.
"""

import multiprocessing
import multiprocessing.connection
import pickle
import signal
import threading
import time
import traceback

from collections import deque

from repro.scc.chip import SCCChip
from repro.scc.memmap import SHARED_BASE
from repro.rcce.api import RCCEWorld
from repro.rcce.comm import CommDeadlockError
from repro.rcce.sync import SkewBarrier
from repro.sim.interpreter import (
    Interpreter,
    InterpreterError,
    StepLimitExceeded,
    ThreadExit,
)
from repro.sim.machine import Memory
from repro.sim.watchdog import (
    BarrierAbortedError,
    SimulationTimeout,
    WatchdogError,
    WorkerDeathError,
    WorkerStallError,
    core_dumps,
)

__all__ = ["ShardMemory", "ShardPlan", "ParallelRunError",
           "parallel_collector", "parallel_stats",
           "run_rcce_parallel"]

# Wall-clock bounds enforced by the coordinator (the coordinator IS
# the parallel run's watchdog: it sees every sync wait and every
# heartbeat, so the sequential watchdog's lock/barrier timeouts map
# onto these bounds).
# ``PARKED_TIMEOUT``: every unfinished rank is parked at a sync point
# and nothing has moved — the simulated program is deadlocked.
# ``WALL_TIMEOUT``: nothing at all has moved (not even quantum ticks)
# — a worker died silently or is wedged.
# ``HEARTBEAT_TIMEOUT``: one shard with runnable ranks went silent —
# its worker process is hung (host-level stall, not a simulated
# deadlock); the attempt is abandoned and rerun sequentially.  Read at
# call time, so tests can shorten it.
PARKED_TIMEOUT_SECONDS = 10.0
WALL_TIMEOUT_SECONDS = 600.0
HEARTBEAT_TIMEOUT_SECONDS = 30.0

# How long teardown waits for a worker to exit before escalating.
JOIN_TIMEOUT_SECONDS = 5.0


class ParallelRunError(Exception):
    """A worker failed in a way that could not be reproduced locally
    (e.g. its exception did not survive pickling)."""


class ParallelInterrupted(KeyboardInterrupt):
    """SIGTERM/SIGINT landed mid-run: the coordinator terminated and
    joined its workers, closed the control pipes, and unwound — no
    orphans.  A ``KeyboardInterrupt`` subclass so generic ``except
    Exception`` recovery paths never swallow an operator's interrupt;
    the CLI maps it to exit 130 with the one-line diagnostic."""

    def __init__(self, signum, workers):
        name = {getattr(signal, "SIGINT", 2): "SIGINT",
                getattr(signal, "SIGTERM", 15): "SIGTERM"}.get(
                    signum, "signal %s" % signum)
        super().__init__(
            "interrupted by %s: terminated %d parallel worker(s) "
            "and unwound cleanly" % (name, workers))
        self.signum = signum
        self.workers = workers


class ShardPlan:
    """Deterministic round-robin rank -> shard assignment."""

    def __init__(self, num_ues, jobs):
        if num_ues < 1:
            raise ValueError("need at least one UE")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.num_ues = num_ues
        # an empty shard would idle a whole process; clamp instead
        self.jobs = min(jobs, num_ues)
        self.shard_of = [rank % self.jobs for rank in range(num_ues)]

    def ranks_of(self, shard):
        return [rank for rank in range(self.num_ues)
                if self.shard_of[rank] == shard]

    def __repr__(self):
        return "ShardPlan(%d UEs over %d shards)" % (self.num_ues,
                                                     self.jobs)


def parallel_collector(skew, jobs):
    """Build the process backend's ``sim.parallel`` metrics
    collector."""

    def collect():
        samples = [
            ("gauge", "parallel_jobs", {}, jobs),
            ("gauge", "parallel_quantum_cycles", {}, skew.quantum),
            ("gauge", "parallel_max_skew_cycles", {}, skew.max_skew),
        ]
        for shard in range(jobs):
            labels = {"shard": shard}
            samples.append(("counter", "parallel_reconciliations",
                            labels, skew.reconciliations(shard)))
            samples.append(("counter",
                            "parallel_quantum_reconciliations",
                            labels,
                            skew.quantum_reconciliations[shard]))
            samples.append(("counter", "parallel_sync_reconciliations",
                            labels, skew.sync_reconciliations[shard]))
        return samples

    return collect


def parallel_stats(skew, jobs, **extra):
    """The ``stats["parallel"]`` block of a process-backend run."""
    stats = {
        "backend": "process",
        "jobs": jobs,
        "quantum": skew.quantum,
        "reconciliations": skew.total_reconciliations(),
        "max_skew_cycles": skew.max_skew,
    }
    stats.update(extra)
    return stats


class ShardMemory(Memory):
    """A worker replica's memory with dirty-address write logging.

    Stores to addresses at or above ``SHARED_BASE`` (shared DRAM, MPB,
    split windows — everything another shard could legally read) are
    appended to a thread-safe pending log, drained at every
    reconciliation.  Private-window stores are skipped: a core runs
    wholly inside one worker, so no other shard can see them — unless
    a LUT reconfiguration has blurred the private/shared line, in
    which case :meth:`log_everything` flips the filter off.
    """

    __slots__ = ("_pending", "_log_all")

    def __init__(self):
        super().__init__()
        self._pending = deque()   # (addr, value); append is atomic
        self._log_all = [False]
        self._rebind()

    def _rebind(self):
        """Install the logging ``put`` (the compiled engine binds
        ``memory.put`` once per interpreter, so this must be in place
        before any interpreter is built)."""
        data = self._data
        pend = self._pending.append
        log_all = self._log_all

        def put(addr, value, _data=data, _pend=pend, _all=log_all,
                _base=SHARED_BASE):
            _data[addr] = value
            if addr >= _base or _all[0]:
                _pend((addr, value))

        self.put = put

    def log_everything(self):
        """Conservative mode: log every store (LUT reconfiguration can
        re-classify private windows as shared)."""
        self._log_all[0] = True

    def store(self, addr, value):
        self.put(addr, value)

    def memset(self, addr, value, count, stride):
        put = self.put
        with self._lock:
            for index in range(count):
                put(addr + index * stride, value)

    def memcpy(self, dst, src, count, stride, default=0):
        put = self.put
        get = self._data.get
        with self._lock:
            for index in range(count):
                put(dst + index * stride,
                    get(src + index * stride, default))

    def drain_dirty(self):
        """Pop every pending (addr, value) in FIFO order.  Callers
        serialize on the client's drain lock, so two reconciliations
        never interleave entries out of order."""
        pending = self._pending
        entries = []
        while True:
            try:
                entries.append(pending.popleft())
            except IndexError:
                return entries

    def apply_remote(self, entries):
        """Apply another shard's shipped writes (no re-logging)."""
        data = self._data
        for addr, value in entries:
            data[addr] = value


# -- wire format helpers -----------------------------------------------------

def _pack_error(exc):
    """Serialize an exception for the trip home.  Exceptions whose
    pickling round-trip fails degrade to (type name, message)."""
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return ("pickle", blob)
    except Exception:  # noqa: BLE001 - any pickling failure degrades
        return ("named", type(exc).__name__, str(exc),
                traceback.format_exc())


_ERRORS_BY_NAME = {
    cls.__name__: cls
    for cls in (CommDeadlockError, InterpreterError, StepLimitExceeded,
                SimulationTimeout, BarrierAbortedError, WatchdogError,
                MemoryError, ValueError, RuntimeError)
}


def _unpack_error(packed):
    if packed[0] == "pickle":
        try:
            return pickle.loads(packed[1])
        except Exception:  # noqa: BLE001 - fall through to a generic error
            return ParallelRunError("worker error did not survive "
                                    "unpickling")
    _, name, message, trace = packed
    cls = _ERRORS_BY_NAME.get(name)
    if cls is not None:
        try:
            return cls(message)
        except Exception:  # noqa: BLE001 - odd constructor signature
            pass
    return ParallelRunError("%s: %s\n%s" % (name, message, trace))


# -- worker side -------------------------------------------------------------

class _ShardClient:
    """A worker's connection bundle to the coordinator.

    Each rank thread owns one duplex pipe for request/reply sync RPCs;
    the whole worker shares one FIFO control pipe for one-way traffic
    (delta shipments, quantum ticks, errors, results).  The drain lock
    makes [drain dirty log -> send on control pipe] atomic, so the
    control pipe's FIFO order *is* the worker's global write order.
    """

    def __init__(self, shard, memory, rank_conns, control_conn):
        self.shard = shard
        self.memory = memory
        self.rank_conns = rank_conns      # rank -> Connection
        self.control = control_conn
        self._local = threading.local()
        self._drain_lock = threading.Lock()
        self._control_lock = threading.Lock()
        # remote-delta application: contiguous version ranges arrive on
        # any rank conn; apply strictly in version order
        self._apply = threading.Condition()
        self._watermark = 0
        self._ranges = {}                 # vfrom -> (vto, entries)

    def bind_thread(self, rank):
        self._local.rank = rank
        self._local.conn = self.rank_conns[rank]

    def _send_control(self, message):
        with self._control_lock:
            self.control.send(message)

    def flush(self, kind="deltas", clock=None):
        """Ship pending dirty writes home (one-way, never blocks on a
        reply).  A "tick" flush is sent even when empty: it doubles as
        the liveness signal behind the coordinator's wall-clock
        supervision."""
        with self._drain_lock:
            entries = self.memory.drain_dirty()
            if entries or kind == "tick":
                self._send_control((kind, self.shard, entries, clock))

    def tick(self, clock):
        """Quantum-boundary reconciliation: non-blocking publish +
        abort poll (a pushed coordinator error must be able to stop a
        rank that is deep in a compute loop)."""
        conn = self._local.conn
        if conn.poll():
            status, payload, _ = conn.recv()
            if status == "error":
                raise _unpack_error(payload)
        self.flush(kind="tick", clock=clock)

    def request(self, op, *args):
        """One synchronous sync-point RPC: flush dirty writes, send,
        block for the reply, apply the peers' deltas it carries."""
        self.flush()
        conn = self._local.conn
        conn.send((op, self._local.rank) + args)
        status, payload, batch = conn.recv()
        if batch is not None:
            self._apply_batch(batch)
        if status == "error":
            raise _unpack_error(payload)
        return payload

    def _apply_batch(self, batch):
        """Apply one contiguous version range of remote writes.  A
        later range that arrives first (two ranks of this worker woken
        out of order) waits for the earlier range's owner to apply."""
        vfrom, vto, entries = batch
        with self._apply:
            if vto > vfrom:
                self._ranges[vfrom] = (vto, entries)
            # an empty range still gates resumption: this rank may not
            # read memory until every delta version below ``vto`` —
            # possibly carried by a sibling rank's reply — is applied
            while True:
                pending = self._ranges.pop(self._watermark, None)
                if pending is not None:
                    next_vto, next_entries = pending
                    self.memory.apply_remote(next_entries)
                    self._watermark = next_vto
                    self._apply.notify_all()
                    continue
                if self._watermark >= vto:
                    return
                if not self._apply.wait(WALL_TIMEOUT_SECONDS):
                    raise ParallelRunError(
                        "remote delta range [%d, %d) never became "
                        "applicable" % (vfrom, vto))

    def rank_done(self, rank):
        self.flush()
        self._send_control(("rank_done", self.shard, rank, None))

    def report_error(self, exc, dumps=None, threads=None):
        self.flush()
        self._send_control(("error", self.shard,
                            _pack_error(exc), (dumps, threads)))

    def report_result(self, payload):
        self.flush()
        self._send_control(("result", self.shard, payload, None))


class _ProxyBarrier:
    """ClockBarrier stand-in: the round lives in the coordinator."""

    def __init__(self, client, parties):
        self.client = client
        self.parties = parties
        self.rounds = 0       # authoritative count lives coordinator-side
        self.on_round = None
        self.race = None

    def wait(self, rank, clock):
        return self.client.request("barrier", clock)

    def abort(self, failure=None):
        # local failures travel on the control pipe (report_error);
        # nothing to break locally — peers are parked coordinator-side
        pass


class _ProxyRegisters:
    """Test-and-set registers proxied to the coordinator's FIFO grant
    queue.  Acquisition counts are kept locally (each worker counts its
    own ranks' grants; the coordinator sums them at shutdown)."""

    __test__ = False

    def __init__(self, client, num_cores):
        self.client = client
        self.num_cores = num_cores
        self.acquisitions = [0] * num_cores
        self.owners = {}
        self.race = None
        self.watchdog = None

    def contended(self, register):
        return self.client.request("lock_contended",
                                   register % self.num_cores)

    def reset_counts(self):
        self.acquisitions = [0] * self.num_cores

    def acquire(self, register, rank=None):
        index = register % self.num_cores
        self.client.request("lock_acquire", index)
        self.acquisitions[index] += 1

    def release(self, register, rank=None):
        self.client.request("lock_release", register % self.num_cores)


class _ProxyFlagTable:
    """MPB flag table proxied to the coordinator (symmetric allocation
    and write-clock propagation replay the sequential semantics)."""

    def __init__(self, client):
        self.client = client

    def alloc(self, rank=0):
        return self.client.request("flag_alloc")

    def free(self, flag_id):
        self.client.request("flag_free", flag_id)

    def write(self, flag_id, value, clock, race=None, tid=None):
        self.client.request("flag_write", flag_id, value, clock)

    def read(self, flag_id, race=None, tid=None):
        return self.client.request("flag_read", flag_id)

    def wait_until(self, flag_id, value, clock, race=None, tid=None):
        return self.client.request("flag_wait", flag_id, value, clock)


class _ProxyChannel:
    """One (source, dest) rendezvous pair routed through the
    coordinator — synchronous on both sides, like the sequential
    :class:`~repro.rcce.comm.Channel`."""

    def __init__(self, client, source, dest):
        self.client = client
        self.source = source
        self.dest = dest

    def send(self, values, clock, seq=None, race=None, tid=None):
        return self.client.request("send", self.dest, list(values),
                                   clock, seq)

    def recv(self, clock, transfer_cost, race=None, tid=None):
        values, done = self.client.request("recv", self.source, clock,
                                           transfer_cost)
        return values, done


class _ProxyFabric:
    def __init__(self, client):
        self.client = client
        self._channels = {}

    def channel(self, source, dest):
        key = (source, dest)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = _ProxyChannel(
                self.client, source, dest)
        return channel


class _ProxyCollectives:
    """Collective staging proxied to the coordinator, which shares its
    round counter with the plain barrier exactly as the sequential
    :class:`~repro.rcce.comm.CollectiveArea` shares the world
    barrier."""

    def __init__(self, client):
        self.client = client

    def exchange(self, rank, clock, values, round_id):
        deposits, aligned = self.client.request(
            "exchange", clock, list(values), round_id)
        return deposits, aligned


class _SampleList:
    """Histogram stand-in: record raw samples for shipment home."""

    __slots__ = ("samples",)

    def __init__(self):
        self.samples = []

    def observe(self, value):
        self.samples.append(value)


class ShardWorld(RCCEWorld):
    """An RCCE world whose cross-shard primitives are coordinator
    proxies.  Everything replica-local (symmetric heaps, counters, the
    chip binding) is inherited unchanged."""

    def __init__(self, chip, num_ues, core_map, client):
        super().__init__(chip, num_ues, core_map, watchdog=None)
        self.client = client
        self.barrier = _ProxyBarrier(client, num_ues)
        self.registers = _ProxyRegisters(client, chip.config.num_cores)
        self.flags = _ProxyFlagTable(client)
        self.fabric = _ProxyFabric(client)
        self.collectives = _ProxyCollectives(client)
        self.barrier_wait = _SampleList()

    def abort(self, failure=None):
        pass  # handled by the worker's error report


def _worker_main(shard, ranks, source, num_ues, core_map, config,
                 max_steps, quantum, rank_conns, control_conn):
    """One worker process: a full chip replica running ``ranks`` as
    host threads, every sync point an RPC to the coordinator.
    Module-level and argument-complete, so it is spawn-safe."""
    # under fork the worker inherits the coordinator's deferred
    # SIGTERM/SIGINT handlers, which would make both signals no-ops
    # here; workers take the default (die) disposition instead
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except ValueError:
            break  # not the main thread: keep the inherited one
    try:
        from repro.sim.compile import warm_process_cache
        unit = warm_process_cache(source)
        chip = SCCChip(config)
        memory = ShardMemory()
        client = _ShardClient(shard, memory, rank_conns, control_conn)
        world = ShardWorld(chip, num_ues, core_map, client)

        original_configure = chip.configure_window

        def configure_window(core, addr, shared,
                             _orig=original_configure, _mem=memory):
            # a reconfigured LUT can turn private windows shared; from
            # here on every store must be shipped, not just >= SHARED
            _mem.log_everything()
            return _orig(core, addr, shared)

        chip.configure_window = configure_window

        # register EVERY rank's core with its memory controller, not
        # just this shard's: DRAM queue depth is part of the timing
        # model and must match the sequential run's full active set
        for rank in range(num_ues):
            chip.activate_core(world.core_map[rank])

        interpreters = []
        rank_of_core = {}
        failed = threading.Event()

        def rank_main(rank):
            client.bind_thread(rank)
            try:
                runtime = world.runtime_for(rank)
                interp = Interpreter(unit, chip, runtime.core_id,
                                     memory, runtime, max_steps)
                rank_of_core[interp.core_id] = rank
                interpreters.append(interp)
                if quantum:
                    def hook(i, _client=client, _q=quantum):
                        _client.tick(i.cycles)
                        return i.cycles + _q
                    interp._quantum_hook = hook
                    interp._quantum_deadline = quantum
                try:
                    interp.run_main()
                except ThreadExit:
                    pass
                client.rank_done(rank)
            except Exception as exc:  # noqa: BLE001 - shipped home
                failed.set()
                dumps = threads = None
                if isinstance(exc, StepLimitExceeded):
                    dumps = core_dumps(interpreters, rank_of_core)
                client.report_error(exc, dumps, threads)

        threads = [threading.Thread(target=rank_main, args=(rank,),
                                    name="shard%d-ue%d" % (shard, rank))
                   for rank in ranks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failed.is_set():
            return  # the error already went home on the control pipe

        per_rank = {}
        for interp in interpreters:
            rank = rank_of_core[interp.core_id]
            per_rank[rank] = {
                "core": interp.core_id,
                "cycles": interp.cycles,
                "steps": interp.steps,
                "output": list(interp.output),
            }
        client.report_result({
            "ranks": per_rank,
            "chip": chip.counter_state(),
            "world": {
                "messages_sent": world.messages_sent,
                "put_bytes": world.put_bytes,
                "get_bytes": world.get_bytes,
                "send_bytes": world.send_bytes,
                "lock_contentions": world.lock_contentions,
                "mpb_fallbacks": world.mpb_fallbacks,
                "acquisitions": list(world.registers.acquisitions),
            },
            "barrier_wait": list(world.barrier_wait.samples),
        })
    except Exception as exc:  # noqa: BLE001 - worker setup failure
        try:
            control_conn.send(("error", shard, _pack_error(exc),
                               (None, None)))
        except Exception:  # noqa: BLE001 - parent already gone
            pass


# -- coordinator side --------------------------------------------------------

class _Coordinator:
    """Single-threaded event loop replaying the sequential sync
    semantics over worker pipes.

    Replies are deterministic: whenever one event releases several
    parked ranks (a barrier round completing, a rendezvous matching),
    they are replied to in ascending rank order — the fixed round-robin
    reconciliation order that keeps reruns identical.
    """

    def __init__(self, plan, config, skew):
        self.plan = plan
        self.num_ues = plan.num_ues
        self.config = config
        self.skew = skew
        self.barrier_cost = (config.barrier_base_cycles
                             + plan.num_ues
                             * config.barrier_per_core_cycles)
        self.conns = {}             # rank -> parent-side Connection
        self.controls = {}          # shard -> parent-side Connection
        # delta log: (origin shard, addr, value); versions are absolute
        # (log_base + list index) so the prefix can be truncated
        self.log = []
        self.log_base = 0
        self.sent_upto = [0] * plan.jobs
        # sync state
        self.rounds = 0
        self.barrier_arrivals = {}  # rank -> (clock, kind, extra)
        self.deposits = {}          # round_id -> {rank: values}
        self.readers = {}           # round_id -> count
        self.lock_owner = {}        # register index -> rank
        self.lock_waiters = {}      # register index -> deque of ranks
        self.flag_values = {}
        self.flag_clocks = {}
        self.flag_next_id = 1
        self.flag_sequence = {}
        self.flag_allocations = []
        self.flag_waiters = {}      # flag id -> [(rank, value, clock)]
        self.channels = {}          # (src, dst) key -> channel state
        # bookkeeping
        self.pending = {}           # rank -> op currently parked
        self.finished = set()
        self.results = {}           # shard -> result payload
        self.failure = None
        self.failure_dumps = None
        self.error_pushed = set()   # ranks already sent an error
        self.fatal = None           # HostFaultError: a worker died or
                                    # stalled, the attempt is abandoned

    # -- delta log ---------------------------------------------------------

    def append_deltas(self, shard, entries):
        self.log.extend((shard, addr, value) for addr, value in entries)

    def _range_for(self, shard):
        vfrom = self.sent_upto[shard]
        vto = self.log_base + len(self.log)
        entries = [(addr, value)
                   for origin, addr, value
                   in self.log[vfrom - self.log_base:]
                   if origin != shard]
        self.sent_upto[shard] = vto
        self._maybe_truncate()
        return (vfrom, vto, entries)

    def _maybe_truncate(self):
        floor = min(self.sent_upto)
        if floor - self.log_base > 65536:
            drop = floor - self.log_base
            del self.log[:drop]
            self.log_base = floor

    # -- replies -----------------------------------------------------------

    def reply(self, rank, result):
        self.pending.pop(rank, None)
        batch = self._range_for(self.plan.shard_of[rank])
        conn = self.conns.get(rank)
        if conn is not None:
            try:
                conn.send(("ok", result, batch))
            except (OSError, ValueError):
                pass  # dead worker; the event loop handles the EOF

    def reply_error(self, rank, packed):
        self.pending.pop(rank, None)
        self.error_pushed.add(rank)
        conn = self.conns.get(rank)
        if conn is not None:
            try:
                conn.send(("error", packed, None))
            except (OSError, ValueError):
                pass

    def push_failure(self, packed):
        """First failure wins (a secondary BarrierAborted never
        overrides the originating cause); every rank gets one error
        push — parked ranks consume it as their reply, computing ranks
        at their next tick or RPC."""
        for rank in range(self.num_ues):
            if rank in self.finished or rank in self.error_pushed:
                continue
            try:
                self.reply_error(rank, packed)
            except (OSError, ValueError):
                pass

    def record_failure(self, exc_packed, extra=None):
        if self.failure is None:
            self.failure = exc_packed
            if extra is not None:
                self.failure_dumps = extra
        self.push_failure(self.failure)

    # -- dispatch ----------------------------------------------------------

    def handle_control(self, shard, message):
        kind, _shard, payload, extra = message
        if kind in ("deltas", "tick"):
            self.append_deltas(shard, payload)
            if kind == "tick":
                self.skew.note_quantum(shard, extra)
        elif kind == "rank_done":
            self.finished.add(payload)
        elif kind == "error":
            self.record_failure(payload, extra)
        elif kind == "result":
            self.results[shard] = payload

    def handle_request(self, message):
        op = message[0]
        rank = message[1]
        if self.failure is not None:
            self.reply_error(rank, self.failure)
            return
        shard = self.plan.shard_of[rank]
        self.pending[rank] = op
        handler = getattr(self, "_op_" + op)
        try:
            handler(rank, *message[2:])
        except Exception as exc:  # noqa: BLE001 - a simulated-program
            # error (unallocated flag, protocol misuse): surface it in
            # the requesting rank exactly as the sequential primitive
            # would have raised it there
            self.reply_error(rank, _pack_error(exc))
        self.skew.note_sync(shard, self._clock_of(op, message))

    @staticmethod
    def _clock_of(op, message):
        # message = (op, rank, *args); which arg carries the clock
        # depends on the op's wire signature
        if op in ("barrier", "exchange"):
            return message[2]
        if op in ("flag_write", "flag_wait", "send"):
            return message[4]
        if op == "recv":
            return message[3]
        return None

    # barrier + collectives share one round state machine, because the
    # sequential CollectiveArea synchronizes on the world barrier and
    # shares its ``rounds`` counter

    def _op_barrier(self, rank, clock):
        self._barrier_arrive(rank, clock, "barrier", None)

    def _op_exchange(self, rank, clock, values, round_id):
        self.deposits.setdefault(round_id, {})[rank] = values
        self._barrier_arrive(rank, clock, "exchange", round_id)

    def _barrier_arrive(self, rank, clock, kind, extra):
        self.barrier_arrivals[rank] = (clock, kind, extra)
        if len(self.barrier_arrivals) < self.num_ues:
            return
        arrivals = self.barrier_arrivals
        self.barrier_arrivals = {}
        aligned = max(entry[0] for entry in arrivals.values()) \
            + self.barrier_cost
        self.rounds += 1
        for waiter in sorted(arrivals):
            _, waiter_kind, waiter_extra = arrivals[waiter]
            if waiter_kind == "barrier":
                self.reply(waiter, aligned)
            else:
                round_id = waiter_extra
                snapshot = dict(self.deposits.get(round_id, {}))
                readers = self.readers.get(round_id, 0) + 1
                self.readers[round_id] = readers
                if readers == self.num_ues:
                    self.deposits.pop(round_id, None)
                    del self.readers[round_id]
                self.reply(waiter, (snapshot, aligned))

    def _op_lock_contended(self, rank, index):
        self.reply(rank, index in self.lock_owner)

    def _op_lock_acquire(self, rank, index):
        if index not in self.lock_owner:
            self.lock_owner[index] = rank
            self.reply(rank, None)
        else:
            self.lock_waiters.setdefault(index, deque()).append(rank)

    def _op_lock_release(self, rank, index):
        if self.lock_owner.get(index) == rank:
            del self.lock_owner[index]
        self.reply(rank, None)
        waiters = self.lock_waiters.get(index)
        if waiters and index not in self.lock_owner:
            waiter = waiters.popleft()
            self.lock_owner[index] = waiter
            self.reply(waiter, None)

    def _op_flag_alloc(self, rank):
        index = self.flag_sequence.get(rank, 0)
        self.flag_sequence[rank] = index + 1
        if index < len(self.flag_allocations):
            self.reply(rank, self.flag_allocations[index])
            return
        flag_id = self.flag_next_id
        self.flag_next_id += 1
        self.flag_values[flag_id] = 0
        self.flag_clocks[flag_id] = 0
        self.flag_allocations.append(flag_id)
        self.reply(rank, flag_id)

    def _op_flag_free(self, rank, flag_id):
        self.flag_values.pop(flag_id, None)
        self.flag_clocks.pop(flag_id, None)
        self.reply(rank, None)

    def _op_flag_write(self, rank, flag_id, value, clock):
        if flag_id not in self.flag_values:
            raise CommDeadlockError(
                "write to unallocated flag %r" % flag_id)
        self.flag_values[flag_id] = value
        self.flag_clocks[flag_id] = clock
        self.reply(rank, None)
        waiters = self.flag_waiters.get(flag_id)
        if not waiters:
            return
        still = []
        for waiter, wanted, waiter_clock in waiters:
            if wanted == value:
                self.reply(waiter, max(waiter_clock, clock))
            else:
                still.append((waiter, wanted, waiter_clock))
        if still:
            self.flag_waiters[flag_id] = still
        else:
            del self.flag_waiters[flag_id]

    def _op_flag_read(self, rank, flag_id):
        if flag_id not in self.flag_values:
            raise CommDeadlockError(
                "read of unallocated flag %r" % flag_id)
        self.reply(rank, self.flag_values[flag_id])

    def _op_flag_wait(self, rank, flag_id, value, clock):
        if flag_id not in self.flag_values:
            raise CommDeadlockError(
                "wait on unallocated flag %r" % flag_id)
        if self.flag_values[flag_id] == value:
            self.reply(rank, max(clock, self.flag_clocks[flag_id]))
        else:
            self.flag_waiters.setdefault(flag_id, []).append(
                (rank, value, clock))

    def _channel(self, source, dest):
        key = (source, dest)
        state = self.channels.get(key)
        if state is None:
            state = self.channels[key] = {
                "payload": None,       # (sender rank, values, clock)
                "send_queue": deque(), # senders parked behind a payload
                "recv_waiter": None,   # (rank, clock, cost)
            }
        return state

    def _op_send(self, rank, dest, values, posted, seq):
        state = self._channel(rank, dest)
        if state["payload"] is not None:
            state["send_queue"].append((rank, values, posted))
            return
        state["payload"] = (rank, values, posted)
        self._try_rendezvous(state)

    def _op_recv(self, rank, source, clock, transfer_cost):
        state = self._channel(source, rank)
        if state["recv_waiter"] is not None:
            raise CommDeadlockError(
                "two concurrent recvs on one channel")
        state["recv_waiter"] = (rank, clock, transfer_cost)
        self._try_rendezvous(state)

    def _try_rendezvous(self, state):
        if state["payload"] is None or state["recv_waiter"] is None:
            return
        sender, values, sender_clock = state["payload"]
        receiver, recv_clock, cost = state["recv_waiter"]
        state["payload"] = None
        state["recv_waiter"] = None
        done = max(recv_clock, sender_clock) + cost
        # deterministic order: lower rank first
        for waiter in sorted((sender, receiver)):
            if waiter == sender:
                self.reply(sender, done)
            else:
                self.reply(receiver, (values, done))
        if state["send_queue"]:
            next_sender, next_values, next_posted = \
                state["send_queue"].popleft()
            state["payload"] = (next_sender, next_values, next_posted)
            self._try_rendezvous(state)

    # -- supervision -------------------------------------------------------

    # which user-facing sync site an RPC op parks at, for deadlock
    # messages (the satellite contract: name the rank AND the site)
    SYNC_SITE_KINDS = {
        "barrier": "barrier", "exchange": "barrier",
        "lock_contended": "lock", "lock_acquire": "lock",
        "lock_release": "lock",
        "flag_alloc": "flag", "flag_free": "flag",
        "flag_write": "flag", "flag_read": "flag", "flag_wait": "flag",
        "send": "send", "recv": "recv",
    }

    def all_parked(self):
        return (len(self.pending) + len(self.finished)) >= self.num_ues

    def parked_description(self):
        rows = ["rank %d parked at %s sync site"
                % (rank, self.SYNC_SITE_KINDS.get(op, op))
                for rank, op in sorted(self.pending.items())]
        return "; ".join(rows) if rows \
            else "no rank has reached a sync point"


def run_rcce_parallel(source, num_ues, config, chip, core_map,
                      max_steps, jobs, quantum=None,
                      start_method=None, diagnostics=None,
                      wall_timeout=WALL_TIMEOUT_SECONDS,
                      parked_timeout=PARKED_TIMEOUT_SECONDS,
                      watchdog=None):
    """Run an RCCE source program sharded over ``jobs`` worker
    processes.  Returns the same :class:`~repro.sim.runner.RunResult`
    shape as the sequential ``run_rcce`` — cycles, outputs, stats and
    metrics included — byte-identical in cycles and outputs.

    ``source`` must be the program's *source text* (workers re-parse it
    through the shared sha256 memo); the caller (``run_rcce``) already
    runs pre-parsed units sequentially.

    Each worker is watched through its process sentinel (death) and
    its control-pipe heartbeat (a shard with runnable ranks silent for
    ``HEARTBEAT_TIMEOUT_SECONDS``).  Either failure stops and reaps
    every worker and raises :class:`~repro.sim.watchdog.
    WorkerDeathError` or :class:`~repro.sim.watchdog.WorkerStallError`;
    ``run_rcce`` then reruns the program sequentially.  ``watchdog``
    maps a sequential :class:`~repro.sim.watchdog.Watchdog`'s
    lock/barrier timeouts onto the coordinator's parked/wall bounds
    (the coordinator sees every sync wait, so it subsumes the
    per-thread watchdog).
    """
    from repro.sim.runner import RunResult

    if not isinstance(source, str):
        raise TypeError("the process backend needs program source text")
    quantum = quantum or SkewBarrier.DEFAULT_QUANTUM
    plan = ShardPlan(num_ues, jobs)
    world_core_map = list(core_map) if core_map \
        else list(range(num_ues))
    skew = SkewBarrier(plan.jobs, quantum)
    coord = _Coordinator(plan, config, skew)

    heartbeat_timeout = HEARTBEAT_TIMEOUT_SECONDS
    if watchdog is not None:
        # every unfinished rank parked = every rank is inside a sync
        # wait, which is exactly what the sequential watchdog's lock
        # timeout bounds; total silence maps onto its barrier timeout
        parked_timeout = min(parked_timeout, watchdog.lock_timeout)
        wall_timeout = min(wall_timeout, watchdog.barrier_timeout)

    method = start_method
    if method is None:
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else methods[0]
    ctx = multiprocessing.get_context(method)

    workers = []          # shard -> Process
    reaped = set()        # shards whose worker is already joined
    last_control = {}     # shard -> monotonic time of last heartbeat
    conn_shard = {}       # id(control conn) -> shard
    conn_rank = {}        # id(rank conn) -> rank

    def spawn_shard(shard):
        ranks = plan.ranks_of(shard)
        rank_children = {}
        for rank in ranks:
            parent_end, child_end = ctx.Pipe()
            coord.conns[rank] = parent_end
            conn_rank[id(parent_end)] = rank
            rank_children[rank] = child_end
        control_parent, control_child = ctx.Pipe(duplex=False)
        coord.controls[shard] = control_parent
        conn_shard[id(control_parent)] = shard
        worker = ctx.Process(
            target=_worker_main,
            args=(shard, ranks, source, num_ues, world_core_map,
                  config, max_steps, quantum, rank_children,
                  control_child),
            name="repro-shard%d" % shard, daemon=True)
        worker.start()
        workers.append(worker)
        # the parent's copies of the child ends must close, or EOF on
        # a dead worker would never surface
        for conn in rank_children.values():
            conn.close()
        control_child.close()
        last_control[shard] = time.monotonic()

    def close_shard_conns(shard):
        control = coord.controls.pop(shard, None)
        if control is not None:
            conn_shard.pop(id(control), None)
            control.close()
        for rank in plan.ranks_of(shard):
            conn = coord.conns.pop(rank, None)
            if conn is not None:
                conn_rank.pop(id(conn), None)
                conn.close()

    def drain_control(shard):
        """Drain buffered control messages; False means the pipe hit
        EOF (worker gone)."""
        control = coord.controls.get(shard)
        while control is not None and control.poll():
            try:
                message = control.recv()
            except (EOFError, OSError):
                return False
            last_control[shard] = time.monotonic()
            coord.handle_control(shard, message)
        return True

    def shard_runnable(shard):
        """Whether the shard owes the coordinator activity: at least
        one of its ranks is neither finished nor parked at a sync
        point awaiting a reply."""
        return any(rank not in coord.finished
                   and rank not in coord.pending
                   for rank in plan.ranks_of(shard))

    def worker_lost(shard, error):
        """A worker exited or went silent.  Its control pipe may still
        hold its last words — a result or a simulated error — and
        those make the exit a completion or an ordinary failure;
        otherwise the attempt is abandoned with ``error``."""
        drain_control(shard)
        worker = workers[shard]
        if worker.is_alive():
            # a stalled worker may be stopped, and a stopped process
            # never acts on terminate()'s SIGTERM
            worker.kill()
        worker.join(timeout=JOIN_TIMEOUT_SECONDS)
        reaped.add(shard)
        close_shard_conns(shard)
        if shard not in coord.results and coord.failure is None \
                and coord.fatal is None:
            coord.fatal = error

    # graceful interrupt: a SIGTERM/SIGINT mid-run sets a flag; the
    # event loop notices within one wait() timeout, and the teardown
    # stops every worker at once so none is orphaned.  Handlers are
    # installable only from the main thread; elsewhere (a nested
    # coordinator on a helper thread) the default delivery applies.
    interrupted = []
    previous_handlers = {}
    if threading.current_thread() is threading.main_thread():
        def _on_interrupt(signum, _frame):
            interrupted.append(signum)
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum,
                                                      _on_interrupt)

    try:
        for shard in range(plan.jobs):
            spawn_shard(shard)
        last_activity = time.monotonic()
        parked_since = None
        while len(coord.results) < plan.jobs and \
                coord.failure is None and coord.fatal is None and \
                not interrupted:
            sentinel_shard = {
                worker.sentinel: shard
                for shard, worker in enumerate(workers)
                if shard not in reaped and shard not in coord.results}
            waitable = list(coord.controls.values()) \
                + list(coord.conns.values()) \
                + list(sentinel_shard)
            if not waitable:
                break
            ready = multiprocessing.connection.wait(waitable,
                                                    timeout=0.25)
            if ready:
                last_activity = time.monotonic()
                parked_since = None
            # data first, sentinels last: a worker that finished (or
            # crashed) may have parting messages buffered, and those
            # decide whether its exit is completion or a casualty
            for conn in ready:
                if conn in sentinel_shard:
                    continue
                shard = conn_shard.get(id(conn))
                if shard is not None:
                    if not drain_control(shard):
                        worker_lost(shard, WorkerDeathError(
                            "shard %d worker closed its control pipe "
                            "without reporting a result" % shard,
                            shard=shard))
                    continue
                rank = conn_rank.get(id(conn))
                if rank is None:
                    continue  # its shard's worker is already reaped
                shard = coord.plan.shard_of[rank]
                # the rank's dirty writes travel on its worker's
                # control pipe and were sent first; log them before
                # computing any reply this request triggers
                drain_control(shard)
                if coord.conns.get(rank) is not conn:
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    worker_lost(shard, WorkerDeathError(
                        "shard %d worker died without reporting a "
                        "result (EOF on rank %d)" % (shard, rank),
                        shard=shard))
                    continue
                coord.handle_request(message)
            for sentinel in ready:
                shard = sentinel_shard.get(sentinel)
                if shard is None or shard in reaped \
                        or workers[shard].is_alive():
                    continue  # already handled, or spurious wakeup
                worker_lost(shard, WorkerDeathError(
                    "shard %d worker process exited with code %s "
                    "before reporting a result"
                    % (shard, workers[shard].exitcode), shard=shard))
            if not ready:
                now = time.monotonic()
                stalled = [shard for shard in coord.controls
                           if now - last_control[shard]
                           > heartbeat_timeout
                           and shard_runnable(shard)]
                if stalled:
                    shard = stalled[0]
                    worker_lost(shard, WorkerStallError(
                        "shard %d worker made no quantum progress for "
                        "%.1fs (heartbeat timeout %gs)"
                        % (shard, now - last_control[shard],
                           heartbeat_timeout), shard=shard))
                elif coord.all_parked() and \
                        len(coord.finished) < num_ues:
                    if parked_since is None:
                        parked_since = now
                    elif now - parked_since > parked_timeout:
                        coord.record_failure(_pack_error(
                            CommDeadlockError(
                                "simulated program deadlocked: %s"
                                % coord.parked_description())))
                elif now - last_activity > wall_timeout:
                    coord.record_failure(_pack_error(
                        ParallelRunError(
                            "no worker activity for %gs (%s)"
                            % (wall_timeout,
                               coord.parked_description()))))
    finally:
        if interrupted or coord.fatal is not None:
            # nothing left to wait for: an abandoned attempt's workers
            # will never finish, and a stopped one would not even act
            # on SIGTERM
            for worker in workers:
                if worker.is_alive():
                    worker.kill()
        for worker in workers:
            worker.join(timeout=JOIN_TIMEOUT_SECONDS)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=JOIN_TIMEOUT_SECONDS)
        for conn in coord.conns.values():
            conn.close()
        for conn in coord.controls.values():
            conn.close()
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    if interrupted:
        raise ParallelInterrupted(interrupted[0], len(workers))
    if coord.fatal is not None:
        raise coord.fatal
    if coord.failure is not None:
        exc = _unpack_error(coord.failure)
        if isinstance(exc, StepLimitExceeded) and \
                not isinstance(exc, SimulationTimeout):
            dumps = (coord.failure_dumps or (None, None))[0]
            exc = SimulationTimeout(str(exc), dumps or [])
        elif isinstance(exc, (WatchdogError, SimulationTimeout)) and \
                not getattr(exc, "dumps", None):
            dumps = (coord.failure_dumps or (None, None))[0]
            if dumps:
                exc.dumps = dumps
        raise exc
    if len(coord.results) < plan.jobs:
        raise ParallelRunError(
            "only %d of %d workers reported results"
            % (len(coord.results), plan.jobs))

    # -- merge: one parent-side snapshot, structurally identical to the
    # sequential runner's -------------------------------------------------
    chip.metrics.reset()
    per_rank = {}
    for shard in sorted(coord.results):
        payload = coord.results[shard]
        chip.merge_counter_state(payload["chip"])
        per_rank.update(payload["ranks"])
    if len(per_rank) != num_ues:
        raise ParallelRunError(
            "workers reported %d of %d ranks" % (len(per_rank),
                                                 num_ues))

    world = RCCEWorld(chip, num_ues, world_core_map, watchdog=None)
    world.barrier.rounds = coord.rounds
    for shard in sorted(coord.results):
        state = coord.results[shard]["world"]
        world.messages_sent += state["messages_sent"]
        world.put_bytes += state["put_bytes"]
        world.get_bytes += state["get_bytes"]
        world.send_bytes += state["send_bytes"]
        world.lock_contentions += state["lock_contentions"]
        world.mpb_fallbacks += state["mpb_fallbacks"]
        for index, count in enumerate(state["acquisitions"]):
            world.registers.acquisitions[index] += count
    for shard in sorted(coord.results):
        for sample in coord.results[shard]["barrier_wait"]:
            world.barrier_wait.observe(sample)

    def collect_interpreters(_rows=per_rank):
        samples = []
        for rank in sorted(_rows):
            row = _rows[rank]
            labels = {"core": row["core"]}
            samples.append(("counter", "sim_steps", labels,
                            row["steps"]))
            samples.append(("counter", "sim_cycles", labels,
                            row["cycles"]))
        return samples

    chip.metrics.register_collector("sim.interpreters",
                                    collect_interpreters)

    chip.metrics.register_collector(
        "sim.parallel", parallel_collector(skew, plan.jobs))
    metrics = chip.metrics.snapshot()

    per_core = {row["core"]: row["cycles"]
                for row in per_rank.values()}
    total = max(per_core.values())
    outputs = []
    for core in sorted(per_core):
        rank = next(r for r, row in per_rank.items()
                    if row["core"] == core)
        outputs.extend(per_rank[rank]["output"])

    return RunResult(
        total, config, outputs,
        per_core_cycles=per_core,
        stats={
            "num_ues": num_ues,
            "barrier_rounds": coord.rounds,
            "mpb_fallbacks": world.mpb_fallbacks,
            "controllers": {index: (stats.reads, stats.writes)
                            for index, stats
                            in chip.controller_stats().items()},
            "parallel": parallel_stats(skew, plan.jobs,
                                       start_method=method),
        },
        metrics=metrics,
        diagnostics=diagnostics)
