"""The RCCE API surface, bound to the simulated chip.

:class:`RCCEWorld` is the per-run shared state (symmetric allocators,
barrier, locks); :class:`RCCECoreRuntime` is one core's view, exposing
the ``RCCE_*`` builtins to the interpreter.

Symmetric allocation: RCCE requires all UEs to call the collective
allocators in the same order with the same sizes; the first caller
performs the allocation, later callers get the same segment back — so
every core sees identical shared addresses, like the real library's
symmetric heap.
"""

import threading

from repro.obs.metrics import Histogram
from repro.scc.memmap import OutOfMemoryError
from repro.sim.values import NULL, Pointer
from repro.rcce.comm import (
    REDUCE_OPS,
    CollectiveArea,
    FlagTable,
    MessageFabric,
)
from repro.rcce.sync import ClockBarrier, Monitor, TestAndSetRegisters

SHMALLOC_COST = 300
MPB_MALLOC_COST = 120
INIT_COST = 5000
PUT_GET_SETUP_COST = 20


class RCCEAllocationError(Exception):
    """Collective allocation sequence mismatch between UEs."""


class _SymmetricHeap:
    """Sequence-matched collective allocator over one segment kind.

    The first UE to make its n-th call runs ``alloc_fn``; its outcome
    is recorded, and every other UE's n-th call returns it, ``None``
    (the allocation did not fit) included."""

    def __init__(self, alloc_fn, label):
        self.alloc_fn = alloc_fn
        self.label = label
        self.allocations = []   # [(size, segment or None)]
        self.sequence = {}      # rank -> next sequence index
        self.lock = threading.Lock()

    def allocate(self, rank, size):
        with self.lock:
            index = self.sequence.get(rank, 0)
            if index < len(self.allocations):
                recorded_size, segment = self.allocations[index]
                if recorded_size != size:
                    raise RCCEAllocationError(
                        "UE %d allocation #%d asked %d bytes where "
                        "another UE asked %d (%s)" % (
                            rank, index, size, recorded_size, self.label))
            else:
                segment = self.alloc_fn(size,
                                        "%s#%d" % (self.label, index))
                self.allocations.append((size, segment))
            self.sequence[rank] = index + 1
            return segment


class RCCEWorld:
    """Shared state for one RCCE program run over ``num_ues`` cores.

    Every primitive (barrier, test-and-set registers, flags, channels,
    collectives) keeps its state under one :class:`Monitor`, and every
    blocking RCCE call waits on it, so a deadlock raises
    :class:`~repro.sim.watchdog.DeadlockError` naming each rank's call
    site as soon as it forms.  The runner reports each rank's exit
    (``monitor.exit``) and a failure or interrupt (``monitor.abort``).
    """

    def __init__(self, chip, num_ues, core_map=None):
        if num_ues < 1:
            raise ValueError("need at least one UE")
        if num_ues > chip.config.num_cores:
            raise ValueError("more UEs than cores")
        self.chip = chip
        self.num_ues = num_ues
        self.core_map = list(core_map) if core_map \
            else list(range(num_ues))
        if len(self.core_map) != num_ues:
            raise ValueError("core_map length must equal num_ues")
        self.monitor = monitor = Monitor(num_ues)
        self.barrier = ClockBarrier(monitor, num_ues,
                                    chip.barrier_cost(num_ues))
        self.registers = TestAndSetRegisters(monitor,
                                             chip.config.num_cores)
        # race detector (repro.race), installed on the chip by the
        # runner before the world is built; None = every hook dead
        self.race = getattr(chip, "race", None)
        self.barrier.race = self.race
        self.registers.race = self.race
        # cycle attribution (repro.obs.attribution), installed the
        # same way; the runtime classifies every cycle it charges and
        # feeds the critical-path analyzer its sync events
        self.attribution = getattr(chip, "attribution", None)
        if self.attribution is not None:
            self.attribution.bind_ranks(self.core_map)
        self.shared_heap = _SymmetricHeap(
            chip.address_space.alloc_shared, "shmalloc")
        self.mpb_heap = _SymmetricHeap(self._alloc_mpb_or_spill,
                                       "mpbmalloc")
        self.mpb_fallbacks = 0  # RCCE_malloc calls that spilled to DRAM
        self.fabric = MessageFabric(monitor)
        self.flags = FlagTable(monitor)
        # recovery-layer send retrier (repro.recovery.retry), installed
        # by the runner when retry is enabled; None keeps RCCE_send on
        # the exact pre-recovery path
        self.retrier = None
        self.collectives = CollectiveArea(self.barrier, num_ues)
        self.messages_sent = 0
        # communication/synchronization accumulators, published through
        # the chip's metrics registry (repro.obs)
        self.put_bytes = 0
        self.get_bytes = 0
        self.send_bytes = 0
        # cycles each UE spent waiting at a barrier
        self.barrier_wait = Histogram()
        chip.metrics.register_collector("rcce.world",
                                        self._collect_metrics)
        # symmetric split allocations: sequence-matched (size, on-chip)
        self._split_lock = threading.Lock()
        self._split_allocs = []
        self._split_sequence = {}

    def allocate_split(self, rank, size, on_chip_bytes):
        """Collective §4.4 split allocation (head SRAM, tail DRAM)."""
        with self._split_lock:
            index = self._split_sequence.get(rank, 0)
            self._split_sequence[rank] = index + 1
            if index < len(self._split_allocs):
                recorded, segment = self._split_allocs[index]
                if recorded != (size, on_chip_bytes):
                    raise RCCEAllocationError(
                        "UE %d split allocation #%d mismatch: %r vs %r"
                        % (rank, index, (size, on_chip_bytes), recorded))
                return segment
            segment = self.chip.address_space.alloc_split(
                size, on_chip_bytes, "split#%d" % index)
            self._split_allocs.append(((size, on_chip_bytes), segment))
            return segment

    def _alloc_mpb_or_spill(self, size, label):
        """An MPB segment, or None when the MPB is full: the caller
        then spills to shared DRAM (like a runtime spilling oversized
        data off-chip — the LU matrix case of Figure 6.2)."""
        try:
            return self.chip.address_space.alloc_mpb(size, label)
        except OutOfMemoryError:
            return None

    def runtime_for(self, rank):
        return RCCECoreRuntime(self, rank)

    # -- observability ------------------------------------------------------

    def _collect_metrics(self):
        samples = [
            ("counter", "rcce_barrier_rounds", {}, self.barrier.rounds),
            ("counter", "rcce_messages_sent", {}, self.messages_sent),
            ("counter", "rcce_mpb_fallbacks", {}, self.mpb_fallbacks),
            ("counter", "rcce_put_bytes", {}, self.put_bytes),
            ("counter", "rcce_get_bytes", {}, self.get_bytes),
            ("counter", "rcce_send_bytes", {}, self.send_bytes),
        ]
        for register, count in enumerate(self.registers.acquisitions):
            if count:
                samples.append(("counter", "rcce_lock_acquisitions",
                                {"register": register}, count))
        retrier = self.retrier
        if retrier is not None:
            for core in sorted(retrier.retries):
                count = retrier.retries[core]
                if count:
                    samples.append(("counter", "rcce_send_retries",
                                    {"core": core}, count))
            if retrier.exhausted:
                samples.append(("counter",
                                "rcce_send_retries_exhausted", {},
                                retrier.exhausted))
        if self.barrier_wait.count:
            samples.append(("histogram", "rcce_barrier_wait_cycles", {},
                            self.barrier_wait.summary()))
        return samples


class RCCECoreRuntime:
    """One UE's RCCE builtins."""

    def __init__(self, world, rank):
        self.world = world
        self.rank = rank
        self.core_id = world.core_map[rank]
        self.race = world.race
        self.attr = world.attribution
        self._collective_round = 0
        # mesh topology and the rank->core map are fixed for the
        # world's lifetime, so hop counts to each peer are memoized
        # (RCCE_send/recv/flag/bcast/reduce all price messages by hops)
        self._hops_to = {}

    # -- builtin registry ---------------------------------------------------

    def builtins(self):
        return {
            "RCCE_init": self._init,
            "RCCE_finalize": self._finalize,
            "RCCE_ue": self._ue,
            "RCCE_num_ues": self._num_ues,
            "RCCE_shmalloc": self._shmalloc,
            "RCCE_shmalloc_split": self._shmalloc_split,
            "RCCE_shfree": self._free,
            "RCCE_malloc": self._mpb_malloc,
            "RCCE_free": self._free,
            "RCCE_barrier": self._barrier,
            "RCCE_acquire_lock": self._acquire_lock,
            "RCCE_release_lock": self._release_lock,
            "RCCE_put": self._put,
            "RCCE_get": self._get,
            "RCCE_wtime": self._wtime,
            "RCCE_send": self._send,
            "RCCE_recv": self._recv,
            "RCCE_flag_alloc": self._flag_alloc,
            "RCCE_flag_free": self._flag_free,
            "RCCE_flag_write": self._flag_write,
            "RCCE_flag_read": self._flag_read,
            "RCCE_wait_until": self._wait_until,
            "RCCE_bcast": self._bcast,
            "RCCE_reduce": self._reduce,
            "RCCE_allreduce": self._allreduce,
            "RCCE_comm_rank": self._comm_rank,
            "RCCE_comm_size": self._comm_size,
            "RCCE_power_domain": self._power_domain,
            "RCCE_iset_power": self._iset_power,
            "RCCE_wait_power": self._noop_ok,
            "RCCE_set_frequency_divider": self._set_frequency_divider,
        }

    @staticmethod
    def _eval(interp, arg_nodes):
        return [interp.eval_expr(node) for node in arg_nodes]

    def race_thread(self):
        """The thread id the race detector stamps accesses with: UE
        ranks (stable under any core_map)."""
        return self.rank

    # -- lifecycle ---------------------------------------------------------------

    def _init(self, interp, arg_nodes):
        self._eval(interp, arg_nodes)
        interp.charge(INIT_COST)
        return 0

    def _finalize(self, interp, arg_nodes):
        self._eval(interp, arg_nodes)
        self._barrier_wait(interp, "RCCE_finalize")
        return 0

    def _barrier_wait(self, interp, site):
        """Align clocks at the barrier; ``site`` names the call for
        deadlock reports."""
        entry = interp.cycles
        attr = self.attr
        # snapshot before the wait so phase deltas see only the
        # phase's own work
        snapshot = attr.core_snapshot(self.core_id) \
            if attr is not None else None
        interp.cycles = self.world.barrier.wait(self.rank, entry, site)
        self.world.barrier_wait.observe(interp.cycles - entry)
        if attr is not None:
            attr.add(self.core_id, "barrier_wait",
                     interp.cycles - entry)
            attr.barrier_event(self.rank, entry, interp.cycles,
                               snapshot)

    def _ue(self, interp, arg_nodes):
        self._eval(interp, arg_nodes)
        interp.charge_op("int_alu")
        return self.rank

    def _num_ues(self, interp, arg_nodes):
        self._eval(interp, arg_nodes)
        interp.charge_op("int_alu")
        return self.world.num_ues

    # -- memory --------------------------------------------------------------------

    def _shmalloc(self, interp, arg_nodes):
        args = self._eval(interp, arg_nodes)
        interp.charge(SHMALLOC_COST)
        size = max(int(args[0]), 4)
        segment = self.world.shared_heap.allocate(self.rank, size)
        if self.race is not None:
            self.race.register(segment.label or "shmalloc",
                               segment.base, segment.size, "shared")
        return Pointer(segment.base, 4, None)

    def _shmalloc_split(self, interp, arg_nodes):
        """RCCE_shmalloc_split(nbytes, on_chip_bytes): §4.4's
        DRAM/SRAM split allocation — contiguous to the program."""
        args = self._eval(interp, arg_nodes)
        interp.charge(SHMALLOC_COST + MPB_MALLOC_COST)
        size = max(int(args[0]), 4)
        on_chip = max(int(args[1]), 0) if len(args) > 1 else 0
        segment = self.world.allocate_split(self.rank, size, on_chip)
        if self.race is not None:
            self.race.register(segment.label or "split",
                               segment.base, segment.size, "shared")
        return Pointer(segment.base, 4, None)

    def _mpb_malloc(self, interp, arg_nodes):
        """On-chip allocation; falls back to shared DRAM when the MPB
        is full.  Every UE's n-th call spills when the first one did,
        so the shared heap's sequence stays in step."""
        args = self._eval(interp, arg_nodes)
        interp.charge(MPB_MALLOC_COST)
        size = max(int(args[0]), 4)
        segment = self.world.mpb_heap.allocate(self.rank, size)
        if segment is None:
            self.world.mpb_fallbacks += 1
            segment = self.world.shared_heap.allocate(self.rank, size)
        if self.race is not None:
            self.race.register(segment.label or "mpbmalloc",
                               segment.base, segment.size, "shared")
        return Pointer(segment.base, 4, None)

    def _free(self, interp, arg_nodes):
        self._eval(interp, arg_nodes)
        interp.charge(SHMALLOC_COST // 4)
        return None

    # -- synchronization --------------------------------------------------------------

    def _barrier(self, interp, arg_nodes):
        self._eval(interp, arg_nodes)
        self._barrier_wait(interp, "RCCE_barrier")
        return 0

    def _acquire_lock(self, interp, arg_nodes):
        args = self._eval(interp, arg_nodes)
        register = int(args[0]) if args else 0
        owner = register % self.world.chip.config.num_cores
        cost = self.world.chip.lock_cost(self.core_id, owner)
        interp.charge(cost)
        if self.attr is not None:
            self.attr.add(self.core_id, "lock_spin", cost)
        self.world.registers.acquire(register, self.rank)
        return 0

    def _release_lock(self, interp, arg_nodes):
        args = self._eval(interp, arg_nodes)
        register = int(args[0]) if args else 0
        owner = register % self.world.chip.config.num_cores
        cost = self.world.chip.lock_cost(self.core_id, owner)
        interp.charge(cost)
        if self.attr is not None:
            self.attr.add(self.core_id, "lock_spin", cost)
        self.world.registers.release(register, self.rank)
        return 0

    # -- one-sided communication ----------------------------------------------------------

    def _put(self, interp, arg_nodes):
        """RCCE_put(target_mpb, source, nbytes, target_ue)."""
        return self._move(interp, arg_nodes, is_put=True)

    def _get(self, interp, arg_nodes):
        """RCCE_get(target, source_mpb, nbytes, source_ue)."""
        return self._move(interp, arg_nodes, is_put=False)

    def _move(self, interp, arg_nodes, is_put):
        args = self._eval(interp, arg_nodes)
        if len(args) < 3:
            return -1
        dst, src, nbytes = args[0], args[1], max(int(args[2]), 0)
        if not isinstance(dst, Pointer) or not isinstance(src, Pointer):
            return -1
        mpb_side = dst if is_put else src
        interp.charge(PUT_GET_SETUP_COST)
        try:
            offset = self.world.chip.address_space.mpb_offset(
                mpb_side.addr)
            # bulk_transfer_cycles attributes its own mpb/mesh split
            interp.charge(self.world.chip.mpb.bulk_transfer_cycles(
                self.core_id, offset, nbytes))
        except ValueError:
            # not actually an MPB address; price as word accesses
            words = max(nbytes // 4, 1)
            interp.charge(words)
            if self.attr is not None:
                self.attr.add(self.core_id, "block_copy", words)
        stride = max(dst.stride, 1)
        count = max(nbytes // stride, 1)
        interp.memory.memcpy(dst.addr, src.addr, count, stride)
        if self.race is not None:
            # the bulk copy bypasses the compiled loads and stores, so
            # audit it here
            self.race.record_range(interp, src.addr, count, stride,
                                   "read")
            self.race.record_range(interp, dst.addr, count, stride,
                                   "write")
        if is_put:
            self.world.put_bytes += nbytes
        else:
            self.world.get_bytes += nbytes
        return 0

    def _wtime(self, interp, arg_nodes):
        self._eval(interp, arg_nodes)
        return self.world.chip.config.seconds_from_cycles(interp.cycles)

    # -- two-sided communication (RCCE_comm layer) ----------------------------------

    def _buffer_values(self, interp, pointer, nbytes):
        stride = max(pointer.stride, 1)
        count = max(nbytes // stride, 1)
        return interp.memory.snapshot_range(pointer.addr, count, stride), \
            count, stride

    def _transfer_parts(self, peer_rank, nbytes):
        """One message = a bulk copy staged through the peer's MPB.
        Returns ``(total_cycles, mesh_hop_part)`` so attribution can
        split the charge."""
        peer = peer_rank % self.world.num_ues
        hops = self._hops_to.get(peer)
        if hops is None:
            peer_core = self.world.core_map[peer]
            hops = self._hops_to[peer] = self.world.chip.mesh.hops(
                self.core_id, peer_core)
        words = max((nbytes + 3) // 4, 1)
        config = self.world.chip.config
        hop_part = hops * config.mesh_cycles_per_hop
        return (2 * config.mpb_base_cycles + hop_part + words,
                hop_part)

    def _attr_transfer(self, total, hop_part):
        """Attribute one charged message-transfer cost (MPB round
        trips + pipelined words vs. mesh hops)."""
        self.attr.add(self.core_id, "mesh_hop", hop_part)
        self.attr.add(self.core_id, "mpb", total - hop_part)

    def _send(self, interp, arg_nodes):
        """RCCE_send(buf, size, dest) — synchronous."""
        args = self._eval(interp, arg_nodes)
        if len(args) < 3 or not isinstance(args[0], Pointer):
            return -1
        buf, nbytes, dest = args[0], max(int(args[1]), 0), int(args[2])
        values, count, stride = self._buffer_values(interp, buf, nbytes)
        if self.race is not None:
            self.race.record_range(interp, buf.addr, count, stride,
                                   "read")
        cost, hop_part = self._transfer_parts(dest, nbytes)
        channel = self.world.fabric.channel(self.rank, dest)
        entry = interp.cycles
        seq = None
        retrier = self.world.retrier
        if retrier is not None:
            seq = retrier.next_seq(self.rank, dest)
            extra = retrier.transmit(self, interp, dest, seq, cost)
            interp.charge(extra)
            if self.attr is not None:
                self.attr.add(self.core_id, "retry_backoff", extra)
        posted = interp.cycles + cost
        interp.cycles = channel.send(values, posted, seq, self.race)
        if self.attr is not None:
            self._attr_transfer(cost, hop_part)
            self.attr.add(self.core_id, "comm_wait",
                          interp.cycles - posted)
            self.attr.send_event(self.rank,
                                 dest % self.world.num_ues,
                                 entry, posted, interp.cycles)
        self.world.messages_sent += 1
        self.world.send_bytes += nbytes
        return 0

    def _recv(self, interp, arg_nodes):
        """RCCE_recv(buf, size, source) — blocking."""
        args = self._eval(interp, arg_nodes)
        if len(args) < 3 or not isinstance(args[0], Pointer):
            return -1
        buf, nbytes, source = args[0], max(int(args[1]), 0), int(args[2])
        cost, hop_part = self._transfer_parts(source, nbytes)
        channel = self.world.fabric.channel(source, self.rank)
        entry = interp.cycles
        values, clock = channel.recv(interp.cycles, cost, self.race)
        interp.cycles = clock
        if self.attr is not None:
            # clock = max(entry, sender_clock) + cost: the transfer is
            # ours to attribute, the rest was spent waiting
            self._attr_transfer(cost, hop_part)
            self.attr.add(self.core_id, "comm_wait",
                          clock - cost - entry)
            self.attr.recv_event(self.rank,
                                 source % self.world.num_ues,
                                 entry, clock - cost, clock)
        stride = max(buf.stride, 1)
        for index, value in enumerate(values):
            interp.memory.store(buf.addr + index * stride, value)
        if self.race is not None and values:
            self.race.record_range(interp, buf.addr, len(values),
                                   stride, "write")
        return 0

    # -- MPB flags ---------------------------------------------------------------------

    def _flag_alloc(self, interp, arg_nodes):
        args = self._eval(interp, arg_nodes)
        if not args or not isinstance(args[0], Pointer):
            return -1
        flag_id = self.world.flags.alloc(self.rank)
        interp.store(args[0].addr, flag_id)
        return 0

    def _flag_free(self, interp, arg_nodes):
        args = self._eval(interp, arg_nodes)
        if args and isinstance(args[0], Pointer):
            self.world.flags.free(interp.memory.load(args[0].addr))
        return 0

    def _flag_id(self, interp, value):
        if isinstance(value, Pointer):
            return interp.memory.load(value.addr)
        return int(value)

    def _flag_write(self, interp, arg_nodes):
        """RCCE_flag_write(&flag, value, target_ue)."""
        args = self._eval(interp, arg_nodes)
        if len(args) < 2:
            return -1
        flag_id = self._flag_id(interp, args[0])
        target = int(args[2]) if len(args) > 2 else self.rank
        cost, hop_part = self._transfer_parts(target, 4)
        interp.charge(cost)
        if self.attr is not None:
            self._attr_transfer(cost, hop_part)
            self.attr.flag_write_event(self.rank, flag_id,
                                       interp.cycles)
        self.world.flags.write(flag_id, int(args[1]), interp.cycles,
                               race=self.race, tid=self.rank)
        return 0

    def _flag_read(self, interp, arg_nodes):
        """RCCE_flag_read(flag, &value, source_ue)."""
        args = self._eval(interp, arg_nodes)
        if not args:
            return -1
        flag_id = self._flag_id(interp, args[0])
        source = int(args[2]) if len(args) > 2 else self.rank
        cost, hop_part = self._transfer_parts(source, 4)
        interp.charge(cost)
        if self.attr is not None:
            self._attr_transfer(cost, hop_part)
        value = self.world.flags.read(flag_id, race=self.race,
                                      tid=self.rank)
        if len(args) > 1 and isinstance(args[1], Pointer):
            interp.store(args[1].addr, value)
        return value

    def _wait_until(self, interp, arg_nodes):
        """RCCE_wait_until(flag, value) — spin on a remote flag."""
        args = self._eval(interp, arg_nodes)
        if len(args) < 2:
            return -1
        flag_id = self._flag_id(interp, args[0])
        interp.charge(self.world.chip.config.mpb_base_cycles)
        entry = interp.cycles
        interp.cycles = self.world.flags.wait_until(
            self.rank, flag_id, int(args[1]), interp.cycles, self.race)
        if self.attr is not None:
            self.attr.add(self.core_id, "mpb",
                          self.world.chip.config.mpb_base_cycles)
            self.attr.add(self.core_id, "comm_wait",
                          interp.cycles - entry)
            self.attr.wait_event(self.rank, flag_id, entry,
                                 interp.cycles)
        return 0

    # -- collectives -------------------------------------------------------------------

    def _next_round(self):
        round_id = self._collective_round
        self._collective_round += 1
        return round_id

    def _bcast(self, interp, arg_nodes):
        """RCCE_bcast(buf, size, root, comm)."""
        args = self._eval(interp, arg_nodes)
        if len(args) < 3 or not isinstance(args[0], Pointer):
            return -1
        buf, nbytes, root = args[0], max(int(args[1]), 0), int(args[2])
        stride = max(buf.stride, 1)
        count = max(nbytes // stride, 1)
        if self.rank == root:
            values = interp.memory.snapshot_range(buf.addr, count, stride)
            if self.race is not None:
                self.race.record_range(interp, buf.addr, count, stride,
                                       "read")
        else:
            values = []
        cost, hop_part = self._transfer_parts(root, nbytes)
        interp.charge(cost)
        attr = self.attr
        snapshot = attr.core_snapshot(self.core_id) \
            if attr is not None else None
        entry = interp.cycles
        deposits, clock = self.world.collectives.exchange(
            self.rank, interp.cycles, values, self._next_round(),
            "RCCE_bcast")
        interp.cycles = clock
        if attr is not None:
            # the exchange aligns clocks on the world barrier, so it
            # counts (and records) as a barrier round
            self._attr_transfer(cost, hop_part)
            attr.add(self.core_id, "barrier_wait", clock - entry)
            attr.barrier_event(self.rank, entry, clock, snapshot)
        if self.rank != root:
            delivered = deposits.get(root, [])
            for index, value in enumerate(delivered):
                interp.memory.store(buf.addr + index * stride, value)
            if self.race is not None and delivered:
                self.race.record_range(interp, buf.addr,
                                       len(delivered), stride, "write")
        return 0

    def _reduce_common(self, interp, arg_nodes, all_ranks):
        """RCCE_[all]reduce(inbuf, outbuf, num, type, op[, root], comm).

        ``num`` counts elements; ``type``/``op`` take the RCCE_* enum
        constants.  For RCCE_reduce only the root's outbuf is written.
        """
        args = self._eval(interp, arg_nodes)
        if len(args) < 5 or not isinstance(args[0], Pointer) or \
                not isinstance(args[1], Pointer):
            return -1
        inbuf, outbuf = args[0], args[1]
        count = max(int(args[2]), 1)
        op_code = int(args[4])
        op = _OP_BY_CODE.get(op_code)
        if op is None:
            return -1
        root = None if all_ranks else int(args[5]) if len(args) > 5 else 0
        stride = max(inbuf.stride, 1)
        values = interp.memory.snapshot_range(inbuf.addr, count, stride)
        if self.race is not None:
            self.race.record_range(interp, inbuf.addr, count, stride,
                                   "read")
        cost, hop_part = self._transfer_parts(
            root if root is not None else 0, count * stride)
        interp.charge(cost)
        attr = self.attr
        snapshot = attr.core_snapshot(self.core_id) \
            if attr is not None else None
        entry = interp.cycles
        deposits, clock = self.world.collectives.exchange(
            self.rank, interp.cycles, values, self._next_round(),
            "RCCE_allreduce" if all_ranks else "RCCE_reduce")
        interp.cycles = clock
        if attr is not None:
            self._attr_transfer(cost, hop_part)
            attr.add(self.core_id, "barrier_wait", clock - entry)
            attr.barrier_event(self.rank, entry, clock, snapshot)
        if all_ranks or self.rank == root:
            result = CollectiveArea.reduce(deposits, op)
            out_stride = max(outbuf.stride, 1)
            for index, value in enumerate(result):
                interp.memory.store(outbuf.addr + index * out_stride,
                                    value)
            if self.race is not None and result:
                self.race.record_range(interp, outbuf.addr,
                                       len(result), out_stride, "write")
        return 0

    def _reduce(self, interp, arg_nodes):
        return self._reduce_common(interp, arg_nodes, all_ranks=False)

    def _allreduce(self, interp, arg_nodes):
        return self._reduce_common(interp, arg_nodes, all_ranks=True)

    def _comm_rank(self, interp, arg_nodes):
        args = self._eval(interp, arg_nodes)
        if len(args) > 1 and isinstance(args[1], Pointer):
            interp.store(args[1].addr, self.rank)
        return self.rank

    def _comm_size(self, interp, arg_nodes):
        args = self._eval(interp, arg_nodes)
        if len(args) > 1 and isinstance(args[1], Pointer):
            interp.store(args[1].addr, self.world.num_ues)
        return self.world.num_ues

    # -- power management (§5.1's three mechanisms) --------------------------------------
    #
    # The power calls steer the chip's PowerModel (reported watts); the
    # cycle accounting stays at the Table 6.1 frequency — the paper's
    # experiments never change frequency mid-run.

    def _power_domain(self, interp, arg_nodes):
        self._eval(interp, arg_nodes)
        tile = self.world.chip.mesh.tile_of(self.core_id)
        return self.world.chip.power.domain_of_tile(tile).index

    def _iset_power(self, interp, arg_nodes):
        """RCCE_iset_power(divider): scale this core's power domain."""
        args = self._eval(interp, arg_nodes)
        divider = max(int(args[0]), 1) if args else 1
        config = self.world.chip.config
        freq = max(config.core_freq_mhz // divider, 125)
        voltage = _voltage_for_frequency(freq)
        tile = self.world.chip.mesh.tile_of(self.core_id)
        domain = self.world.chip.power.domain_of_tile(tile)
        self.world.chip.power.set_domain_frequency(
            domain.index, freq, voltage)
        interp.charge(1000)  # the VRC round trip is slow
        return 0

    def _set_frequency_divider(self, interp, arg_nodes):
        return self._iset_power(interp, arg_nodes)

    def _noop_ok(self, interp, arg_nodes):
        self._eval(interp, arg_nodes)
        return 0


# RCCE op/type enum codes (exposed as environment constants).
_OP_BY_CODE = {0: "sum", 1: "max", 2: "min", 3: "prod"}


def _voltage_for_frequency(freq_mhz):
    """Linear V/f interpolation over the §5.1 envelope."""
    from repro.scc.config import MAX_OPERATING_POINT, MIN_OPERATING_POINT
    low, high = MIN_OPERATING_POINT, MAX_OPERATING_POINT
    if freq_mhz <= low.freq_mhz:
        return low.voltage
    if freq_mhz >= high.freq_mhz:
        return high.voltage
    fraction = (freq_mhz - low.freq_mhz) / (high.freq_mhz - low.freq_mhz)
    return low.voltage + fraction * (high.voltage - low.voltage)
