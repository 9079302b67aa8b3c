"""The assembled chip: cores with private caches, mesh, MPB, DRAM.

``access_cost(core, addr, kind, size)`` is the single timing entry point
the interpreter uses.  Pricing:

* PRIVATE address — L1/L2 lookup; on miss, mesh hops to the core's
  memory controller plus DRAM latency (with queueing);
* SHARED address  — never cached (non-coherent chip): every access pays
  mesh + controller + queueing, plus the uncached-bypass penalty;
* MPB address     — SRAM round trip plus mesh hops to the owning tile.
"""

import threading

from repro.obs.metrics import MetricsRegistry
from repro.scc.cache import Cache
from repro.scc.dram import MemoryController
from repro.scc.lut import WINDOW_BYTES, LookupTable
from repro.scc.memmap import (
    MPB_BASE,
    PRIVATE_BASE,
    PRIVATE_WINDOW,
    SHARED_BASE,
    SHARED_SIZE,
    AddressSpace,
    SegmentKind,
)
from repro.scc.mesh import Mesh
from repro.scc.mpb import MessagePassingBuffer
from repro.scc.power import PowerModel


class CoreState:
    """Per-core caches and counters."""

    def __init__(self, core_id, config):
        self.core_id = core_id
        self.l1 = Cache(config.l1_size, config.l1_line_size,
                        config.l1_assoc, "core%d-L1" % core_id)
        self.l2 = Cache(config.l2_size, config.l2_line_size,
                        config.l2_assoc, "core%d-L2" % core_id)
        # shared and MPB accesses, counted as they are priced; private
        # ones are derived from the L1 counters (see ``accesses``)
        self.counted = {SegmentKind.SHARED: 0, SegmentKind.MPB: 0}

    @property
    def accesses(self):
        """``{segment kind: accesses}``.  Every private and every MPB
        access probes L1 exactly once, so the private count is the L1
        probes less the MPB accesses and the private hit path need not
        count anything beyond the L1 hit."""
        counted = self.counted
        mpb = counted[SegmentKind.MPB]
        stats = self.l1.stats
        return {SegmentKind.PRIVATE: stats.hits + stats.misses - mpb,
                SegmentKind.SHARED: counted[SegmentKind.SHARED],
                SegmentKind.MPB: mpb}

    def __repr__(self):
        return "CoreState(%d, L1 %s)" % (self.core_id, self.l1.stats)


class SCCChip:
    """One simulated SCC."""

    def __init__(self, config):
        self.config = config
        self.mesh = Mesh(config)
        self.address_space = AddressSpace(config)
        self.mpb = MessagePassingBuffer(config, self.mesh)
        self.cores = [CoreState(i, config) for i in range(config.num_cores)]
        self.controllers = [MemoryController(i, config)
                            for i in range(config.num_memory_controllers)]
        # each core's memory controller and its hop count to it, fixed
        # by the mesh layout
        self._controller_of = []
        self._hops_to_controller = []
        for core in range(config.num_cores):
            controller_id = self.mesh.controller_of(core)
            self._controller_of.append(self.controllers[controller_id])
            self._hops_to_controller.append(
                self.mesh.hops_to_controller(core, controller_id))
        self.power = PowerModel(config)
        self.luts = [LookupTable(i, config, self.mesh)
                     for i in range(config.num_cores)]
        self._reconfigured_cores = set()
        self._lock = threading.Lock()
        # Epoch for the interpreter's per-site memory-access inline
        # caches: any change to address translation (LUT reprogramming,
        # a new split window) bumps it, invalidating every cached
        # (window, cost-function) entry.  Increments are GIL-atomic.
        self.mem_epoch = 0
        self._site_cache_holders = []   # weakrefs to Interpreters
        self.address_space.on_layout_change(self._bump_mem_epoch)
        # observability: every component's counters surface through one
        # registry (repro.obs)
        self.metrics = MetricsRegistry()
        self.metrics.register_collector("scc.chip", self._collect_metrics)
        # set by the run this chip serves (see ``claim``)
        self.claimed = False
        # fault injection (repro.faults): ``None`` means no injector is
        # attached and every hook below is a single dead branch, so an
        # un-faulted run prices accesses byte-identically
        self.faults = None
        # ECC scrubbing (repro.recovery.ecc): ``None`` means reads are
        # unprotected — flipped values reach the program as in PR 3
        self.ecc = None
        # race detection (repro.race): ``None`` means no detector is
        # attached and the interpreter/runtime hooks are dead branches
        self.race = None
        # cycle attribution (repro.obs.attribution): ``None`` means no
        # engine is attached; every cost method below classifies its
        # cycles behind one is-not-None probe, and the fast-path
        # closures bake the probe result in at build time
        self.attribution = None

    # -- observability ----------------------------------------------------------

    def _collect_metrics(self):
        """Publish every component counter as registry samples."""
        samples = []
        for state in self.cores:
            for level, cache in (("l1", state.l1), ("l2", state.l2)):
                stats = cache.stats
                if stats.accesses == 0 and stats.evictions == 0:
                    continue
                labels = {"core": state.core_id, "level": level}
                samples.append(("counter", "scc_cache_hits", labels,
                                stats.hits))
                samples.append(("counter", "scc_cache_misses", labels,
                                stats.misses))
                samples.append(("counter", "scc_cache_evictions",
                                labels, stats.evictions))
            for kind, count in state.accesses.items():
                if count:
                    samples.append((
                        "counter", "scc_core_accesses",
                        {"core": state.core_id, "segment": str(kind)},
                        count))
        for controller in self.controllers:
            labels = {"controller": controller.index}
            if controller.stats.accesses:
                samples.append(("counter", "scc_dram_reads", labels,
                                controller.stats.reads))
                samples.append(("counter", "scc_dram_writes", labels,
                                controller.stats.writes))
                samples.append(("counter", "scc_dram_busy_cycles",
                                labels, controller.stats.busy_cycles))
            if controller.active_requesters:
                samples.append(("gauge", "scc_dram_active_requesters",
                                labels,
                                len(controller.active_requesters)))
        samples.append(("counter", "scc_mpb_reads", {},
                        self.mpb.stats.reads))
        samples.append(("counter", "scc_mpb_writes", {},
                        self.mpb.stats.writes))
        samples.append(("counter", "scc_mpb_bytes_moved", {},
                        self.mpb.stats.bytes_moved))
        if self.mpb.stats.corrupted_reads:
            samples.append(("counter", "scc_mpb_corrupted_reads", {},
                            self.mpb.stats.corrupted_reads))
        if self.mpb.stats.ecc_corrected:
            samples.append(("counter", "scc_mpb_ecc_corrected", {},
                            self.mpb.stats.ecc_corrected))
        dram_ecc = sum(controller.stats.ecc_corrected
                       for controller in self.controllers)
        if dram_ecc:
            samples.append(("counter", "scc_dram_ecc_corrected", {},
                            dram_ecc))
        if self.mesh.drops:
            samples.append(("counter", "scc_mesh_dropped_messages", {},
                            self.mesh.drops))
        if self.mesh.retries:
            samples.append(("counter", "scc_mesh_retried_messages", {},
                            self.mesh.retries))
        for link, count in sorted(self.mesh.link_traffic.items()):
            samples.append(("counter", "scc_mesh_link_traffic",
                            {"link": "%s->%s" % link}, count))
        for (link, segment), count in sorted(
                self.mesh.segment_traffic.items()):
            samples.append(("counter", "scc_mesh_segment_traffic",
                            {"link": "%s->%s" % link,
                             "segment": segment}, count))
        for owner, row in sorted(self.mpb.owner_traffic_totals()
                                 .items()):
            labels = {"owner": owner}
            samples.append(("counter", "scc_mpb_owner_reads", labels,
                            row["reads"]))
            samples.append(("counter", "scc_mpb_owner_writes", labels,
                            row["writes"]))
            samples.append(("counter", "scc_mpb_owner_bytes", labels,
                            row["bytes"]))
        samples.append(("gauge", "scc_power_watts", {},
                        self.power.chip_power_watts()))
        samples.append(("gauge", "scc_mem_epoch", {}, self.mem_epoch))
        return samples

    def claim(self):
        """Take the chip for one run.  A chip serves one run: its
        counters, caches, address space and hooks keep that run's
        state, so a second run on it would mix two runs' counts."""
        if self.claimed:
            raise ValueError(
                "this SCCChip already served a run; a chip serves one "
                "run, so build a fresh SCCChip for each run")
        self.claimed = True

    # -- requester registration (contention model input) -----------------------

    def activate_core(self, core):
        controller = self._controller_of[core]
        with self._lock:
            controller.register_requester(core)

    def deactivate_core(self, core):
        controller = self._controller_of[core]
        with self._lock:
            controller.unregister_requester(core)

    # -- the timing entry point ---------------------------------------------------

    def configure_window(self, core, addr, shared):
        """Reprogram the LUT window holding ``addr`` for ``core`` —
        the paper's page-table mechanism for flipping DRAM between
        private-cacheable and shared-uncacheable."""
        lut = self.luts[core]
        entry = lut.mark_shared(addr) if shared else lut.mark_private(addr)
        self._reconfigured_cores.add(core)
        self._bump_mem_epoch()
        if shared:
            self.cores[core].l1.invalidate_all()  # stale lines die
            self.cores[core].l2.invalidate_all()
        return entry

    def _bump_mem_epoch(self):
        """Invalidate every interpreter's memory-access inline caches.

        Push-style invalidation: entries carry no epoch stamp and pay
        no versioning check per access; instead each registered holder's
        cache dict is cleared here, on the (rare) LUT/layout change."""
        self.mem_epoch += 1
        holders = self._site_cache_holders
        if holders:
            live = []
            for ref in holders:
                holder = ref()
                if holder is not None:
                    holder._site_cache.clear()
                    live.append(ref)
            self._site_cache_holders = live

    def register_site_cache_holder(self, interp):
        """Register ``interp`` (weakly) for inline-cache invalidation
        on ``mem_epoch`` bumps."""
        import weakref
        self._site_cache_holders.append(weakref.ref(interp))

    def access_cost(self, core, addr, kind="read", size=4):
        """Cycle cost of one memory access from ``core``."""
        state = self.cores[core]
        segment, physical = self.address_space.resolve(addr)
        if core in self._reconfigured_cores:
            entry = self.luts[core].lookup(addr)
            if entry is not None and entry.kind in (
                    SegmentKind.PRIVATE, SegmentKind.SHARED):
                segment = entry.kind

        if segment is SegmentKind.PRIVATE:
            # counted by its L1 probe (CoreState.accesses)
            cost = self._private_cost(core, state, physical)
        elif segment is SegmentKind.SHARED:
            state.counted[segment] += 1
            cost = self._shared_cost(core, kind)
        else:
            state.counted[segment] += 1
            cost = self._mpb_cost(core, physical, kind, size)
        if self.faults is not None:
            extra = self.faults.latency_extra(core, cost)
            if extra and self.attribution is not None:
                self.attribution.add(core, "fault_latency", extra)
            cost += extra
        return cost

    def access_fastpath(self, core, addr):
        """Build one inline-cache entry for ``addr`` as seen by
        ``core``: ``(lo, hi, fn)`` where ``fn(addr, kind)`` prices
        any scalar (size-4) access with ``lo <= addr < hi``, with side
        effects identical to :meth:`access_cost`.

        The entry bakes in the result of address resolution — segment
        classification, split-window translation (as an affine delta),
        and the LUT override for reconfigured cores — and delegates to
        the live ``_private_cost``/``_shared_cost``/``_mpb_cost`` so
        cache state, DRAM queueing and traffic recording stay exact.
        Entries are only valid for the ``mem_epoch`` at build time;
        callers must rebuild when the epoch changes.

        With a fault injector attached the entry covers every address
        and prices through :meth:`access_cost` itself, so link faults
        see each access exactly as on the slow path."""
        if self.faults is not None:
            def slow(addr, kind, _cost=self.access_cost, _core=core):
                return _cost(_core, addr, kind, 4)
            return 0, 1 << 64, slow
        segment, physical = self.address_space.resolve(addr)
        delta = physical - addr
        if segment is SegmentKind.PRIVATE:
            lo = PRIVATE_BASE
            hi = PRIVATE_BASE + PRIVATE_WINDOW * self.config.num_cores
        elif segment is SegmentKind.SHARED:
            if SHARED_BASE <= addr < SHARED_BASE + SHARED_SIZE:
                lo, hi = SHARED_BASE, SHARED_BASE + SHARED_SIZE
            else:  # shared-DRAM tail of a split window
                split = self.address_space._split_of(addr)
                lo = split.base + split.on_chip_bytes
                hi = split.end
        else:
            if MPB_BASE <= addr < MPB_BASE + self.config.mpb_total_bytes:
                lo = MPB_BASE
                hi = MPB_BASE + self.config.mpb_total_bytes
            else:  # MPB head of a split window
                split = self.address_space._split_of(addr)
                lo, hi = split.base, split.base + split.on_chip_bytes
        if core in self._reconfigured_cores:
            # LUT overrides are per 16MB window (with the lookup's
            # modulo-256 aliasing); clamp so the override baked into
            # this entry is constant across its whole range.
            window_lo = addr - addr % WINDOW_BYTES
            lo = max(lo, window_lo)
            hi = min(hi, window_lo + WINDOW_BYTES)
            entry = self.luts[core].lookup(addr)
            if entry is not None and entry.kind in (
                    SegmentKind.PRIVATE, SegmentKind.SHARED):
                segment = entry.kind

        state = self.cores[core]
        if segment is SegmentKind.PRIVATE:
            # the L1 hit probe is fully inlined, as Cache.access runs
            # it: a repeat of the cache's last line or a hit on its
            # set's MRU way reorders nothing, any other hit moves its
            # tag to the end of the set's list, and every hit refreshes
            # ``last_line``.  A hit costs the one L1 hit counter: the
            # private access count is derived from the L1 counters
            # (CoreState.accesses).  Cache internals are never replaced
            # — configure_window clears ``sets`` in place — so the
            # bound dict and stats objects stay valid for the life of
            # the entry.  The miss branch touches nothing and delegates
            # to _private_cost, whose own L1 probe records the miss.
            # Attribution adds no code here at all: every L1/L2 hit
            # costs a constant, so the engine derives the hit classes
            # from the caches' own hit counters.
            l1 = state.l1

            def fn(addr, kind, _l1=l1, _ls=l1.line_size,
                   _ns=l1.num_sets, _sets=l1.sets, _stats=l1.stats,
                   _l1_hit=self.config.l1_hit_cycles,
                   _slow=self._private_cost, _state=state,
                   _core=core, _delta=delta):
                addr += _delta
                line = addr // _ls
                if line == _l1.last_line:
                    _stats.hits += 1
                    return _l1_hit
                ways = _sets.get(line % _ns)
                if ways is not None:
                    tag = line // _ns
                    if ways[-1] == tag:
                        _l1.last_line = line
                        _stats.hits += 1
                        return _l1_hit
                    if tag in ways:
                        ways.remove(tag)
                        ways.append(tag)
                        _l1.last_line = line
                        _stats.hits += 1
                        return _l1_hit
                return _slow(_core, _state, addr)
        elif segment is SegmentKind.SHARED:
            # routing is static per core: controller, hop count, and
            # route endpoints are baked in, and so are the attribution
            # cells (attaching an engine bumps mem_epoch); only the
            # queue depth stays a live read
            controller = self._controller_of[core]
            hops = self._hops_to_controller[core]

            def fn(addr, kind, _acc=state.counted,
                   _seg=SegmentKind.SHARED, _mesh=self.mesh,
                   _src=self.mesh.coords_of(core),
                   _dst=self.mesh.controller_coords(controller.index),
                   _cycles=controller.access_cycles,
                   _hops=hops,
                   _penalty=self.config.uncached_shared_penalty,
                   _hop_part=hops * self.config.mesh_cycles_per_hop,
                   _attr=self.attribution,
                   _attr_hop=(None if self.attribution is None else
                              self.attribution.cell(core, "mesh_hop")),
                   _attr_dram=(None if self.attribution is None else
                               self.attribution.cell(core,
                                                     "dram_shared"))):
                _acc[_seg] += 1
                if _mesh.record_traffic:
                    _mesh.record_route(_src, _dst, "shared")
                cost = _cycles(kind, _hops)
                if _attr is not None:
                    _attr_hop[0] += _hop_part
                    _attr_dram[0] += cost - _hop_part + _penalty
                return cost + _penalty
        else:
            # same inline L1 hit probe as the private entry; read
            # misses fall back to Cache.access, which re-probes and
            # records the miss before the tail runs.  MPB accesses are
            # counted: the private count is the L1 probes less these
            l1 = state.l1

            def fn(addr, kind, _acc=state.counted,
                   _seg=SegmentKind.MPB, _l1=l1, _ls=l1.line_size,
                   _ns=l1.num_sets, _sets=l1.sets, _stats=l1.stats,
                   _l1_hit=self.config.l1_hit_cycles,
                   _tail=self._mpb_tail, _core=core, _delta=delta,
                   _probe=(None if self.attribution is None else
                           self.attribution.probe_cell(core))):
                _acc[_seg] += 1
                addr += _delta
                if kind == "read":
                    line = addr // _ls
                    if line == _l1.last_line:
                        _stats.hits += 1
                        return _l1_hit
                    ways = _sets.get(line % _ns)
                    if ways is not None:
                        tag = line // _ns
                        if ways[-1] == tag:
                            _l1.last_line = line
                            _stats.hits += 1
                            return _l1_hit
                        if tag in ways:
                            ways.remove(tag)
                            ways.append(tag)
                            _l1.last_line = line
                            _stats.hits += 1
                            return _l1_hit
                    _l1.access(addr)  # records the miss, fills the line
                else:
                    # write-through: the probe fills the line but the
                    # charged cycles are the MPB tail's, so attribution
                    # must not count this hit as l1_hit
                    if _l1.access(addr) and _probe is not None:
                        _probe[0] += 1
                return _tail(_core, addr, kind, 4)
        return lo, hi, fn

    def _private_cost(self, core, state, addr):
        # L1/L2 hits need no attribution hook: they cost a constant,
        # so the engine derives the hit classes from the cache stats
        if state.l1.access(addr):
            return self.config.l1_hit_cycles
        if state.l2.access(addr):
            return self.config.l2_hit_cycles
        return self._private_miss(core)

    def _private_miss(self, core):
        hops = self._hops_to_controller[core]
        cost = self._controller_of[core].access_cycles("read", hops)
        attr = self.attribution
        if attr is not None:
            hop_part = hops * self.config.mesh_cycles_per_hop
            attr.add(core, "mesh_hop", hop_part)
            attr.add(core, "dram_private", cost - hop_part)
        return cost

    def _shared_cost(self, core, kind):
        controller = self._controller_of[core]
        hops = self._hops_to_controller[core]
        if self.mesh.record_traffic:
            self.mesh.record_route(
                self.mesh.coords_of(core),
                self.mesh.controller_coords(controller.index), "shared")
        cost = controller.access_cycles(kind, hops)
        attr = self.attribution
        if attr is not None:
            hop_part = hops * self.config.mesh_cycles_per_hop
            attr.add(core, "mesh_hop", hop_part)
            attr.add(core, "dram_shared",
                     cost - hop_part
                     + self.config.uncached_shared_penalty)
        return cost + self.config.uncached_shared_penalty

    def _mpb_cost(self, core, addr, kind, size):
        # On the real SCC, MPB data is L1-cacheable under the special
        # MPBT tag (software invalidates when needed); reads mostly hit
        # L1, which is the bulk of the on-chip win in Figure 6.2.
        state = self.cores[core]
        if kind == "read" and state.l1.access(addr):
            return self.config.l1_hit_cycles
        if kind == "write":
            # write-through: the probe fills the line but the charged
            # cycles are the MPB tail's — attribution must not count
            # this hit as l1_hit
            if state.l1.access(addr) and self.attribution is not None:
                self.attribution.probe_cell(core)[0] += 1
        return self._mpb_tail(core, addr, kind, size)

    def _mpb_tail(self, core, addr, kind, size):
        offset = self.address_space.mpb_offset(addr)
        if self.mesh.record_traffic:
            owner = self.mpb.owner_of_offset(offset)
            self.mesh.record_route(self.mesh.coords_of(core),
                                   self.mesh.coords_of(owner), "mpb")
        return self.mpb.access_cycles(core, offset, kind, size)

    # -- synchronization costs -------------------------------------------------------

    def barrier_cost(self, num_cores):
        """Cycle cost of an RCCE barrier over ``num_cores`` UEs."""
        return (self.config.barrier_base_cycles
                + num_cores * self.config.barrier_per_core_cycles)

    def lock_cost(self, core, owner_core):
        """Test-and-set register access on ``owner_core``'s tile."""
        hops = self.mesh.hops(core, owner_core)
        return (self.config.mpb_base_cycles
                + hops * self.config.mesh_cycles_per_hop)

    def __repr__(self):
        return "SCCChip(%r)" % (self.config,)
