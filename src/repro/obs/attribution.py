"""Exhaustive per-core cycle attribution.

The paper's whole argument is about *where cycles go* on a hybrid
shared memory chip — cacheable private traffic vs. uncached shared
DRAM vs. on-die MPB message passing — so the simulator must be able to
say, for every simulated cycle, which component charged it.  The
:class:`AttributionEngine` classifies every charged cycle into one of
:data:`CLASSES`:

==================  =======================================================
class               charged by
==================  =======================================================
``compute``         the residual: OP_COSTS arithmetic, call overhead,
                    printf/math/alloc flat costs, RCCE setup costs
``l1_hit``          private/MPBT L1 hits (``l1_hit_cycles`` each)
``l2_hit``          private L2 hits
``dram_private``    private L2-miss DRAM latency (base + queueing)
``dram_shared``     uncached shared DRAM latency (base + queueing +
                    the uncached-bypass penalty)
``mpb``             MPB SRAM round trips and pipelined bulk words
``mesh_hop``        the ``hops * mesh_cycles_per_hop`` part of any
                    DRAM, MPB, or message route
``barrier_wait``    clock alignment at RCCE barriers (including the
                    collectives' internal barrier)
``lock_spin``       test-and-set register round trips and pthread
                    mutex lock/unlock costs
``comm_wait``       send/recv rendezvous stalls and flag spin waits
``block_copy``      libc memcpy/memset/strcpy bulk word charges and
                    the put/get non-MPB word fallback
``sched_overhead``  pthread create/join and single-core context-switch
                    overhead
``ecc_scrub``       ECC correction write-backs (repro.recovery.ecc)
``retry_backoff``   dropped-send retransmissions and backoff
                    (repro.recovery.retry)
``fault_latency``   injected extra access latency (repro.faults)
==================  =======================================================

``compute`` is defined as the residual ``total - sum(everything
else)``, and the **conservation invariant** is that this residual is
never negative: every explicitly attributed cycle was really charged,
exactly once, so per-core attributed cycles sum *exactly* to the
core's total.  :meth:`AttributionEngine.report` raises
:class:`ConservationError` on any violation.

The engine follows the same contract as ``repro.faults`` and
``repro.race``: it attaches as ``chip.attribution`` (default ``None``)
and every hot-path hook is a single ``is not None`` probe — cycles,
output, and metrics are byte-identical with the engine absent.
The innermost hooks that remain (the shared-DRAM fast-path closure,
the MPB write-probe) bake a *cell* — a one-element list — so an
enabled run pays one list add, not a method call.  Constant-cost
classes and counts are not tracked on the hot path at all: L1/L2 hit
cycles are derived from the caches' own hit counters (every hit costs
a constant) and memory-op totals from the chip's per-core access
counters, both of which the simulator maintains anyway.

Synchronization events (barrier entries, send/recv rendezvous, flag
waits and writes) are recorded per rank for the critical-path analyzer
(:mod:`repro.obs.critpath`), which replays them through the same
vector-clock edge semantics the race detector uses.
"""

from repro.race.vectorclock import VectorClock

CLASSES = (
    "compute",
    "l1_hit",
    "l2_hit",
    "dram_private",
    "dram_shared",
    "mpb",
    "mesh_hop",
    "barrier_wait",
    "lock_spin",
    "comm_wait",
    "block_copy",
    "sched_overhead",
    "ecc_scrub",
    "retry_backoff",
    "fault_latency",
)


class ConservationError(Exception):
    """Attributed cycles exceeded a core's total — something was
    double-counted (or attributed without being charged)."""


class AttributionEngine:
    """One engine serves one run on one chip (like RaceDetector).

    Cycle cells are keyed ``(core, class)`` and each is only ever
    incremented by the host thread simulating that core, so the hot
    path needs no lock; cross-rank data (the sync-event lists) is
    likewise single-writer per rank.
    """

    COLLECTOR_NAME = "obs.attribution"

    def __init__(self):
        self.chip = None
        self._cells = {}     # (core, class) -> [cycles]
        self._ops = {}       # core -> memory op count (detach snapshot)
        self._probes = {}    # core -> [uncharged L1 write-probe hits]
        self._l1_hit_cycles = 0   # captured at attach
        self._l2_hit_cycles = 0
        self._events = {}    # rank -> [sync event tuples]
        self.core_of = None  # rank -> core id (bound by the runner)

    # -- wiring ------------------------------------------------------------

    def attach(self, chip):
        """Install this engine as ``chip.attribution`` (and on the
        MPB, whose cost methods know the hop split), publish its
        counters, and invalidate the per-site fast-path closures so
        they rebuild with the attribution cells baked in."""
        self.chip = chip
        self._l1_hit_cycles = chip.config.l1_hit_cycles
        self._l2_hit_cycles = chip.config.l2_hit_cycles
        chip.attribution = self
        chip.mpb.attribution = self
        chip.mpb._attr_cells.clear()
        chip.metrics.register_collector(self.COLLECTOR_NAME,
                                        self._collect_metrics)
        chip._bump_mem_epoch()
        return self

    def detach(self):
        if self.chip is not None:
            self._ops = self._mem_ops()
            # fold the cache-hit classes (derived live from the chip's
            # hit counters while attached) into the cells so reports
            # built after detach still see them
            for core in range(len(self.chip.cores)):
                for cls, cycles in self._derived(core).items():
                    if cycles:
                        self.cell(core, cls)[0] += cycles
            if self.chip.attribution is self:
                self.chip.attribution = None
            if self.chip.mpb.attribution is self:
                self.chip.mpb.attribution = None
                self.chip.mpb._attr_cells.clear()
            self.chip.metrics.unregister_collector(self.COLLECTOR_NAME)
            self.chip._bump_mem_epoch()
            self.chip = None

    def bind_ranks(self, core_map):
        """Record the rank -> core mapping for reports."""
        self.core_of = list(core_map)

    def _collect_metrics(self):
        samples = []
        for core in self._active_cores():
            classes = self._explicit(core)
            for cls in CLASSES:
                cycles = classes.get(cls, 0)
                if cycles:
                    samples.append(("counter", "attr_cycles",
                                    {"core": core, "class": cls},
                                    cycles))
        for core, count in sorted(self._mem_ops().items()):
            samples.append(("counter", "attr_mem_ops",
                            {"core": core}, count))
        return samples

    def _active_cores(self):
        cores = {core for core, _ in self._cells}
        if self.chip is not None:
            for core, state in enumerate(self.chip.cores):
                if state.l1.stats.hits or state.l2.stats.hits:
                    cores.add(core)
        return sorted(cores)

    def _derived(self, core):
        """Cycle classes derived from the chip's own counters rather
        than hot-path hooks: every L1/L2 hit costs a constant, so the
        hit classes are just ``hits x hit_cycles`` — minus the MPB
        write-through probe hits, which fill lines without charging
        L1 cycles."""
        if self.chip is None:
            return {}
        state = self.chip.cores[core]
        probe = self._probes.get(core)
        hits = state.l1.stats.hits - (probe[0] if probe else 0)
        return {"l1_hit": hits * self._l1_hit_cycles,
                "l2_hit": state.l2.stats.hits * self._l2_hit_cycles}

    def _explicit(self, core):
        """Every explicitly attributed class for ``core``: live cells
        plus the derived cache-hit classes."""
        classes = {}
        for cls in CLASSES:
            cell = self._cells.get((core, cls))
            if cell is not None and cell[0]:
                classes[cls] = cell[0]
        for cls, cycles in self._derived(core).items():
            if cycles:
                classes[cls] = classes.get(cls, 0) + cycles
        return classes

    def _mem_ops(self):
        """Per-core memory-operation totals.  These are *not* counted
        on the hot path: the engine reads the chip's per-core access
        counts (``CoreState.accesses``, derived from the L1 counters
        for private accesses) while attached and snapshots them on
        detach."""
        if self.chip is None:
            return dict(self._ops)
        ops = {}
        for core, state in enumerate(self.chip.cores):
            total = sum(state.accesses.values())
            if total:
                ops[core] = total
        return ops

    # -- accumulation ------------------------------------------------------

    def cell(self, core, cls):
        """The mutable one-element cycle accumulator for
        ``(core, cls)`` — hot paths bake this and do ``cell[0] += n``."""
        key = (core, cls)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = [0]
        return cell

    def add(self, core, cls, cycles):
        """Attribute ``cycles`` (charged elsewhere) to one class."""
        if cycles:
            self.cell(core, cls)[0] += cycles

    def probe_cell(self, core):
        """Counter for L1 hits that charged no L1 cycles (the MPB
        write-through probe); subtracted by :meth:`_derived`."""
        cell = self._probes.get(core)
        if cell is None:
            cell = self._probes[core] = [0]
        return cell

    # -- synchronization events (critical-path feed) -----------------------

    def rank_events(self, rank):
        events = self._events.get(rank)
        if events is None:
            events = self._events[rank] = []
        return events

    def core_snapshot(self, core):
        """Cheap copy of one core's attributed cycles (plus cache hit
        counters), taken by that core's own thread at a barrier entry
        so phase-level deltas can be computed later."""
        snap = self._explicit(core)
        chip = self.chip
        if chip is not None:
            state = chip.cores[core]
            ops = sum(state.accesses.values())
            if ops:
                snap["_ops"] = ops
            snap["_l1"] = state.l1.stats.snapshot()
            snap["_l2"] = state.l2.stats.snapshot()
        return snap

    def barrier_event(self, rank, entry, aligned, snapshot):
        """``snapshot`` is the rank's :meth:`core_snapshot`, taken at
        ``entry`` (before the wait was attributed)."""
        self.rank_events(rank).append(
            ("barrier", entry, aligned, snapshot))

    def send_event(self, rank, peer, entry, posted, done):
        """``posted`` is the sender's clock when the message hit the
        fabric (entry + retries + transfer); ``done - posted`` is the
        rendezvous stall."""
        self.rank_events(rank).append(("send", peer, entry, posted,
                                       done))

    def recv_event(self, rank, peer, entry, avail, done):
        """``avail`` is when the payload was available
        (``max(entry, sender_clock)``); ``done - avail`` is the
        transfer itself."""
        self.rank_events(rank).append(("recv", peer, entry, avail,
                                       done))

    def wait_event(self, rank, flag_id, entry, done):
        self.rank_events(rank).append(("wait", flag_id, entry, done))

    def flag_write_event(self, rank, flag_id, clock):
        self.rank_events(rank).append(("flagw", flag_id, clock))

    # -- reporting ---------------------------------------------------------

    def breakdown(self, per_core_cycles):
        """Per-core class breakdown with ``compute`` as the residual;
        raises :class:`ConservationError` if explicit attributions
        exceed any core's total (the conservation invariant)."""
        result = {}
        for core, total in per_core_cycles.items():
            classes = self._explicit(core)
            attributed = sum(classes.values())
            if attributed > total:
                raise ConservationError(
                    "core %d: attributed %d cycles > total %d (%r)"
                    % (core, attributed, total, classes))
            classes["compute"] = total - attributed
            result[core] = classes
        return result

    def report(self, per_core_cycles, core_of=None):
        """Build the :class:`AttributionReport` for a finished run
        (including the critical-path analysis when sync events were
        recorded)."""
        from repro.obs.critpath import analyze_critical_path
        if core_of is None:
            core_of = self.core_of
        breakdown = self.breakdown(per_core_cycles)
        mem_ops = self._mem_ops()
        critical_path = analyze_critical_path(
            self._events, per_core_cycles, core_of)
        return AttributionReport(per_core_cycles, breakdown, mem_ops,
                                 critical_path)

    def replay_vector_clocks(self):
        """Re-derive each rank's vector clock from the recorded sync
        edges — the same edge semantics the race detector emits
        (barrier join-all, send/recv rendezvous, flag write/sync) —
        and return ``{rank: VectorClock}``.  Used by the critical-path
        tests to cross-check that the path respects happens-before."""
        vcs = {rank: VectorClock() for rank in self._events}
        for rank, vc in vcs.items():
            vc.tick(rank)
        # barrier rounds join every participant's clock
        rounds = {}
        for rank, events in self._events.items():
            index = 0
            for event in events:
                if event[0] == "barrier":
                    rounds.setdefault(index, []).append(rank)
                    index += 1
        for _, participants in sorted(rounds.items()):
            merged = VectorClock()
            for rank in participants:
                merged.join(vcs[rank])
            for rank in participants:
                vcs[rank].join(merged)
                vcs[rank].tick(rank)
        return vcs


class AttributionReport:
    """Where every cycle of a finished run went."""

    def __init__(self, per_core_cycles, per_core, mem_ops,
                 critical_path=None):
        self.per_core_cycles = dict(per_core_cycles)
        self.per_core = per_core          # core -> {class: cycles}
        self.mem_ops = mem_ops            # core -> load/store count
        self.critical_path = critical_path

    @property
    def makespan(self):
        return max(self.per_core_cycles.values()) \
            if self.per_core_cycles else 0

    def totals(self):
        """Class totals summed over every core."""
        totals = {}
        for classes in self.per_core.values():
            for cls, cycles in classes.items():
                totals[cls] = totals.get(cls, 0) + cycles
        return totals

    def dominant_class(self, core=None):
        classes = self.totals() if core is None \
            else self.per_core.get(core, {})
        if not classes:
            return None
        return max(sorted(classes), key=lambda cls: classes[cls])

    def as_dict(self):
        return {
            "makespan": self.makespan,
            "per_core_cycles": {str(core): cycles for core, cycles
                                in sorted(self.per_core_cycles.items())},
            "per_core": {str(core): dict(classes) for core, classes
                         in sorted(self.per_core.items())},
            "mem_ops": {str(core): count for core, count
                        in sorted(self.mem_ops.items())},
            "totals": self.totals(),
            "critical_path": self.critical_path.as_dict()
            if self.critical_path is not None else None,
        }

    def render(self):
        """Plain-text attribution table (class totals plus a per-core
        summary line)."""
        lines = ["cycle attribution:"]
        totals = self.totals()
        grand = sum(totals.values()) or 1
        lines.append("  %-14s %14s %7s" % ("class", "cycles", "share"))
        for cls in CLASSES:
            cycles = totals.get(cls, 0)
            if not cycles:
                continue
            lines.append("  %-14s %14d %6.1f%%"
                         % (cls, cycles, 100.0 * cycles / grand))
        lines.append("  makespan: %d cycles" % self.makespan)
        lines.append("per-core:")
        for core in sorted(self.per_core):
            classes = self.per_core[core]
            top = sorted(classes.items(),
                         key=lambda item: (-item[1], item[0]))[:3]
            summary = ", ".join(
                "%s %.0f%%" % (cls,
                               100.0 * cycles
                               / max(self.per_core_cycles[core], 1))
                for cls, cycles in top if cycles)
            lines.append("  core %2d: %12d cycles  [%s]"
                         % (core, self.per_core_cycles[core], summary))
        return "\n".join(lines)

    def __repr__(self):
        return "AttributionReport(makespan=%d, cores=%d)" % (
            self.makespan, len(self.per_core))

