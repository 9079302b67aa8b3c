"""Dynamic race detection and HSM coherence auditing for the simulator.

The paper's translation scheme is only sound if its stage 1-3 sharing
analysis is: every variable left private (and therefore *cacheable*)
must never be accessed conflictingly across cores, because the SCC has
no cache coherence.  :class:`RaceDetector` turns that claim into a
runtime check:

* **Happens-before races** (FastTrack): per-thread vector clocks are
  advanced by the synchronization the runtimes expose — pthread
  create/join and mutexes, SCC test-and-set registers, the RCCE
  barrier, flags, and send/recv rendezvous.  Every simulated load and
  store is stamped with its thread's epoch; a conflicting pair neither
  of whose epochs is covered by the other side's clock is a data race.

* **Eraser lockset refinement**: each word remembers the intersection
  of locks held across its writes.  A write-write vector-clock
  conflict whose candidate lockset is still non-empty is counted as
  suppressed, not reported — consistent protection through one lock is
  evidence of an ordering the clock model did not capture.

* **HSM coherence audit**: a word in a *cacheable* (private DRAM)
  segment that is touched by more than one core is flagged regardless
  of happens-before ordering — synchronization does not flush another
  core's cache on this platform, so even a perfectly ordered remote
  read can observe a stale line.  This is exactly the bug class the
  paper's "shared => uncacheable" rule exists to prevent.  Races whose
  read lands in the MPB are annotated ``stale_cacheable`` too (MPBT
  lines are L1-cached on real hardware and only invalidated at
  synchronization points).

The detector is pure observation: it is consulted through single
``is not None`` probes on the interpreter/runtime hot paths (the same
contract as :mod:`repro.faults`), never charges simulated cycles, and
never touches program values — cycles and output are
byte-identical with the detector absent.

Thread ids are whatever the active runtime reports
(``runtime.race_thread()``): pthread TIDs for the single-core
baseline, UE ranks for RCCE runs.  Core ids — used only by the
coherence audit — come from the interpreter, so a single-core pthread
run can race but never violate coherence.
"""

import threading

from repro.race.lockset import LockRegistry
from repro.race.report import (
    COHERENCE,
    RACE,
    RaceAccess,
    RaceFinding,
    RaceReport,
)
from repro.race.shadow import ShadowMemory, VariableMap
from repro.race.vectorclock import Epoch, VectorClock
from repro.scc.memmap import SegmentKind

__all__ = [
    "RaceDetector", "RaceReport", "RaceFinding", "RaceAccess",
    "VectorClock", "Epoch", "RACE", "COHERENCE",
]

# Findings stored verbatim; everything past the cap is counted only.
DEFAULT_MAX_FINDINGS = 64


class RaceDetector:
    """One detector serves one run on one chip (like FaultInjector).

    All mutable state sits behind one lock: RCCE runs execute each
    simulated core on its own host thread, and the detector's shadow
    state is genuinely shared between them.  The detection *verdict*
    is schedule-stable — an unordered conflicting pair is flagged in
    whichever order the host happens to interleave it — though which
    side appears as "prior" in the report may vary.
    """

    COLLECTOR_NAME = "race.detector"

    def __init__(self, max_findings=DEFAULT_MAX_FINDINGS):
        self.max_findings = max_findings
        self.chip = None
        self._space = None
        self._lock = threading.Lock()
        self._vcs = {}              # tid -> VectorClock
        self._locks = LockRegistry()
        self._variables = VariableMap()
        self._shadow = ShadowMemory()
        self._flags = {}            # flag id -> VectorClock at write
        self._conds = {}            # condvar key -> VectorClock at signal
        self._barriers = {}         # barrier key -> round state
        self._seen = set()          # finding dedup keys
        self.findings = []
        self.finding_counts = {RACE: 0, COHERENCE: 0}
        self.dropped = 0
        self.checks = 0
        self.sync_edges = 0
        self.lockset_suppressed = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, chip):
        """Install this detector as ``chip.race`` and publish its
        counters through the chip's metrics registry."""
        self.chip = chip
        self._space = chip.address_space
        chip.race = self
        chip.metrics.register_collector(self.COLLECTOR_NAME,
                                        self._collect_metrics)
        return self

    def detach(self):
        if self.chip is not None:
            if self.chip.race is self:
                self.chip.race = None
            self.chip.metrics.unregister_collector(self.COLLECTOR_NAME)
            self.chip = None

    def _collect_metrics(self):
        samples = [
            ("counter", "race_checks", {}, self.checks),
            ("counter", "race_sync_edges", {}, self.sync_edges),
            ("counter", "race_lockset_suppressed", {},
             self.lockset_suppressed),
        ]
        for category in (RACE, COHERENCE):
            samples.append(("counter", "race_findings",
                            {"category": category},
                            self.finding_counts.get(category, 0)))
        return samples

    def report(self):
        with self._lock:
            return RaceReport(
                list(self.findings), checks=self.checks,
                sync_edges=self.sync_edges,
                lockset_suppressed=self.lockset_suppressed,
                dropped=self.dropped)

    # -- thread clocks ------------------------------------------------------

    def _vc(self, tid):
        vc = self._vcs.get(tid)
        if vc is None:
            vc = VectorClock()
            vc.tick(tid)
            self._vcs[tid] = vc
        return vc

    @staticmethod
    def _tid_of(interp):
        race_thread = getattr(interp.runtime, "race_thread", None)
        if race_thread is not None:
            return race_thread()
        return interp.core_id

    # -- synchronization edges ---------------------------------------------

    def thread_create(self, parent, child):
        """Fork edge: the child starts with the parent's clock."""
        with self._lock:
            parent_vc = self._vc(parent)
            child_vc = parent_vc.copy()
            child_vc.tick(child)
            self._vcs[child] = child_vc
            parent_vc.tick(parent)
            self.sync_edges += 1

    def thread_join(self, parent, child):
        """Join edge: the parent absorbs the child's clock."""
        with self._lock:
            child_vc = self._vcs.get(child)
            if child_vc is not None:
                self._vc(parent).join(child_vc)
            self.sync_edges += 1

    def lock_acquire(self, tid, lock_id):
        with self._lock:
            self._locks.acquire(tid, lock_id, self._vc(tid))
            self.sync_edges += 1

    def lock_release(self, tid, lock_id):
        with self._lock:
            self._locks.release(tid, lock_id, self._vc(tid))
            self.sync_edges += 1

    def barrier_enter(self, tid, parties, key=None):
        """Called before a thread blocks on a barrier.  Rounds are
        versioned: the accumulator the last arriving thread seals
        becomes the release clock for exactly this round's ``parties``
        exits, so round N+1 entries interleaving with round N exits
        never mix clocks."""
        with self._lock:
            state = self._barriers.get(key)
            if state is None:
                state = self._barriers[key] = {
                    "round": 0, "entered": 0, "acc": None,
                    "thread_round": {}, "release": {}}
            if state["entered"] == 0:
                state["acc"] = VectorClock()
                state["round"] += 1
            state["acc"].join(self._vc(tid))
            state["thread_round"][tid] = state["round"]
            state["entered"] += 1
            if state["entered"] >= parties:
                state["release"][state["round"]] = [state["acc"],
                                                   parties]
                state["entered"] = 0
                state["acc"] = None
            self.sync_edges += 1

    def barrier_exit(self, tid, key=None):
        """Called after the barrier released this thread: join the
        sealed round clock (release entries are refcounted and dropped
        once every participant has drained them)."""
        with self._lock:
            state = self._barriers.get(key)
            if state is None:
                return
            round_no = state["thread_round"].pop(tid, None)
            if round_no is None:
                return
            entry = state["release"].get(round_no)
            if entry is None:
                return
            vc = self._vc(tid)
            vc.join(entry[0])
            vc.tick(tid)
            entry[1] -= 1
            if entry[1] <= 0:
                del state["release"][round_no]

    def flag_write(self, tid, flag_id):
        """An RCCE flag write publishes the writer's clock."""
        with self._lock:
            vc = self._vc(tid)
            self._flags[flag_id] = vc.copy()
            vc.tick(tid)
            self.sync_edges += 1

    def flag_sync(self, tid, flag_id):
        """A flag read / successful wait acquires the writer's clock."""
        with self._lock:
            flag_vc = self._flags.get(flag_id)
            if flag_vc is not None:
                self._vc(tid).join(flag_vc)
            self.sync_edges += 1

    def cond_signal(self, tid, cond_id):
        """A pthread_cond_signal/broadcast publishes the signaller's
        clock (like a flag write: the waiter that consumes this signal
        is ordered after everything the signaller did first)."""
        with self._lock:
            vc = self._vc(tid)
            self._conds[cond_id] = vc.copy()
            vc.tick(tid)
            self.sync_edges += 1

    def cond_wakeup(self, tid, cond_id):
        """A woken pthread_cond_wait acquires the signaller's clock."""
        with self._lock:
            cond_vc = self._conds.get(cond_id)
            if cond_vc is not None:
                self._vc(tid).join(cond_vc)
            self.sync_edges += 1

    def channel_send(self, tid):
        """Rendezvous, sender side: returns the clock to ship with the
        payload."""
        with self._lock:
            vc = self._vc(tid)
            shipped = vc.copy()
            vc.tick(tid)
            self.sync_edges += 1
            return shipped

    def channel_recv(self, tid, sender_vc):
        """Rendezvous, receiver side: absorb the sender's clock and
        return the acknowledgement clock the sender will join (RCCE
        send/recv is fully synchronous, so the edge runs both ways)."""
        with self._lock:
            vc = self._vc(tid)
            if sender_vc is not None:
                vc.join(sender_vc)
            ack = vc.copy()
            vc.tick(tid)
            self.sync_edges += 1
            return ack

    def channel_ack(self, tid, ack_vc):
        with self._lock:
            if ack_vc is not None:
                self._vc(tid).join(ack_vc)
            self.sync_edges += 1

    # -- access recording ---------------------------------------------------

    def register(self, name, base, size, scope_kind, function=None):
        """Variable-extent registration: resolves addresses to names in
        reports, invalidates shadow state when a stack slot is re-bound,
        and tracks which threads touch each instance."""
        with self._lock:
            self._variables.register(name, base, size, scope_kind,
                                     function)

    def shared_keys(self):
        """``(function, name)`` of every variable an instance of which
        more than one thread touched — the runtime sharing set the A4
        comparison (``repro.core.dynamic``) checks the static one
        against."""
        with self._lock:
            return self._variables.shared_keys()

    def record(self, interp, addr, kind, cycles=None):
        """One simulated load (``kind="read"``) or store (``"write"``)
        at ``cycles``: by default the interpreter's clock, which the
        caller has already charged the access to."""
        tid = self._tid_of(interp)
        if cycles is None:
            cycles = interp.cycles
        with self._lock:
            self._record_locked(tid, interp.core_id,
                                interp.current_function, cycles,
                                addr, kind)

    def record_range(self, interp, base, count, stride, kind):
        """A block transfer (RCCE data movers) touching ``count`` words
        spaced ``stride`` bytes apart."""
        tid = self._tid_of(interp)
        core = interp.core_id
        function = interp.current_function
        cycles = interp.cycles
        with self._lock:
            for index in range(count):
                self._record_locked(tid, core, function, cycles,
                                    base + index * stride, kind)

    def _record_locked(self, tid, core, function, cycles, addr, kind):
        self.checks += 1
        try:
            segment = self._space.resolve(addr)[0]
        except ValueError:
            return  # outside every simulated segment; nothing to audit
        extent = self._variables.resolve(addr)
        if extent is not None:
            extent.touch(tid)
        word = self._shadow.lookup(addr, segment, extent)
        vc = self._vcs.get(tid)
        if vc is None:
            vc = self._vc(tid)
        clock = vc.clocks.get(tid, 0)
        cacheable = segment is SegmentKind.PRIVATE
        write = word.write
        if kind == "read":
            if write is not None and write[0] != tid:
                if cacheable and write[2] != core:
                    # ordered or not: another core's write sits in DRAM
                    # while this core's cache may still hold the old line
                    self._emit(COHERENCE, addr, segment, extent, write,
                               "write", (tid, clock, core, function,
                                         cycles), "read",
                               stale_cacheable=True)
                elif vc.clocks.get(write[0], 0) < write[1]:
                    self._emit(RACE, addr, segment, extent, write,
                               "write", (tid, clock, core, function,
                                         cycles), "read",
                               stale_cacheable=(
                                   segment is SegmentKind.MPB
                                   and write[2] != core))
            word.reads[tid] = (clock, core, function, cycles)
        else:
            refined = self._locks.refine(word, tid)
            current = (tid, clock, core, function, cycles)
            if write is not None and write[0] != tid and \
                    vc.clocks.get(write[0], 0) < write[1]:
                if refined:
                    # consistently lock-protected: an ordering the
                    # clock model missed, not a race
                    self.lockset_suppressed += 1
                else:
                    self._emit(RACE, addr, segment, extent, write,
                               "write", current, "write")
            for reader_tid, read in word.reads.items():
                if reader_tid != tid and \
                        vc.clocks.get(reader_tid, 0) < read[0]:
                    self._emit(RACE, addr, segment, extent,
                               (reader_tid,) + read, "read", current,
                               "write")
                    break
            if cacheable:
                if write is not None and write[2] != core:
                    self._emit(COHERENCE, addr, segment, extent, write,
                               "write", current, "write",
                               stale_cacheable=True)
                else:
                    for reader_tid, read in word.reads.items():
                        if read[1] != core:
                            self._emit(COHERENCE, addr, segment,
                                       extent, (reader_tid,) + read,
                                       "read", current, "write",
                                       stale_cacheable=True)
                            break
            word.write = current
            word.lockset = refined
            word.reads.clear()
        word.access_cores.add(core)

    # -- reporting ----------------------------------------------------------

    def _emit(self, category, addr, segment, extent, prior, prior_kind,
              current, current_kind, stale_cacheable=False):
        name = extent.name if extent is not None else addr
        key = (category, name, prior[0], current[0], prior_kind,
               current_kind)
        if key in self._seen:
            return
        self._seen.add(key)
        self.finding_counts[category] = \
            self.finding_counts.get(category, 0) + 1
        finding = RaceFinding(
            category, addr, str(segment),
            extent.describe() if extent is not None else None,
            RaceAccess(prior_kind, *prior),
            RaceAccess(current_kind, *current),
            stale_cacheable=stale_cacheable)
        if len(self.findings) < self.max_findings:
            self.findings.append(finding)
        else:
            self.dropped += 1
