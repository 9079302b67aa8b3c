"""Deterministic, seed-driven hardware fault injection for the SCC model.

The paper's platform has no safety net — non-coherent caches, raw
test-and-set registers, software barriers — so a robust runtime must
survive (or at least *diagnose*) transient hardware misbehaviour.  This
module perturbs the simulated chip on demand:

``mpb_flip``
    transient single-bit flips on MPB-segment reads;
``dram_flip``
    transient single-bit flips on private/shared DRAM reads;
``mesh_delay``
    mesh-link latency degradation (extra cycles on priced accesses);
``mesh_drop``
    mesh message drops — the access is retransmitted, paying its cost
    twice;
``core_stall``
    a core freezes for N cycles once it passes a chosen cycle;
``core_crash``
    a core dies (raises :class:`CoreCrashFault`) once it passes a
    chosen cycle.

Beyond the chip-level kinds above, three **host-level** kinds target
the *worker processes* of the parallel backend (``repro.sim.parallel``)
rather than the simulated hardware — the CLI takes them via
``--chaos`` (or mixed into ``--faults``; :func:`split_host_rules`
separates the two families):

``worker_kill``
    a shard's worker process exits abruptly (``os._exit``) at a chosen
    quantum tick — recovery must replay it;
``worker_stall``
    a shard's worker process sleeps ``seconds`` wall seconds at a
    chosen quantum tick — the heartbeat supervisor must detect it;
``ipc_delay``
    coordinator-bound IPC sends sleep ``seconds`` before transmitting
    (wall-clock only: simulated results are unaffected by design).

Faults are configured by a small textual spec (see
:func:`parse_fault_spec`)::

    mpb_flip:p=1e-6,seed=7
    mesh_drop:p=0.01,seed=3;core_stall:core=2,at=50000,cycles=8000
    worker_kill:shard=1,at_tick=3;ipc_delay:p=0.1,seconds=0.002

**Determinism contract.**  Every rule owns one pseudo-random stream
*per core*, seeded from ``(rule seed, rule index, core id)``.  A core's
memory accesses happen in a deterministic order inside its own thread,
so injection decisions are reproducible run-to-run regardless of how
the host schedules the simulator threads.  With no rules active the
injector is never consulted: the chip and interpreter hooks are single
``is not None`` branches, keeping cycles and traces byte-identical to
an un-faulted build.

Fault runs execute on the closure-compiled engine like every other
run.  With an injector attached, the chip hands out inline-cache
entries that price through ``access_cost`` (so ``mesh_delay`` and
``mesh_drop`` see every access), the interpreter reads memory through
:meth:`filter_load` and the ECC scrubber, and the step tick calls
:meth:`core_tick` every 256 steps.  Runs without faults pay none of
this.

Every injection increments a ``fault_injections{kind,core}`` counter in
the chip's metrics registry and, when a tracer is attached, emits a
``fault_inject`` instant event on the victim core's track.
"""

import random
import struct

from repro.scc.memmap import SegmentKind
from repro.sim.interpreter import InterpreterError

MPB_FLIP = "mpb_flip"
DRAM_FLIP = "dram_flip"
MESH_DELAY = "mesh_delay"
MESH_DROP = "mesh_drop"
CORE_STALL = "core_stall"
CORE_CRASH = "core_crash"

FAULT_KINDS = (MPB_FLIP, DRAM_FLIP, MESH_DELAY, MESH_DROP, CORE_STALL,
               CORE_CRASH)

# Host-level kinds target the parallel backend's worker processes, not
# the simulated chip (see HostFaultPlan).
WORKER_KILL = "worker_kill"
WORKER_STALL = "worker_stall"
IPC_DELAY = "ipc_delay"

HOST_FAULT_KINDS = (WORKER_KILL, WORKER_STALL, IPC_DELAY)

ALL_FAULT_KINDS = FAULT_KINDS + HOST_FAULT_KINDS

# Per-kind recognised parameters (beyond the common p= and seed=).
_KIND_PARAMS = {
    MPB_FLIP: ("bit", "bits"),
    DRAM_FLIP: ("bit", "bits"),
    MESH_DELAY: ("cycles",),
    MESH_DROP: (),
    CORE_STALL: ("core", "at", "cycles"),
    CORE_CRASH: ("core", "at"),
    WORKER_KILL: ("shard", "at_tick"),
    WORKER_STALL: ("shard", "at_tick", "seconds"),
    IPC_DELAY: ("seconds",),
}

# Parameters that keep their fractional part (wall-clock seconds);
# everything else is a cycle count / index and coerces to int.
_FLOAT_PARAMS = frozenset(["seconds"])

DEFAULT_DELAY_CYCLES = 50
DEFAULT_STALL_CYCLES = 10_000
DEFAULT_STALL_SECONDS = 30.0
DEFAULT_IPC_DELAY_SECONDS = 0.001


class FaultSpecError(ValueError):
    """Malformed ``--faults`` specification."""


class CoreCrashFault(InterpreterError):
    """An injected fault killed a simulated core."""

    def __init__(self, message, core=None, cycle=None):
        super().__init__(message)
        self.core = core
        self.cycle = cycle


class FaultRule:
    """One parsed fault clause."""

    __slots__ = ("kind", "p", "seed", "params")

    def __init__(self, kind, p=1.0, seed=0, params=None):
        if kind not in ALL_FAULT_KINDS:
            raise FaultSpecError(
                "unknown fault kind %r (choose from %s)"
                % (kind, ", ".join(ALL_FAULT_KINDS)))
        if not 0.0 <= p <= 1.0:
            raise FaultSpecError("probability p=%r outside [0, 1]" % p)
        self.kind = kind
        self.p = p
        self.seed = seed
        self.params = dict(params or {})

    def __repr__(self):
        extra = "".join(",%s=%s" % kv for kv in sorted(
            self.params.items()))
        return "FaultRule(%s:p=%g,seed=%d%s)" % (self.kind, self.p,
                                                 self.seed, extra)


def _parse_number(key, text):
    try:
        if text.lower().startswith("0x"):
            return int(text, 16)
        value = float(text)
    except ValueError:
        raise FaultSpecError("parameter %s=%r is not a number"
                             % (key, text))
    if value == int(value) and "e" not in text.lower() \
            and "." not in text:
        return int(value)
    return value


def parse_fault_spec(spec):
    """Parse a fault spec string into a list of :class:`FaultRule`.

    Grammar: clauses separated by ``;``; each clause is
    ``kind[:key=value[,key=value...]]``.  Common keys: ``p``
    (injection probability per opportunity, default 1.0) and ``seed``
    (per-rule RNG seed, default 0).
    """
    if isinstance(spec, (list, tuple)):
        return [rule if isinstance(rule, FaultRule) else FaultRule(**rule)
                for rule in spec]
    rules = []
    for clause in str(spec).split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, tail = clause.partition(":")
        kind = kind.strip()
        if kind not in ALL_FAULT_KINDS:
            raise FaultSpecError(
                "unknown fault kind %r (choose from %s)"
                % (kind, ", ".join(ALL_FAULT_KINDS)))
        p, seed, params = 1.0, 0, {}
        if tail.strip():
            for item in tail.split(","):
                item = item.strip()
                if not item:
                    continue
                key, sep, value = item.partition("=")
                key = key.strip()
                if not sep:
                    raise FaultSpecError(
                        "expected key=value, got %r in clause %r"
                        % (item, clause))
                number = _parse_number(key, value.strip())
                if key == "p":
                    p = float(number)
                elif key == "seed":
                    seed = int(number)
                elif key in _KIND_PARAMS[kind]:
                    params[key] = (float(number)
                                   if key in _FLOAT_PARAMS
                                   else int(number))
                else:
                    raise FaultSpecError(
                        "fault %r does not take parameter %r "
                        "(allowed: p, seed%s)"
                        % (kind, key,
                           "".join(", " + name
                                   for name in _KIND_PARAMS[kind])))
        rules.append(FaultRule(kind, p, seed, params))
    if not rules:
        raise FaultSpecError("empty fault spec %r" % spec)
    return rules


def split_host_rules(rules):
    """Split a parsed rule list into ``(chip_rules, host_rules)``.

    Chip rules feed a :class:`FaultInjector` (attached to the
    simulated chip); host rules feed a :class:`HostFaultPlan`
    (attached to the parallel backend's worker supervision).  One
    ``--faults`` spec may mix both families."""
    chip_rules, host_rules = [], []
    for rule in rules:
        (host_rules if rule.kind in HOST_FAULT_KINDS
         else chip_rules).append(rule)
    return chip_rules, host_rules


def _flip_bits(value, rng, bit=None, bits=1):
    """Flip ``bits`` bits of a simulated memory word.  Integers flip
    within their low 32; floats within their IEEE-754 double image
    (which may legitimately produce huge values or NaN — that is what a
    real upset does).  Non-numeric values (pointers into the symbolic
    heap) are left alone.  ``bits>=2`` models a multi-bit upset — the
    case SECDED scrubbing (repro.recovery.ecc) detects but cannot
    correct."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    width = 32 if isinstance(value, int) else 64
    if bits <= 1:
        chosen = [bit if bit is not None else rng.randrange(width)]
    else:
        chosen = [] if bit is None else [bit % width]
        while len(chosen) < min(bits, width):
            candidate = rng.randrange(width)
            if candidate not in chosen:
                chosen.append(candidate)
    mask = 0
    for one in chosen:
        mask |= 1 << (one % width)
    if isinstance(value, int):
        return value ^ mask
    packed = struct.pack("<Q", struct.unpack(
        "<Q", struct.pack("<d", value))[0] ^ mask)
    return struct.unpack("<d", packed)[0]


_FLIP_SEGMENTS = {
    MPB_FLIP: (SegmentKind.MPB,),
    DRAM_FLIP: (SegmentKind.PRIVATE, SegmentKind.SHARED),
}


class FaultInjector:
    """Applies a list of :class:`FaultRule` to one simulated chip run.

    One injector serves one run on one chip; build a fresh injector per
    run so per-core RNG streams restart from their seeds (that is the
    determinism contract).
    """

    COLLECTOR_NAME = "faults.injector"

    def __init__(self, rules):
        if isinstance(rules, str):
            rules = parse_fault_spec(rules)
        self.rules = list(rules)
        for rule in self.rules:
            if rule.kind not in FAULT_KINDS:
                raise FaultSpecError(
                    "host-level fault %r targets worker processes, "
                    "not the chip; route it through a HostFaultPlan "
                    "(CLI: --chaos, or --faults with --jobs)"
                    % rule.kind)
        self.flip_rules = [
            (index, rule) for index, rule in enumerate(self.rules)
            if rule.kind in (MPB_FLIP, DRAM_FLIP)]
        self.latency_rules = [
            (index, rule) for index, rule in enumerate(self.rules)
            if rule.kind in (MESH_DELAY, MESH_DROP)]
        self.core_rules = [
            (index, rule) for index, rule in enumerate(self.rules)
            if rule.kind in (CORE_STALL, CORE_CRASH)]
        self.counts = {}       # (kind, core) -> injections
        self._rngs = {}        # (rule index, core) -> Random
        self._fired = set()    # one-shot core faults already delivered
        self.chip = None

    @property
    def active(self):
        return bool(self.rules)

    # -- wiring ------------------------------------------------------------

    def attach(self, chip):
        """Install this injector as ``chip.faults`` and publish its
        counters through the chip's metrics registry."""
        self.chip = chip
        chip.faults = self
        chip.metrics.register_collector(
            self.COLLECTOR_NAME, self._collect_metrics,
            self._reset_counts)
        return self

    def detach(self):
        if self.chip is not None:
            if self.chip.faults is self:
                self.chip.faults = None
            self.chip.metrics.unregister_collector(self.COLLECTOR_NAME)
            self.chip = None

    def _collect_metrics(self):
        return [("counter", "fault_injections",
                 {"kind": kind, "core": core}, count)
                for (kind, core), count in sorted(self.counts.items())]

    def _reset_counts(self):
        self.counts.clear()

    def total_injections(self, kind=None):
        return sum(count for (k, _core), count in self.counts.items()
                   if kind is None or k == kind)

    # -- deterministic randomness ------------------------------------------

    def reset_streams(self):
        """Restart every per-(rule, core) stream from its seed while
        keeping one-shot delivery state (``_fired``).  The supervisor
        calls this between restart attempts so the replayed prefix
        reproduces the original run's injection schedule exactly —
        without re-firing a crash that already fired."""
        self._rngs.clear()

    def _rng(self, rule_index, core):
        key = (rule_index, core)
        rng = self._rngs.get(key)
        if rng is None:
            seed = self.rules[rule_index].seed
            rng = self._rngs[key] = random.Random(
                (seed * 1_000_003 + rule_index * 97 + core) & 0xFFFFFFFF)
        return rng

    def _record(self, kind, core, ts, detail):
        key = (kind, core)
        self.counts[key] = self.counts.get(key, 0) + 1
        chip = self.chip
        if chip is not None and chip.events.enabled:
            args = {"kind": kind}
            args.update(detail)
            chip.events.instant(core, ts, "fault_inject", "fault",
                                args, pid=chip.trace_pid)

    # -- hooks --------------------------------------------------------------

    def filter_load(self, interp, addr, value):
        """Interpreter read hook: maybe corrupt a loaded value."""
        chip = interp.chip
        segment = None
        for index, rule in self.flip_rules:
            rng = self._rng(index, interp.core_id)
            if rng.random() >= rule.p:
                continue
            if segment is None:
                segment = chip.address_space.resolve(addr)[0]
            if segment not in _FLIP_SEGMENTS[rule.kind]:
                continue
            flipped = _flip_bits(value, rng, rule.params.get("bit"),
                                 rule.params.get("bits", 1))
            if flipped == value:
                continue
            self._record(rule.kind, interp.core_id, interp.cycles,
                         {"addr": addr, "segment": str(segment)})
            if segment is SegmentKind.MPB:
                chip.mpb.stats.corrupted_reads += 1
            value = flipped
        return value

    def latency_extra(self, core, segment, kind, cost, ts):
        """Chip pricing hook: extra cycles from link faults."""
        extra = 0
        for index, rule in self.latency_rules:
            rng = self._rng(index, core)
            if rng.random() >= rule.p:
                continue
            if rule.kind == MESH_DELAY:
                add = rule.params.get("cycles", DEFAULT_DELAY_CYCLES)
                detail = {"extra_cycles": add, "segment": str(segment)}
            else:  # MESH_DROP: the message is retransmitted end-to-end
                add = cost
                detail = {"retransmit_cycles": add,
                          "segment": str(segment)}
                if self.chip is not None:
                    self.chip.mesh.record_drop()
            extra += add
            self._record(rule.kind, core, ts, detail)
        return extra

    def message_dropped(self, core, ts, seq=None):
        """Message-level drop decision for one RCCE_send transmission.

        Only consulted by the recovery layer's SendRetrier (never on
        an unprotected run, so PR 3 behaviour is untouched); draws
        from the same per-(rule, core) streams as ``latency_extra`` so
        protected runs stay deterministic under one seed."""
        dropped = False
        for index, rule in self.latency_rules:
            if rule.kind != MESH_DROP:
                continue
            rng = self._rng(index, core)
            if rng.random() >= rule.p:
                continue
            dropped = True
            self._record(MESH_DROP, core, ts,
                         {"message": 1, "seq": seq})
            if self.chip is not None:
                self.chip.mesh.record_drop()
        return dropped

    def core_tick(self, interp):
        """Periodic per-core hook (every few hundred interpreter
        steps): deliver scheduled stalls and crashes."""
        for index, rule in self.core_rules:
            victim = rule.params.get("core", 0)
            if victim != interp.core_id:
                continue
            key = (index, interp.core_id)
            if key in self._fired:
                continue
            if interp.cycles < rule.params.get("at", 0):
                continue
            rng = self._rng(index, interp.core_id)
            if rng.random() >= rule.p:
                self._fired.add(key)  # the one chance passed unused
                continue
            self._fired.add(key)
            if rule.kind == CORE_CRASH:
                self._record(CORE_CRASH, interp.core_id, interp.cycles,
                             {"cycle": interp.cycles})
                raise CoreCrashFault(
                    "injected crash on core %d at cycle %d"
                    % (interp.core_id, interp.cycles),
                    core=interp.core_id, cycle=interp.cycles)
            stall = rule.params.get("cycles", DEFAULT_STALL_CYCLES)
            self._record(CORE_STALL, interp.core_id, interp.cycles,
                         {"cycle": interp.cycles, "stall_cycles": stall})
            interp.charge(stall)


class HostFaultPlan:
    """Deterministic host-level chaos schedule for the parallel
    backend's worker processes.

    Mirrors :class:`FaultInjector`'s determinism contract at the host
    layer: every rule owns one pseudo-random stream per *shard*
    (seeded from ``(rule seed, rule index, shard)``), and kill/stall
    decisions are evaluated only at the shard's anchor rank's quantum
    ticks — points that fall at deterministic *simulated* cycles — so
    a chaos schedule reproduces run-to-run regardless of host thread
    scheduling.  Kill and stall rules are one-shot per (rule, shard),
    exactly like ``core_stall``/``core_crash``; the coordinator feeds
    the accumulated ``fired`` set back into the plan it ships to a
    respawned worker so a delivered fault never re-fires during
    replay.  ``ipc_delay`` is continuous (drawn per send) and affects
    wall-clock time only — simulated results are byte-identical with
    or without it.

    The plan is pickled to every worker under both ``fork`` and
    ``spawn`` start methods; RNG streams are (re)built lazily on each
    side.
    """

    def __init__(self, rules, fired=None):
        if isinstance(rules, str):
            rules = parse_fault_spec(rules)
        self.rules = list(rules)
        for rule in self.rules:
            if rule.kind not in HOST_FAULT_KINDS:
                raise FaultSpecError(
                    "chip-level fault %r cannot target worker "
                    "processes; route it through a FaultInjector "
                    "(CLI: --faults)" % rule.kind)
        self.proc_rules = [
            (index, rule) for index, rule in enumerate(self.rules)
            if rule.kind in (WORKER_KILL, WORKER_STALL)]
        self.ipc_rules = [
            (index, rule) for index, rule in enumerate(self.rules)
            if rule.kind == IPC_DELAY]
        self.fired = set(fired or ())
        self._rngs = {}

    @property
    def active(self):
        return bool(self.rules)

    def _rng(self, rule_index, shard):
        key = (rule_index, shard)
        rng = self._rngs.get(key)
        if rng is None:
            seed = self.rules[rule_index].seed
            rng = self._rngs[key] = random.Random(
                (seed * 1_000_003 + rule_index * 97 + shard)
                & 0xFFFFFFFF)
        return rng

    def on_tick(self, shard, tick):
        """Kill/stall decisions for quantum tick ``tick`` (1-based)
        of ``shard``'s anchor rank.  Returns a list of actions:
        ``("kill", rule_index, tick)`` or
        ``("stall", rule_index, tick, seconds)``."""
        actions = []
        for index, rule in self.proc_rules:
            victim = rule.params.get("shard")
            if victim is not None and victim != shard:
                continue
            key = (index, shard)
            if key in self.fired:
                continue
            if tick < rule.params.get("at_tick", 1):
                continue
            if rule.p < 1.0 \
                    and self._rng(index, shard).random() >= rule.p:
                continue
            self.fired.add(key)
            if rule.kind == WORKER_KILL:
                actions.append(("kill", index, tick))
            else:
                actions.append(
                    ("stall", index, tick,
                     rule.params.get("seconds",
                                     DEFAULT_STALL_SECONDS)))
        return actions

    def ipc_delay_seconds(self, shard):
        """Wall seconds to sleep before one coordinator-bound IPC
        send from ``shard`` (0.0 when no delay rule draws)."""
        total = 0.0
        for index, rule in self.ipc_rules:
            if rule.p < 1.0 \
                    and self._rng(index, shard).random() >= rule.p:
                continue
            total += rule.params.get("seconds",
                                     DEFAULT_IPC_DELAY_SECONDS)
        return total

    def mark_fired(self, rule_index, shard):
        """Coordinator-side bookkeeping: a worker reported delivering
        one-shot fault ``rule_index`` on ``shard``."""
        self.fired.add((rule_index, shard))

    def __getstate__(self):
        # RNG streams are rebuilt lazily on the receiving side; the
        # fired set travels so delivered one-shots never re-fire.
        return {"rules": self.rules, "fired": sorted(self.fired)}

    def __setstate__(self, state):
        self.__init__(state["rules"], fired=state["fired"])
