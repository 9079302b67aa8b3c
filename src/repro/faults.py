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

Faults are configured by a small textual spec (see
:func:`parse_fault_spec`)::

    mpb_flip:p=1e-6,seed=7
    mesh_drop:p=0.01,seed=3;core_stall:core=2,at=50000,cycles=8000

**Determinism contract.**  Every rule owns one pseudo-random stream
*per core*, seeded from ``(rule seed, rule index, core id)``.  A core's
memory accesses happen in a deterministic order inside its own thread,
so injection decisions are reproducible run-to-run regardless of how
the host schedules the simulator threads.  With no rules active the
injector is never consulted: the chip and interpreter hooks are single
``is not None`` branches, keeping cycles and output byte-identical to
an un-faulted build.

Fault runs execute on the closure-compiled engine like every other
run.  With an injector attached, the chip hands out inline-cache
entries that price through ``access_cost`` (so ``mesh_delay`` and
``mesh_drop`` see every access), the interpreter reads memory through
:meth:`filter_load` and the ECC scrubber, and the step tick calls
:meth:`core_tick` every 256 steps.  Runs without faults pay none of
this.

Every injection increments a ``fault_injections{kind,core}`` counter in
the chip's metrics registry.
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

# Per-kind recognised parameters (beyond the common p= and seed=).
_KIND_PARAMS = {
    MPB_FLIP: ("bit", "bits"),
    DRAM_FLIP: ("bit", "bits"),
    MESH_DELAY: ("cycles",),
    MESH_DROP: (),
    CORE_STALL: ("core", "at", "cycles"),
    CORE_CRASH: ("core", "at"),
}

DEFAULT_DELAY_CYCLES = 50
DEFAULT_STALL_CYCLES = 10_000


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
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                "unknown fault kind %r (choose from %s)"
                % (kind, ", ".join(FAULT_KINDS)))
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
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                "unknown fault kind %r (choose from %s)"
                % (kind, ", ".join(FAULT_KINDS)))
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
                    params[key] = int(number)
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
        chip.metrics.register_collector(self.COLLECTOR_NAME,
                                        self._collect_metrics)
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

    # -- deterministic randomness ------------------------------------------

    def reset_streams(self):
        """Restart every per-(rule, core) stream from its seed and zero
        the injection counts while keeping one-shot delivery state
        (``_fired``).  The supervisor calls this between restart
        attempts so the replayed prefix reproduces the original run's
        injection schedule exactly — without re-firing a crash that
        already fired — and each attempt publishes only its own
        injections."""
        self._rngs.clear()
        self.counts.clear()

    def _rng(self, rule_index, core):
        key = (rule_index, core)
        rng = self._rngs.get(key)
        if rng is None:
            seed = self.rules[rule_index].seed
            rng = self._rngs[key] = random.Random(
                (seed * 1_000_003 + rule_index * 97 + core) & 0xFFFFFFFF)
        return rng

    def _record(self, kind, core):
        key = (kind, core)
        self.counts[key] = self.counts.get(key, 0) + 1

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
            self._record(rule.kind, interp.core_id)
            if segment is SegmentKind.MPB:
                chip.mpb.stats.corrupted_reads += 1
            value = flipped
        return value

    def latency_extra(self, core, cost):
        """Chip pricing hook: extra cycles from link faults on one
        access that cost ``cost`` cycles."""
        extra = 0
        for index, rule in self.latency_rules:
            rng = self._rng(index, core)
            if rng.random() >= rule.p:
                continue
            if rule.kind == MESH_DELAY:
                extra += rule.params.get("cycles", DEFAULT_DELAY_CYCLES)
            else:  # MESH_DROP: the message is retransmitted end-to-end
                extra += cost
                if self.chip is not None:
                    self.chip.mesh.record_drop()
            self._record(rule.kind, core)
        return extra

    def message_dropped(self, core):
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
            self._record(MESH_DROP, core)
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
                self._record(CORE_CRASH, interp.core_id)
                raise CoreCrashFault(
                    "injected crash on core %d at cycle %d"
                    % (interp.core_id, interp.cycles),
                    core=interp.core_id, cycle=interp.cycles)
            stall = rule.params.get("cycles", DEFAULT_STALL_CYCLES)
            self._record(CORE_STALL, interp.core_id)
            interp.charge(stall)
