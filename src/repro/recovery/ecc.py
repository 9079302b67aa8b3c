"""ECC-style memory protection for the simulated MPB and DRAM.

The SCC's memories are modelled as a value store that always holds the
last written word; an injected ``mpb_flip``/``dram_flip`` corrupts the
*returned* copy of a read, exactly like a transient upset on the wire
or in a cell read path.  That makes a SECDED (single-error-correct,
double-error-detect) code straightforward to model: the scrubber
compares the corrupted word's 64-bit image against the stored word's
and counts the differing bits — the syndrome weight.

* weight 1 — corrected in place: the read returns the true value, the
  core pays :data:`ECC_SCRUB_CYCLES` for the correction write-back,
  and ``ecc_corrected`` counters record the save;
* weight >= 2 — detected but uncorrectable:
  :class:`UncorrectableECCError` (an ``InterpreterError``, so the CLI
  exits 70 and the supervisor can restart from a checkpoint).

With no scrubber attached the interpreter's hook is a dead
``is not None`` branch nested inside the fault hook, so both the
un-faulted and the unprotected-faulted paths are byte-identical to the
previous layer.
"""

import struct

from repro.scc.memmap import SegmentKind
from repro.sim.interpreter import InterpreterError

# Cycles charged for one in-place correction (syndrome decode plus the
# corrected word's write-back) — small against any mesh round trip.
ECC_SCRUB_CYCLES = 20


class UncorrectableECCError(InterpreterError):
    """A read's syndrome weight exceeded SECDED's correction power."""

    def __init__(self, message, core=None, addr=None):
        super().__init__(message)
        self.core = core
        self.addr = addr


def _word_image(value):
    """A value's 64-bit storage image, or None for non-numerics."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, int):
        return value & 0xFFFFFFFFFFFFFFFF
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def syndrome_weight(corrupted, stored):
    """Differing bits between a read value and the stored word; None
    when the pair is not bit-comparable (never produced by the
    injector, which leaves non-numerics alone)."""
    lhs = _word_image(corrupted)
    rhs = _word_image(stored)
    if lhs is None or rhs is None:
        return None
    return bin(lhs ^ rhs).count("1")


class ECCScrubber:
    """Per-line SECDED tags over the MPB and DRAM, as a read filter.

    Attached as ``chip.ecc`` and mirrored into each interpreter; the
    interpreter calls :meth:`scrub` only when the fault layer actually
    flipped a loaded value, so the clean-read path is untouched.
    """

    COLLECTOR_NAME = "recovery.ecc"

    def __init__(self, scrub_cycles=None):
        self.scrub_cycles = ECC_SCRUB_CYCLES if scrub_cycles is None \
            else scrub_cycles
        self.corrected = {}      # core -> corrections
        self.uncorrectable = {}  # core -> detected-fatal reads
        self.chip = None

    # -- wiring ------------------------------------------------------------

    def attach(self, chip):
        self.chip = chip
        chip.ecc = self
        chip.metrics.register_collector(
            self.COLLECTOR_NAME, self._collect_metrics, self._reset)
        return self

    def detach(self):
        if self.chip is not None:
            if self.chip.ecc is self:
                self.chip.ecc = None
            self.chip.metrics.unregister_collector(self.COLLECTOR_NAME)
            self.chip = None

    def _collect_metrics(self):
        samples = [("counter", "ecc_corrected", {"core": core}, count)
                   for core, count in sorted(self.corrected.items())]
        samples.extend(
            ("counter", "ecc_uncorrectable", {"core": core}, count)
            for core, count in sorted(self.uncorrectable.items()))
        return samples

    def _reset(self):
        self.corrected.clear()
        self.uncorrectable.clear()

    def total_corrected(self):
        return sum(self.corrected.values())

    # -- the read filter ---------------------------------------------------

    def scrub(self, interp, addr, corrupted, stored):
        """Called by ``Interpreter._faulty_get`` after the fault layer
        flipped a read: correct or condemn it.  Returns the value the
        program sees."""
        chip = interp.chip
        core = interp.core_id
        weight = syndrome_weight(corrupted, stored)
        if weight is not None and weight <= 1:
            self.corrected[core] = self.corrected.get(core, 0) + 1
            segment = chip.address_space.resolve(addr)[0]
            if segment is SegmentKind.MPB:
                chip.mpb.stats.ecc_corrected += 1
            else:
                controller = chip.controllers[
                    chip.mesh.controller_of(core)]
                controller.stats.ecc_corrected += 1
            interp.charge(self.scrub_cycles)
            if interp._attr is not None:
                interp._attr.add(core, "ecc_scrub", self.scrub_cycles)
            return stored
        self.uncorrectable[core] = self.uncorrectable.get(core, 0) + 1
        raise UncorrectableECCError(
            "uncorrectable ECC error on core %d at address 0x%x "
            "(%s flipped bits)" % (core, addr,
                                   weight if weight is not None
                                   else "untagged"),
            core=core, addr=addr)
