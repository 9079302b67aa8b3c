"""Address-space layout for the simulated SCC.

Three segment kinds, mirroring how SCC page tables configure memory
(paper §1: off-chip pages are private-and-cacheable or
shared-and-uncacheable; plus the on-die MPB):

* ``PRIVATE``  — per-core DRAM windows, cacheable;
* ``SHARED``   — chip-wide DRAM, uncacheable (no coherence!);
* ``MPB``      — the 384 KB on-die SRAM, uncacheable but fast.

Addresses are plain integers; bump allocators hand out space.
"""

from enum import Enum


class SegmentKind(Enum):
    PRIVATE = "private"
    SHARED = "shared"
    MPB = "mpb"

    def __str__(self):
        return self.value

    # Enum.__hash__ is a Python-level function hashing the member name;
    # members compare by identity, so the C-level identity hash is both
    # consistent and much cheaper.  Per-segment access counters are
    # dicts keyed by these members and sit on the simulator's hot path.
    __hash__ = object.__hash__


PRIVATE_BASE = 0x1000_0000
PRIVATE_WINDOW = 16 * 1024 * 1024          # per-core private window
SHARED_BASE = 0x8000_0000
SHARED_SIZE = 256 * 1024 * 1024
MPB_BASE = 0xC000_0000
# virtual window for split allocations (part MPB, part shared DRAM):
# contiguous to the program, translated per-offset by the chip
SPLIT_BASE = 0xE000_0000
SPLIT_SIZE = 256 * 1024 * 1024


class Segment:
    """A contiguous allocated region."""

    __slots__ = ("kind", "base", "size", "owner", "label")

    def __init__(self, kind, base, size, owner=None, label=None):
        self.kind = kind
        self.base = base
        self.size = size
        self.owner = owner
        self.label = label

    @property
    def end(self):
        return self.base + self.size

    def __contains__(self, addr):
        return self.base <= addr < self.end

    def __repr__(self):
        return "Segment(%s, 0x%x..0x%x%s%s)" % (
            self.kind, self.base, self.end,
            ", core %s" % self.owner if self.owner is not None else "",
            ", %s" % self.label if self.label else "")


class OutOfMemoryError(Exception):
    """A bump allocator ran out of its segment."""


class UnmappedAddressError(ValueError):
    """An access to an address outside every segment: a wild pointer
    in the simulated program."""


class SplitSegment:
    """A virtually-contiguous allocation whose first ``on_chip_bytes``
    live in the MPB and whose tail lives in shared DRAM — §4.4's
    "larger arrays may be allocated entirely in DRAM or split between
    DRAM and SRAM"."""

    __slots__ = ("base", "size", "on_chip_bytes", "mpb_segment",
                 "shared_segment", "label")

    # no core owns it, as none owns a shared segment
    owner = None

    def __init__(self, base, size, on_chip_bytes, mpb_segment,
                 shared_segment, label=None):
        self.base = base
        self.size = size
        self.on_chip_bytes = on_chip_bytes
        self.mpb_segment = mpb_segment
        self.shared_segment = shared_segment
        self.label = label

    @property
    def end(self):
        return self.base + self.size

    @property
    def kind(self):
        return SegmentKind.SHARED  # what it is to the programmer

    def resolve(self, addr):
        """(SegmentKind, physical address) for a virtual ``addr``."""
        offset = addr - self.base
        if offset < self.on_chip_bytes:
            return SegmentKind.MPB, self.mpb_segment.base + offset
        return (SegmentKind.SHARED,
                self.shared_segment.base + offset - self.on_chip_bytes)

    def __contains__(self, addr):
        return self.base <= addr < self.end

    def __repr__(self):
        return "SplitSegment(0x%x+%d, %dB on-chip%s)" % (
            self.base, self.size, self.on_chip_bytes,
            ", %s" % self.label if self.label else "")


class AddressSpace:
    """Classification + allocation over the three segment kinds."""

    def __init__(self, config):
        self.config = config
        self._private_next = {}
        self._shared_next = SHARED_BASE
        self._mpb_next = MPB_BASE
        self._split_next = SPLIT_BASE
        self.allocations = []
        self.split_segments = []  # sorted by base
        self._layout_listeners = []

    def on_layout_change(self, callback):
        """Invoke ``callback()`` whenever the address translation map
        changes (a new split window appears).  The chip uses this to
        invalidate the interpreter's per-site memory-access caches."""
        self._layout_listeners.append(callback)

    def _notify_layout_change(self):
        for callback in self._layout_listeners:
            callback()

    # -- classification ------------------------------------------------------

    def classify(self, addr):
        return self.resolve(addr)[0]

    def resolve(self, addr):
        """(SegmentKind, physical address).  Split-window addresses
        translate to their MPB or shared-DRAM backing; everything else
        is identity-mapped."""
        if PRIVATE_BASE <= addr < PRIVATE_BASE + \
                PRIVATE_WINDOW * self.config.num_cores:
            return SegmentKind.PRIVATE, addr
        if SHARED_BASE <= addr < SHARED_BASE + SHARED_SIZE:
            return SegmentKind.SHARED, addr
        if MPB_BASE <= addr < MPB_BASE + self.config.mpb_total_bytes:
            return SegmentKind.MPB, addr
        if SPLIT_BASE <= addr < SPLIT_BASE + SPLIT_SIZE:
            segment = self._split_of(addr)
            if segment is not None:
                return segment.resolve(addr)
        raise UnmappedAddressError(
            "address 0x%x is outside every segment" % addr)

    def _split_of(self, addr):
        import bisect
        bases = [segment.base for segment in self.split_segments]
        index = bisect.bisect_right(bases, addr) - 1
        if index < 0:
            return None
        segment = self.split_segments[index]
        return segment if addr in segment else None

    def private_owner(self, addr):
        """Which core's private window ``addr`` falls in."""
        return (addr - PRIVATE_BASE) // PRIVATE_WINDOW

    def mpb_offset(self, addr):
        return addr - MPB_BASE

    # -- allocation ------------------------------------------------------------

    @staticmethod
    def _align(value, alignment=8):
        return (value + alignment - 1) // alignment * alignment

    def alloc_private(self, core, nbytes, label=None):
        base = self._private_next.get(
            core, PRIVATE_BASE + core * PRIVATE_WINDOW)
        nbytes = max(self._align(nbytes), 8)
        if base + nbytes > PRIVATE_BASE + (core + 1) * PRIVATE_WINDOW:
            raise OutOfMemoryError(
                "core %d private window exhausted" % core)
        self._private_next[core] = base + nbytes
        segment = Segment(SegmentKind.PRIVATE, base, nbytes, core, label)
        self.allocations.append(segment)
        return segment

    def alloc_shared(self, nbytes, label=None):
        nbytes = max(self._align(nbytes), 8)
        if self._shared_next + nbytes > SHARED_BASE + SHARED_SIZE:
            raise OutOfMemoryError("shared DRAM exhausted")
        segment = Segment(SegmentKind.SHARED, self._shared_next, nbytes,
                          None, label)
        self._shared_next += nbytes
        self.allocations.append(segment)
        return segment

    def alloc_mpb(self, nbytes, label=None):
        nbytes = max(self._align(nbytes), 8)
        if self._mpb_next + nbytes > MPB_BASE + \
                self.config.mpb_total_bytes:
            raise OutOfMemoryError("MPB exhausted")
        segment = Segment(SegmentKind.MPB, self._mpb_next, nbytes,
                          None, label)
        self._mpb_next += nbytes
        self.allocations.append(segment)
        return segment

    def alloc_split(self, nbytes, on_chip_bytes, label=None):
        """Allocate ``nbytes`` with the first ``on_chip_bytes`` backed
        by MPB SRAM and the rest by shared DRAM, presented to the
        program as one contiguous range."""
        nbytes = max(self._align(nbytes), 8)
        on_chip_bytes = self._align(min(max(on_chip_bytes, 0), nbytes))
        if self._split_next + nbytes > SPLIT_BASE + SPLIT_SIZE:
            raise OutOfMemoryError("split window exhausted")
        mpb_segment = self.alloc_mpb(max(on_chip_bytes, 8),
                                     label and label + ".mpb")
        shared_segment = self.alloc_shared(
            max(nbytes - on_chip_bytes, 8),
            label and label + ".dram")
        segment = SplitSegment(self._split_next, nbytes, on_chip_bytes,
                               mpb_segment, shared_segment, label)
        self._split_next += nbytes
        self.split_segments.append(segment)
        self.allocations.append(segment)
        self._notify_layout_change()
        return segment

    def mpb_free_bytes(self):
        return MPB_BASE + self.config.mpb_total_bytes - self._mpb_next
