"""Per-location shadow state and variable-name resolution.

Every simulated memory word the detector has seen carries a
:class:`ShadowWord`: the last write's epoch (with core/function/cycle
provenance), the reads since that write, the Eraser-style candidate
lockset of its writes, and — for the HSM coherence audit — which cores
have touched the word while it sat in a *cacheable* segment.

Stack reuse: the serial pthread baseline places successive threads'
frames at the same addresses, so every local binding registers a
fresh :class:`VariableExtent`; a shadow word whose owning extent has
been superseded is reset on its next access, so two threads' own
copies of one local are never mistaken for a race.

The same map is the runtime sharing observer the A4 comparison
(``repro.core.dynamic``) reads: each extent remembers the first thread
that touched it and whether a second one did, and
:meth:`VariableMap.shared_keys` reports every variable with at least
one instance touched by more than one thread.
"""

import bisect


class VariableExtent:
    """One registered instance of a named variable's address range."""

    __slots__ = ("name", "base", "size", "scope_kind", "function",
                 "accessor", "shared")

    def __init__(self, name, base, size, scope_kind, function=None):
        self.name = name
        self.base = base
        self.size = max(size, 1)
        self.scope_kind = scope_kind
        self.function = function
        self.accessor = None    # the first thread to touch this instance
        self.shared = False     # ...and whether another thread did too

    @property
    def end(self):
        return self.base + self.size

    @property
    def key(self):
        return (self.function, self.name)

    def touch(self, tid):
        """Note one access by thread ``tid``."""
        if self.accessor is None:
            self.accessor = tid
        elif tid != self.accessor:
            self.shared = True

    def describe(self):
        if self.function:
            return "%s (local of %s)" % (self.name, self.function)
        return self.name

    def __repr__(self):
        return "VariableExtent(%s @ 0x%x+%d)" % (self.name, self.base,
                                                 self.size)


class VariableMap:
    """Bisect-indexed extents, newest instance wins at equal bases."""

    def __init__(self):
        self._bases = []
        self._extents = []
        self._retired_shared = set()  # keys of shared rebound instances

    def register(self, name, base, size, scope_kind, function=None):
        index = bisect.bisect_right(self._bases, base)
        if index > 0 and self._bases[index - 1] == base:
            previous = self._extents[index - 1]
            if scope_kind != "local" and previous.name == name and \
                    previous.size == max(size, 1):
                # a shared/heap segment re-registered by another core's
                # symmetric allocation call: keep the original instance
                # so its shadow words survive (only locals are rebound)
                return previous
            if previous.shared:
                self._retired_shared.add(previous.key)
            extent = VariableExtent(name, base, size, scope_kind,
                                    function)
            self._extents[index - 1] = extent
            return extent
        extent = VariableExtent(name, base, size, scope_kind, function)
        self._bases.insert(index, base)
        self._extents.insert(index, extent)
        return extent

    def resolve(self, addr):
        index = bisect.bisect_right(self._bases, addr) - 1
        if index < 0:
            return None
        extent = self._extents[index]
        if addr < extent.end:
            return extent
        return None

    def shared_keys(self):
        """``(function, name)`` of every variable with an instance —
        live or already rebound — touched by more than one thread."""
        return self._retired_shared | {
            extent.key for extent in self._extents if extent.shared}


class ShadowWord:
    """Detector state for one simulated memory word."""

    __slots__ = ("segment", "owner", "write", "reads", "lockset",
                 "access_cores")

    def __init__(self, segment, owner):
        self.segment = segment
        self.owner = owner      # VariableExtent instance (or None)
        # last write: (tid, clock, core, function, cycles) or None
        self.write = None
        # reads since the last write: tid -> (clock, core, fn, cycles)
        self.reads = {}
        # intersection of locks held across all writes (Eraser)
        self.lockset = None
        # every core that touched the word (HSM coherence audit)
        self.access_cores = set()


class ShadowMemory:
    """addr -> ShadowWord, with extent-generation invalidation."""

    def __init__(self):
        self._words = {}

    def __len__(self):
        return len(self._words)

    def lookup(self, addr, segment, extent):
        """The live shadow word for ``addr``; a word owned by a
        superseded (rebound) extent is replaced with a fresh one."""
        word = self._words.get(addr)
        if word is None or word.owner is not extent:
            word = ShadowWord(segment, extent)
            self._words[addr] = word
        return word

    def clear(self):
        self._words.clear()
