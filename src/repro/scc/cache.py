"""Set-associative cache model with LRU replacement.

The SCC's caches are *non-coherent*: there is no snooping and no
directory.  Private pages are cacheable; shared pages bypass the caches
entirely (paper §1: "the data in the private pages are cache-able, but
the shared pages are not").  The bypass decision is made by the chip
model, not here — this class is a plain cache.
"""


class CacheStats:
    __slots__ = ("hits", "misses", "evictions")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self):
        """Plain-dict copy, cheap enough for the attribution engine
        to take at every barrier entry (per-phase hit-rate deltas)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    def __repr__(self):
        return "CacheStats(hits=%d, misses=%d, rate=%.3f)" % (
            self.hits, self.misses, self.hit_rate)


class Cache:
    """One level of cache: ``size`` bytes, ``assoc`` ways, LRU."""

    def __init__(self, size, line_size, assoc, name="cache"):
        if size % (line_size * assoc) != 0:
            raise ValueError("size must be a multiple of line*assoc")
        self.size = size
        self.line_size = line_size
        self.assoc = assoc
        self.name = name
        self.num_sets = size // (line_size * assoc)
        # sets materialize lazily: {index: [tag, ...]}, least recently
        # used first, so building a 48-core chip does not allocate
        # ~100k empty sets.  A set is never empty: it is created by the
        # miss that fills its first way, and invalidate_all drops them
        # all.
        self.sets = {}
        self.stats = CacheStats()
        # The line number (``addr // line_size``) of the last probe, or
        # -1.  That line is resident and most recently used in its set,
        # so probing it again is a hit that reorders nothing (a reuse
        # distance of zero).  Every probe, here and in the chip's
        # inlined L1 probes, refreshes it; invalidate_all clears it.
        self.last_line = -1

    def _locate(self, addr):
        line = addr // self.line_size
        return line % self.num_sets, line // self.num_sets

    def access(self, addr):
        """Touch ``addr``; returns True on hit, False on miss (and
        fills the line, evicting LRU if needed)."""
        # _locate() is inlined here: this is the single hottest call in
        # the whole simulator (every private/MPB access, twice on L1
        # misses).  A repeat of the last line skips the set lookup, and
        # a hit on the set's MRU way (``ways[-1]``) moves nothing.
        line = addr // self.line_size
        if line == self.last_line:
            self.stats.hits += 1
            return True
        self.last_line = line
        index = line % self.num_sets
        tag = line // self.num_sets
        ways = self.sets.get(index)
        if ways is None:
            ways = self.sets[index] = []
        elif ways[-1] == tag:
            self.stats.hits += 1
            return True
        elif tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.stats.hits += 1
            return True
        stats = self.stats
        stats.misses += 1
        if len(ways) >= self.assoc:
            del ways[0]
            stats.evictions += 1
        ways.append(tag)
        return False

    def contains(self, addr):
        index, tag = self._locate(addr)
        return tag in self.sets.get(index, ())

    def invalidate_all(self):
        self.sets.clear()
        self.last_line = -1

    def __repr__(self):
        return "Cache(%s: %dB, %d-way, %dB lines)" % (
            self.name, self.size, self.assoc, self.line_size)
