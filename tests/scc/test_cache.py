"""Cache model tests, including hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scc.cache import Cache
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.scc.memmap import SHARED_BASE


class TestBasics:
    def test_first_access_misses(self):
        cache = Cache(1024, 32, 2)
        assert cache.access(0) is False

    def test_second_access_hits(self):
        cache = Cache(1024, 32, 2)
        cache.access(0)
        assert cache.access(0) is True

    def test_same_line_hits(self):
        cache = Cache(1024, 32, 2)
        cache.access(0)
        assert cache.access(31) is True    # same 32B line
        assert cache.access(32) is False   # next line

    def test_geometry(self):
        cache = Cache(1024, 32, 2)
        assert cache.num_sets == 16

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache(1000, 32, 3)

    def test_stats(self):
        cache = Cache(1024, 32, 2)
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_invalidate_all(self):
        cache = Cache(1024, 32, 2)
        cache.access(0)
        cache.invalidate_all()
        assert cache.access(0) is False


class TestLRU:
    def make(self):
        # 2 ways, 1 set: line size 32, size 64
        return Cache(64, 32, 2)

    def test_eviction_of_lru(self):
        cache = self.make()
        cache.access(0)      # A
        cache.access(64)     # B (same set)
        cache.access(128)    # C evicts A
        assert cache.contains(64)
        assert not cache.contains(0)

    def test_touch_refreshes_lru(self):
        cache = self.make()
        cache.access(0)      # A
        cache.access(64)     # B
        cache.access(0)      # touch A
        cache.access(128)    # C evicts B (now LRU)
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_eviction_counted(self):
        cache = self.make()
        for addr in (0, 64, 128):
            cache.access(addr)
        assert cache.stats.evictions == 1


class TestStreaming:
    def test_sequential_stream_hit_rate(self):
        """Sequential access over a large array: 1 miss per line."""
        cache = Cache(1024, 32, 2)
        for addr in range(0, 8192, 4):
            cache.access(addr)
        assert cache.stats.misses == 8192 // 32
        assert cache.stats.hits == 8192 // 4 - 8192 // 32

    def test_working_set_fits(self):
        cache = Cache(1024, 32, 4)
        for _ in range(3):
            for addr in range(0, 512, 4):
                cache.access(addr)
        # after the first pass everything hits
        assert cache.stats.misses == 512 // 32


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100_000),
                    min_size=1, max_size=300))
    def test_occupancy_bounded_and_repeat_hits(self, addresses):
        cache = Cache(512, 32, 2)
        for addr in addresses:
            cache.access(addr)
        for cache_set in cache.sets.values():
            assert len(cache_set) <= cache.assoc
        assert all(0 <= index < cache.num_sets for index in cache.sets)
        # immediate re-access of the last address always hits
        assert cache.access(addresses[-1]) is True

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=200))
    def test_stats_account_for_every_access(self, addresses):
        cache = Cache(256, 16, 2)
        for addr in addresses:
            cache.access(addr)
        assert cache.stats.accesses == len(addresses)


class _ReferenceLRU:
    """The LRU the memo must match: one list per set, least recently
    used first, and no shortcut for a repeated line."""

    def __init__(self, cache):
        self.line_size = cache.line_size
        self.num_sets = cache.num_sets
        self.assoc = cache.assoc
        self.sets = {}
        self.evictions = 0

    def access(self, addr):
        line = addr // self.line_size
        ways = self.sets.setdefault(line % self.num_sets, [])
        tag = line // self.num_sets
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return True
        if len(ways) == self.assoc:
            ways.pop(0)
            self.evictions += 1
        ways.append(tag)
        return False

    def order(self):
        return {index: ways for index, ways in self.sets.items() if ways}


_MEMO_OPS = st.lists(
    st.tuples(st.sampled_from(("private_read", "private_write",
                               "mpb_read", "mpb_write", "direct",
                               "invalidate")),
              st.integers(0, 4), st.integers(0, 7)),
    min_size=20, max_size=80)


class TestLastLineMemo:
    """The last-line memo in ``Cache.access`` and in the chip's inlined
    L1 probes is exact: every probe hits or misses, evicts and leaves
    each set in the order a memo-free LRU would."""

    @settings(max_examples=300, deadline=None)
    @given(_MEMO_OPS)
    def test_memo_matches_reference_lru(self, ops):
        # a 2-set 2-way L1 over a 1-set 2-way L2, and five lines:
        # private 0 and 2 and MPB 0 share L1 set 0, private 1 and MPB
        # 1 share set 1, and the three private lines share the L2 set
        chip = SCCChip(SCCConfig(l1_size=128, l2_size=64, l2_assoc=2))
        space = chip.address_space
        private = space.alloc_private(0, 3 * 32).base
        mpb = space.alloc_mpb(2 * 32).base
        core = chip.cores[0]
        l1, l2 = core.l1, core.l2
        ref1, ref2 = _ReferenceLRU(l1), _ReferenceLRU(l2)
        for op, slot, word in ops:
            if op == "invalidate":
                chip.configure_window(0, SHARED_BASE, shared=True)
                ref1.sets.clear()
                ref2.sets.clear()
                continue
            if op.startswith("private") or (op == "direct" and slot < 3):
                addr = private + 32 * (slot % 3) + 4 * word
            else:
                addr = mpb + 32 * (slot % 2) + 4 * word
            physical = space.resolve(addr)[1]
            before1 = l1.stats.snapshot()
            before2 = l2.stats.snapshot()
            if op == "direct":
                l1.access(physical)
            else:
                kind = "read" if op.endswith("read") else "write"
                chip.access_fastpath(0, addr)[2](addr, kind, 0)
            hit = ref1.access(physical)
            assert l1.stats.hits - before1["hits"] == int(hit)
            assert l1.stats.misses - before1["misses"] == int(not hit)
            if op.startswith("private") and not hit:
                hit2 = ref2.access(physical)
                assert l2.stats.hits - before2["hits"] == int(hit2)
                assert l2.stats.misses - before2["misses"] == int(not hit2)
            else:
                assert l2.stats.snapshot() == before2
            for cache, ref in ((l1, ref1), (l2, ref2)):
                assert cache.stats.evictions == ref.evictions
                assert {index: list(ways)
                        for index, ways in cache.sets.items()
                        if ways} == ref.order()
