"""Variable resolution and shadow-word lifetime."""

from repro.race.shadow import ShadowMemory, VariableMap
from repro.scc.memmap import SegmentKind


class TestVariableMap:
    def test_resolve_inside_extent(self):
        variables = VariableMap()
        variables.register("buf", 0x1000, 32, "global")
        extent = variables.resolve(0x1010)
        assert extent is not None
        assert extent.name == "buf"
        assert variables.resolve(0x1000).name == "buf"
        assert variables.resolve(0x1020) is None
        assert variables.resolve(0xFFF) is None

    def test_local_rebinding_replaces_extent(self):
        """Stack reuse: a re-registered local is a NEW instance."""
        variables = VariableMap()
        first = variables.register("i", 0x2000, 8, "local", "worker")
        second = variables.register("i", 0x2000, 8, "local", "worker")
        assert second is not first
        assert variables.resolve(0x2000) is second

    def test_symmetric_shared_registration_is_idempotent(self):
        """Every UE registers the same shmalloc segment; the first
        instance (its shadow words and its accessors) must survive."""
        variables = VariableMap()
        first = variables.register("shmalloc#0", 0x8000, 64, "shared")
        first.touch(0)
        again = variables.register("shmalloc#0", 0x8000, 64, "shared")
        assert again is first
        again.touch(1)
        assert variables.shared_keys() == {(None, "shmalloc#0")}

    def test_describe_names_owning_function(self):
        variables = VariableMap()
        extent = variables.register("i", 0x2000, 8, "local", "worker")
        assert extent.describe() == "i (local of worker)"
        top = variables.register("g", 0x3000, 8, "global")
        assert top.describe() == "g"


class TestShadowMemory:
    def test_lookup_is_stable_for_one_extent(self):
        variables = VariableMap()
        extent = variables.register("x", 0x1000, 8, "global")
        shadow = ShadowMemory()
        word = shadow.lookup(0x1000, SegmentKind.PRIVATE, extent)
        word.write = ("t0", 1, 0, "main", 10)
        assert shadow.lookup(0x1000, SegmentKind.PRIVATE,
                             extent) is word

    def test_rebound_extent_resets_word(self):
        """A shadow word owned by a superseded local must be dropped:
        two threads' own copies of one stack slot are not a race."""
        variables = VariableMap()
        shadow = ShadowMemory()
        first = variables.register("i", 0x2000, 8, "local", "worker")
        word = shadow.lookup(0x2000, SegmentKind.PRIVATE, first)
        word.write = ("t1", 1, 0, "worker", 10)
        second = variables.register("i", 0x2000, 8, "local", "worker")
        fresh = shadow.lookup(0x2000, SegmentKind.PRIVATE, second)
        assert fresh is not word
        assert fresh.write is None
