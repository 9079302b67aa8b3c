"""Per-core access counts: shared and MPB accesses are counted as they
are priced, private ones are derived from the L1 counters (every
private and every MPB access probes L1 exactly once).  The counts the
chip publishes must equal the number of accesses a caller made, on the
fast-path entries and on ``access_cost``, across window
reconfigurations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector
from repro.obs.attribution import AttributionEngine
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.scc.memmap import SegmentKind

REGIONS = ("private", "shared", "mpb")
CORES = (0, 1)

_ACCESS = st.tuples(st.just("access"), st.sampled_from(CORES),
                    st.sampled_from(REGIONS), st.integers(0, 11),
                    st.sampled_from(("read", "write")),
                    st.sampled_from(("fast", "slow")))
_WINDOW = st.tuples(st.just("window"), st.sampled_from(CORES),
                    st.booleans())
_OPS = st.lists(st.one_of(_ACCESS, _ACCESS, _ACCESS, _ACCESS, _WINDOW),
                min_size=10, max_size=80)


class _SiteCache:
    """An access site's inline cache, as the interpreter keeps one:
    the chip drops it whenever address translation changes."""

    def __init__(self, chip):
        self._site_cache = {}
        chip.register_entry_holder(self)

    def drop_fastpath_entries(self):
        self._site_cache.clear()


def _published(chip):
    """``{(core, segment name): count}`` from the metrics samples."""
    rows = chip.metrics.snapshot()["counters"].get("scc_core_accesses", ())
    return {(row["labels"]["core"], row["labels"]["segment"]): row["value"]
            for row in rows}


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_counts_match_the_accesses_made(ops):
    # a 2-set 2-way L1 and a 1-set L2: the twelve lines below keep
    # hitting, missing and evicting
    chip = SCCChip(SCCConfig(l1_size=128, l2_size=64, l2_assoc=2))
    space = chip.address_space
    bases = {("private", core): space.alloc_private(core, 12 * 16).base
             for core in CORES}
    shared = space.alloc_shared(12 * 16).base
    mpb = space.alloc_mpb(12 * 16).base
    for core in CORES:
        bases[("shared", core)] = shared
        bases[("mpb", core)] = mpb
    engine = AttributionEngine().attach(chip)
    sites = _SiteCache(chip)
    silent = FaultInjector([])     # no rules: forces the slow path only
    made = {(core, kind): 0 for core in CORES for kind in SegmentKind}
    # a core's private window flipped to shared-uncacheable DRAM
    flipped = dict.fromkeys(CORES, False)

    for op in ops:
        if op[0] == "window":
            _, core, shared_window = op
            chip.configure_window(core, bases[("private", core)],
                                  shared=shared_window)
            flipped[core] = shared_window
            continue
        _, core, region, word, kind, route = op
        addr = bases[(region, core)] + 16 * word
        key = (core, region, route)
        entry = sites._site_cache.get(key)
        if entry is None or not entry[0] <= addr < entry[1]:
            if route == "slow":
                silent.attach(chip)
            try:
                entry = sites._site_cache[key] = \
                    chip.access_fastpath(core, addr)
            finally:
                silent.detach()
        entry[2](addr, kind)
        if region == "private":
            segment = (SegmentKind.SHARED if flipped[core]
                       else SegmentKind.PRIVATE)
        else:
            segment = SegmentKind(region)
        made[(core, segment)] += 1

    for core in CORES:
        assert chip.cores[core].accesses == {
            kind: made[(core, kind)] for kind in SegmentKind}
        total = sum(made[(core, kind)] for kind in SegmentKind)
        assert engine._mem_ops().get(core, 0) == total
        assert engine.core_snapshot(core).get("_ops", 0) == total
    assert _published(chip) == {
        (core, str(kind)): count
        for (core, kind), count in made.items() if count}
