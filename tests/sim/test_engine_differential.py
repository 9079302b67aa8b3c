"""Golden suite: the simulator's one execution engine, the
closure-compiled one, must reproduce the results the reference
tree-walking interpreter produced before it was retired.

``tests/golden/sim.json`` pins, per case, simulated cycles, per-core
cycles, program stdout, and the chip's full metrics snapshot — not
just the final answer — so a change that drifts the timing model by a
single cycle fails here.  The cases (see ``tests.sim.goldens``) cover
hand-written kernels for each language feature, the benchmark corpus
(scaled down for test speed) under every configuration, and fault,
recovery, checkpoint/restore and supervised-restart campaigns.
Hypothesis-generated arithmetic/pointer kernels check the engine's
fault-hooked paths against its plain fast paths.
"""

import collections
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.programs import benchmark_source
from repro.cfront.frontend import parse_program
from repro.faults import FaultInjector
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.scc.lut import WINDOW_BYTES
from repro.scc.memmap import SegmentKind
from repro.sim.compile import compile_unit
from repro.sim.interpreter import Interpreter, InterpreterError
from repro.sim.machine import Memory
from repro.sim.runner import run_pthread_single_core, run_rcce
from tests.sim.goldens import (
    CASES,
    CONFIGURATIONS,
    FEATURE_KERNELS,
    SMALL_WORKLOADS,
    golden,
    run_case,
    signature,
    tiny_chip,
    translated,
)


# -- pinned goldens ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FEATURE_KERNELS))
def test_feature_kernel_differential(name):
    case = "feature/" + name
    assert run_case(case) == golden(case)


@pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_bench_corpus_differential(name, configuration):
    case = "corpus/%s/%s" % (configuration, name)
    assert run_case(case) == golden(case)


_CAMPAIGNS = sorted(name for name in CASES if name.split("/")[0] in (
    "faults", "supervised", "restore", "pthread_faults", "recovery"))


@pytest.mark.parametrize("case", _CAMPAIGNS)
def test_fault_campaign_matches_golden(case):
    """Faults, ECC, send retry, checkpoints (captured every round,
    then restored), and supervised restarts run on the compiled
    engine exactly as they ran on the tree-walker."""
    assert run_case(case) == golden(case)


# -- hypothesis: generated kernels, fault hooks armed or not -------------------


class _SilentInjector(FaultInjector):
    """Fault rules that never fire: attaching this injector switches
    the engine onto its fault-hooked paths (whole-range access entry,
    filtered loads, the core tick) and counts each hook call, without
    changing a single value or cycle."""

    SPEC = ("mesh_delay:p=0,seed=1;dram_flip:p=0,seed=2;"
            "core_stall:core=0,p=0")

    def __init__(self):
        super().__init__(self.SPEC)
        self.calls = collections.Counter()

    def filter_load(self, interp, addr, value):
        self.calls["load"] += 1
        return super().filter_load(interp, addr, value)

    def latency_extra(self, core, cost):
        self.calls["access"] += 1
        return super().latency_extra(core, cost)

    def core_tick(self, interp):
        self.calls["tick"] += 1
        super().core_tick(interp)


_ops = st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^",
                        "<<", ">>", "<", "<=", "==", "!=", ">", ">="])


@st.composite
def _expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return str(draw(st.integers(1, 50)))
        if choice == 1:
            return "v%d" % draw(st.integers(0, 3))
        return "data[%d]" % draw(st.integers(0, 7))
    op = draw(_ops)
    left = draw(_expr(depth=depth + 1))
    right = draw(_expr(depth=depth + 1))
    if op in ("/", "%"):
        right = "(%s | 1)" % right  # keep divisors nonzero
    if op in ("<<", ">>"):
        right = "(%s & 7)" % right  # keep shifts in range
    return "(%s %s %s)" % (left, op, right)


@given(exprs=st.lists(_expr(), min_size=1, max_size=4),
       seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_generated_kernel_differential(exprs, seed):
    """The fault-hooked paths are trace-exact against the plain fast
    paths on generated arithmetic/pointer kernels, and each hook is
    really reached (the rounds loop outlasts one tick interval)."""
    body = "".join("acc += %s;\n            p[%d] = acc;\n"
                   % (expr, index % 8)
                   for index, expr in enumerate(exprs))
    source = """
        int data[8];
        int main(void) {
            int v0 = %d, v1 = 3, v2 = -7, v3 = 11;
            int acc = 0;
            int *p = data;
            int i, round;
            for (i = 0; i < 8; i++) data[i] = i + v0;
            for (round = 0; round < 64; round++) {
            %s
            }
            return acc;
        }
    """ % (seed % 13, body)
    plain = signature(run_pthread_single_core(
        source, chip=tiny_chip(), max_steps=50_000_000))
    injector = _SilentInjector()
    hooked = signature(run_pthread_single_core(
        source, chip=tiny_chip(), max_steps=50_000_000, faults=injector))
    assert hooked == plain
    assert all(injector.calls[hook] > 0
               for hook in ("load", "access", "tick")), injector.calls
    assert "fault_injections" not in hooked["metrics"]["counters"]


# -- unit tests: the machinery behind the engine -----------------------------


def test_compiled_is_default_engine():
    """Every interpreter runs its program as compiled closures."""
    unit = parse_program("int main(void) { return 0; }")
    interp = Interpreter(unit, tiny_chip(), 0, Memory())
    assert interp._compiled is compile_unit(unit)


def test_unknown_engine_rejected():
    """There is no engine to choose: the argument no longer exists."""
    unit = parse_program("int main(void) { return 0; }")
    with pytest.raises(TypeError):
        Interpreter(unit, tiny_chip(), 0, Memory(), engine="jit")


def test_compile_unit_cached_per_unit():
    unit = parse_program("int main(void) { return 4; }")
    assert compile_unit(unit) is compile_unit(unit)


def test_compiled_unit_does_not_outlive_its_unit():
    """The compile cache is keyed weakly on the unit, so nothing the
    compiled unit holds may lead back to the unit's AST."""
    unit = parse_program("""
        int total = 0;
        int twice(int x) { return 2 * x; }
        int RCCE_APP(int argc, char **argv) {
            RCCE_init(&argc, &argv);
            total = twice(RCCE_ue());
            RCCE_finalize();
            return 0;
        }
    """)
    ref = weakref.ref(unit)
    compile_unit(unit)
    run_rcce(unit, 2)
    del unit
    gc.collect()
    assert ref() is None


def test_goto_raises_identically_in_both_engines():
    """goto is unsupported at *runtime*: it compiles to a closure that
    raises, when (and only when) executed, the error the tree-walker
    raised, at the same step and cycle."""
    assert run_case("error/goto") == golden("error/goto")


def test_switch_dead_item_is_skipped():
    """An unlabeled statement ahead of a switch's first case is dead
    code: the switch still compiles, and runs as the tree-walker
    ran it."""
    assert run_case("switch/dead_item") == golden("switch/dead_item")


def test_unknown_struct_member_raises_when_reached():
    source = """
        struct point { int x; int y; };
        int main(void) {
            struct point p;
            int n = 1;
            if (n > 5) { p.z = 3; }
            p.x = n;
            return p.x;
        }
    """
    assert Interpreter(parse_program(source), tiny_chip(), 0,
                       Memory()).run_main() == 1
    interp = Interpreter(parse_program(source.replace("n > 5", "n < 5")),
                         tiny_chip(), 0, Memory())
    with pytest.raises(InterpreterError, match="no field 'z'"):
        interp.run_main()


def test_break_escaping_its_function_raises():
    source = """
        void leave(void) { break; }
        int main(void) {
            int i;
            for (i = 0; i < 3; i++) { leave(); }
            return i;
        }
    """
    interp = Interpreter(parse_program(source), tiny_chip(), 0, Memory())
    with pytest.raises(InterpreterError, match="break outside a loop"):
        interp.run_main()


def test_site_cache_filled_and_invalidated():
    """An array element's load and store fill their sites' entries;
    every local and global scalar shares the core's one scalar entry.
    A layout/LUT change drops both."""
    source = """
        int counter = 0;
        int hist[4];
        int main(void) {
            int i;
            for (i = 0; i < 50; i++) {
                counter += i;
                hist[i & 3] += i;
            }
            return counter;
        }
    """
    unit = parse_program(source)
    chip = tiny_chip()
    interp = Interpreter(unit, chip, 0, Memory())
    assert interp._price_scalar == interp._fill_scalar
    assert interp.run_main() == 1225
    assert len(interp._site_cache) == 2
    assert interp._price_scalar != interp._fill_scalar
    assert interp.site_fills == 3
    # a layout/LUT change must drop every entry
    chip._bump_mem_epoch()
    assert not interp._site_cache
    assert interp._price_scalar == interp._fill_scalar
    assert interp.site_fills == 3


SCALAR_PROGRAM = """
    int g;
    double gd;
    int arr[8];
    int main(void) {
        int i;
        int s = 0;
        double d = 0.5;
        for (i = 0; i < 24; i++) { s += i; g = s; gd = gd + d; }
        phase(1);
        for (i = 0; i < 24; i++) { s += g; arr[i & 7] = s; g++; }
        phase(0);
        s = s + g;
        split();
        for (i = 0; i < 24; i++) { s -= arr[i & 7]; gd *= 0.5; }
        return s;
    }
"""


class _PhaseRuntime:
    """Builtins that change address translation mid-run: ``phase(1)``
    remaps the core's own private window to shared-uncacheable DRAM,
    ``phase(0)`` maps it back, ``split()`` adds a split window.  Each
    records the core's cycles when it is called, ``bound`` the
    interpreter's ``_sl1`` before and after its change, and ``counts``
    the core's L1 hits and the scalar entry's calls (``calls[0]``) so
    far."""

    def __init__(self, calls):
        self.marks = []
        self.bound = []
        self.counts = []
        self.calls = calls

    def _record(self, interp):
        self.marks.append(interp.cycles)
        self.counts.append((interp.chip.cores[interp.core_id].l1.stats.hits,
                            self.calls[0]))

    def builtins(self):
        return {"phase": self.phase, "split": self.split}

    def phase(self, interp, args):
        shared = interp.eval_expr(args[0])
        self._record(interp)
        before = interp._sl1
        window = interp.stack.base - interp.stack.base % WINDOW_BYTES
        interp.chip.configure_window(interp.core_id, window,
                                     shared=bool(shared))
        self.bound.append((before, interp._sl1))
        return 0

    def split(self, interp, args):
        self._record(interp)
        before = interp._sl1
        interp.chip.address_space.alloc_split(4096, 1024, label="mid-run")
        self.bound.append((before, interp._sl1))
        return 0


def _scalar_run(reference):
    """Run SCALAR_PROGRAM on core 3; with ``reference``, the chip hands
    out entries that price every access through ``access_cost`` and
    name no L1, so every scalar access calls the entry.  Without it,
    the entries are the chip's own, each counting its calls.  Returns
    the run's record, its interpreter and its runtime."""
    chip = tiny_chip()
    calls = [0]
    if reference:
        def access_fastpath(core, addr):
            return 0, 1 << 64, lambda addr, kind: chip.access_cost(
                core, addr, kind, 4), None
    else:
        chip_entry = chip.access_fastpath

        def access_fastpath(core, addr):
            lo, hi, fn, l1 = chip_entry(core, addr)

            def counted(addr, kind):
                calls[0] += 1
                return fn(addr, kind)
            return lo, hi, counted, l1
    chip.access_fastpath = access_fastpath
    runtime = _PhaseRuntime(calls)
    interp = Interpreter(parse_program(SCALAR_PROGRAM), chip, 3, Memory(),
                         runtime)
    value = interp.run_main()
    state = chip.cores[3]
    return {"value": value, "steps": interp.steps,
            "cycles": runtime.marks + [interp.cycles],
            "accesses": state.accesses,
            "caches": [(cache.stats.hits, cache.stats.misses,
                        cache.stats.evictions)
                       for cache in (state.l1, state.l2)],
            "dram": [(c.stats.reads, c.stats.writes, c.stats.busy_cycles)
                     for c in chip.controllers]}, interp, runtime


def test_scalar_entry_matches_access_cost():
    """The core's one scalar entry prices each local and global scalar
    as ``access_cost`` does, across a remap of the core's own window to
    shared and back and a new split window, each of which drops the
    entry.  The L1 hits the generated code takes in place (``_sl1``)
    change nothing: the reference binds no L1, so each of its scalar
    accesses calls the entry."""
    fast, interp, runtime = _scalar_run(reference=False)
    slow, reference, reference_runtime = _scalar_run(reference=True)
    assert fast == slow
    # the shared phase priced the scalars as shared DRAM
    assert fast["accesses"][SegmentKind.SHARED] > 0
    assert fast["accesses"][SegmentKind.PRIVATE] > 0
    # the scalar entry is built four times: at the start and after
    # each of the three changes; each array-element site once, in the
    # loop that holds it
    assert interp.site_fills == 4 + 2
    # before phase(1) the program touches only scalars, and it took
    # most of their L1 hits in place: the entry saw fewer than half
    l1 = interp.chip.cores[3].l1
    before_shared, while_shared, before_split = runtime.bound
    assert before_shared == (l1, None)
    hits, entry_calls = runtime.counts[0]
    assert entry_calls < hits / 2
    # the window stayed shared until phase(0): nothing bound the L1
    assert while_shared == (None, None)
    # back to private, the next scalar access bound it again; every
    # drop unbinds it
    assert before_split == (l1, None)
    assert interp._sl1 is l1
    assert reference._sl1 is None
    assert reference_runtime.bound == [(None, None)] * 3


def _scalar_hits_program(ops):
    """A main whose locals ``x``, ``y``, ``z`` and ``w`` lie 4 KB apart,
    so their lines share one set of the 2-way L1 of SCCConfig (128
    sets of 32-byte lines), with the arrays ``p0``..``p2`` between
    them; ``ops`` are statements on those and on the global ``g``,
    each followed by ``mark()``."""
    lines = ["int g = 5;", "int main(void) {",
             "    int x = 1;", "    int p0[1022];",
             "    int y = 2;", "    int p1[1022];",
             "    int z = 3;", "    int p2[1022];",
             "    int w = 4;"]
    for op in ops:
        if op[0] == "set":
            lines.append("    %s = %s;" % op[1:])
        elif op[0] == "add":
            lines.append("    %s = %s + %s;" % (op[1], op[1], op[2]))
        elif op[0] == "store":
            lines.append("    %s[%d] = %s;" % op[1:])
        else:
            lines.append("    %s = %s[%d];" % op[1:])
        lines.append("    mark();")
    lines.append("    return x + y + z + w + g;")
    lines.append("}")
    return "\n".join(lines)


class _EntryForEveryScalar(Interpreter):
    """Never binds ``_sl1``: every scalar load and store calls the
    core's scalar entry."""

    def _fill_scalar(self, addr, kind):
        cost = super()._fill_scalar(addr, kind)
        self._sl1 = None
        return cost


def _cache_state(cache):
    return (cache.stats.hits, cache.stats.misses, cache.stats.evictions,
            cache.last_line, {index: list(ways)
                              for index, ways in cache.sets.items()})


class _Marks:
    """``mark()``: the clock and the core's L1 state, after each
    statement."""

    def __init__(self):
        self.seen = []

    def builtins(self):
        return {"mark": self.mark}

    def mark(self, interp, args):
        self.seen.append((interp.cycles, _cache_state(
            interp.chip.cores[interp.core_id].l1)))
        return 0


_SCALARS = st.sampled_from(("x", "y", "z", "w", "g"))
# elements that share a scalar's line (p0[0..5] share x's, as p1's and
# p2's share y's and z's), the next line, and the arrays' last lines
_ELEMENTS = st.tuples(st.sampled_from(("p0", "p1", "p2")),
                      st.sampled_from((0, 3, 5, 6, 13, 1014, 1021)))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("set"), _SCALARS, _SCALARS),
    st.tuples(st.just("add"), _SCALARS, _SCALARS),
    st.builds(lambda element, src: ("store",) + element + (src,),
              _ELEMENTS, _SCALARS),
    st.builds(lambda dst, element: ("load", dst) + element,
              _SCALARS, _ELEMENTS)), min_size=1, max_size=30)


@settings(max_examples=40, deadline=None)
@given(_OPS)
def test_inline_scalar_hits_match_the_entry(ops):
    """Scalar loads and stores whose lines collide in the 2-way L1,
    interleaved with private element accesses, leave the caches and
    the clock after every statement exactly as when every scalar
    access calls the entry."""
    unit = parse_program(_scalar_hits_program(ops))
    runs = []
    for cls in (Interpreter, _EntryForEveryScalar):
        chip = SCCChip(SCCConfig())
        marks = _Marks()
        interp = cls(unit, chip, 0, Memory(), marks)
        value = interp.run_main()
        state = chip.cores[0]
        runs.append((value, interp.steps, interp.cycles, marks.seen,
                     _cache_state(state.l1), _cache_state(state.l2),
                     state.accesses))
        if cls is Interpreter:
            assert interp._sl1 is state.l1
        else:
            assert interp._sl1 is None
    assert runs[0] == runs[1]


def test_attached_hooks_never_bind_the_l1():
    """With a race detector or a fault injector attached, the scalar
    entry is wrapped or prices through ``access_cost``, so no scalar
    access takes an L1 hit in place."""
    source = """
        int g;
        int main(void) {
            int i;
            int s = 0;
            for (i = 0; i < 40; i++) { s += i; g = s; }
            probe();
            return s;
        }
    """

    class Probe:
        def __init__(self):
            self.seen = []

        def builtins(self):
            return {"probe": self.probe}

        def probe(self, interp, args):
            self.seen.append((interp._sl1, interp._price_scalar))
            return 0

    plain = Probe()
    interp = Interpreter(parse_program(source), SCCChip(SCCConfig()), 0,
                         Memory(), plain)
    assert interp.run_main() == 780
    assert plain.seen[0][0] is interp.chip.cores[0].l1

    class Recorder:
        def register(self, *args):
            pass

        def record(self, interp, addr, kind, cycles=None):
            pass

    raced = SCCChip(SCCConfig())
    raced.race = Recorder()
    faulted = SCCChip(SCCConfig())
    FaultInjector("dram_flip:p=0,seed=1").attach(faulted)
    for chip in (raced, faulted):
        probe = Probe()
        interp = Interpreter(parse_program(source), chip, 0, Memory(),
                             probe)
        assert interp.run_main() == 780
        bound, price = probe.seen[0]
        assert bound is None and interp._sl1 is None
        # the entry was built, and it is not the plain one
        assert price != interp._fill_scalar


def test_configure_window_invalidates_site_caches():
    chip = tiny_chip()
    epoch = chip.mem_epoch
    chip.configure_window(1, 0x8000_0000, shared=True)
    assert chip.mem_epoch == epoch + 1


def test_split_alloc_invalidates_site_caches():
    chip = tiny_chip()
    epoch = chip.mem_epoch
    chip.address_space.alloc_split(4096, 1024, label="t")
    assert chip.mem_epoch == epoch + 1


def _chip_with_layout():
    chip = tiny_chip()
    layout = {
        "split": chip.address_space.alloc_split(4096, 1024, label="t"),
        "private": chip.address_space.alloc_private(0, 256, label="p"),
        "shared": chip.address_space.alloc_shared(256, label="s"),
        "mpb": chip.address_space.alloc_mpb(256, label="m"),
    }
    return chip, layout


def test_access_fastpath_matches_access_cost():
    """The inline-cache entry must charge exactly what the slow path
    charges — cost AND side effects — for every segment kind, within
    its declared window."""
    _, layout = _chip_with_layout()
    probes = [layout["private"].base, layout["private"].base + 128,
              layout["shared"].base, layout["mpb"].base,
              layout["split"].base,              # MPB head
              layout["split"].base + 2048]       # shared-DRAM tail
    for addr in probes:
        fast_chip, _ = _chip_with_layout()
        slow_chip, _ = _chip_with_layout()
        lo, hi, fn, l1 = fast_chip.access_fastpath(0, addr)
        assert lo <= addr < hi
        # only the private entry names the L1 it probes in place
        assert l1 is (fast_chip.cores[0].l1 if addr in probes[:2]
                      else None)
        for offset in (0, 4, 8):
            for kind in ("read", "write"):
                assert (fn(addr + offset, kind)
                        == slow_chip.access_cost(
                            0, addr + offset, kind))
        for attribute in ("hits", "misses", "evictions"):
            assert (getattr(fast_chip.cores[0].l1.stats, attribute)
                    == getattr(slow_chip.cores[0].l1.stats, attribute))
        assert fast_chip.cores[0].accesses == slow_chip.cores[0].accesses


def test_faulted_fastpath_entry_prices_through_access_cost():
    """With an injector attached, one entry covers every address and
    every access reaches the link-fault hook."""
    chip, layout = _chip_with_layout()
    injector = FaultInjector("mesh_delay:p=1.0,seed=1,cycles=7")
    injector.attach(chip)
    lo, hi, fn, l1 = chip.access_fastpath(0, layout["shared"].base)
    assert lo <= layout["private"].base and layout["mpb"].base < hi
    assert l1 is None
    plain, _ = _chip_with_layout()
    for addr in (layout["shared"].base, layout["mpb"].base):
        assert fn(addr, "read") == plain.access_cost(0, addr) + 7
    assert chip.metrics.snapshot()["counters"]["fault_injections"] == [
        {"labels": {"kind": "mesh_delay", "core": 0}, "value": 2}]


# -- race detector: byte-identical timing, enabled or not ----------------------
#
# ``baseline`` names what the audited run is compared with: "compiled"
# a live unaudited run, "tree" the tree-walker's pinned golden.


def _pthread_signature(race=None, attribution=None):
    result = run_pthread_single_core(
        benchmark_source("pi", 4, steps=256), chip=tiny_chip(),
        max_steps=50_000_000, race=race, attribution=attribution)
    if race:
        assert result.race.ok, result.race.render()
    return signature(result)


def _translated_dot():
    return translated("dot", n=64)[0]


def _rcce_result(unit, race=None, attribution=None):
    chip = tiny_chip()
    result = run_rcce(unit, 4, chip.config, chip, max_steps=50_000_000,
                      race=race, attribution=attribution)
    if race:
        assert result.race.ok, result.race.render()
    return result


def _timing(record):
    return record["cycles"], record["per_core"], record["stdout"]


def _baseline_pthread(baseline):
    if baseline == "tree":
        return golden("plain/pthread_pi")
    return _pthread_signature()


def _baseline_rcce(baseline):
    if baseline == "tree":
        return golden("plain/rcce_dot")
    return signature(_rcce_result(_translated_dot()))


@pytest.mark.parametrize("baseline", ["tree", "compiled"])
def test_race_detector_is_cycle_invisible_pthread(baseline):
    """Auditing a race-free pthread program must not move a single
    cycle or output byte — the detector observes, never charges."""
    on = _pthread_signature(race=True)
    assert _timing(on) == _timing(_baseline_pthread(baseline))


@pytest.mark.parametrize("baseline", ["tree", "compiled"])
def test_race_detector_is_cycle_invisible_rcce(baseline):
    on = signature(_rcce_result(_translated_dot(), race=True))
    assert _timing(on) == _timing(_baseline_rcce(baseline))


# -- cycle attribution: byte-identical timing, enabled or not ------------------


@pytest.mark.parametrize("baseline", ["tree", "compiled"])
def test_attribution_is_cycle_invisible_pthread(baseline):
    """Attributing every cycle must not move one — the engine watches
    the charges, it never makes them.  The metrics snapshot is part of
    the signature: only the attribution collector's own series may
    differ, so it is compared with those popped."""
    on = _pthread_signature(attribution=True)
    off = _baseline_pthread(baseline)
    for snapshot in (on["metrics"], off["metrics"]):
        snapshot["counters"].pop("attr_cycles", None)
        snapshot["counters"].pop("attr_mem_ops", None)
        # attaching rebuilds the memory fast paths (an epoch bump),
        # which is bookkeeping, not timing
        snapshot["gauges"].pop("scc_mem_epoch", None)
    assert on == off


@pytest.mark.parametrize("baseline", ["tree", "compiled"])
def test_attribution_is_cycle_invisible_rcce(baseline):
    on = signature(_rcce_result(_translated_dot(), attribution=True))
    assert _timing(on) == _timing(_baseline_rcce(baseline))


def test_attribution_identical_across_engines():
    """Enabled-mode parity: the attribution breakdown, the per-core
    memory-op counts, and the critical path all match the ones the
    tree-walker produced — the compiled fast paths bake the same cells
    the tree-walker bumped."""
    case = "attribution/rcce_dot"
    assert run_case(case) == golden(case)
