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
    source = """
        int counter = 0;
        int main(void) {
            int i;
            for (i = 0; i < 50; i++) counter += i;
            return counter;
        }
    """
    unit = parse_program(source)
    chip = tiny_chip()
    interp = Interpreter(unit, chip, 0, Memory())
    interp.run_main()
    assert interp.site_fills > 0
    assert interp._site_cache
    fills_before = interp.site_fills
    # a layout/LUT change must drop every cached site entry
    chip._bump_mem_epoch()
    assert not interp._site_cache
    assert interp.site_fills == fills_before


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
        lo, hi, fn = fast_chip.access_fastpath(0, addr)
        assert lo <= addr < hi
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
    lo, hi, fn = chip.access_fastpath(0, layout["shared"].base)
    assert lo <= layout["private"].base and layout["mpb"].base < hi
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
