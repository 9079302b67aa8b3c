"""Hook-overhead contracts: one row per hook, one timing protocol.

The race detector and cycle attribution stay wired into every
simulated memory access on one promise: their hooks cost at most
1.05x.  Each row times the code runs execute, hooked against a
baseline:

* ``race_detached`` -- the load and store shapes the compiler
  generates for a local (``x``, ``x = 1``), a global (``g``,
  ``g = 1``), a pointer (``*p``, ``*p = 1``, the store through an
  lvalue closure) and an array element (``g[0]``, ``g[0] = 1``), with
  no detector attached, against the same shapes with the race branch
  deleted;
* ``attribution_enabled`` -- a single-core pthread run with full cycle
  attribution, against the plain run.

The detached row drives one access mix (private L1 hits, private
misses, shared DRAM, MPB; a quarter of each segment stores) through a
live ``Interpreter``'s site cache, rotating blocks of four accesses
among the four kinds of shape.  Its baseline is not hand-copied:
``_unhooked_shape`` recompiles a generated closure's shape source with
the hook's ``if`` branches deleted, so the baseline differs from the
live code in the hook alone.  The attribution row keeps its
functional checks on an RCCE ``dot`` run: identical cycles and
output, exact conservation, and a critical path equal to the
makespan.

Protocol, for every row: the median hooked/baseline ratio of
``time.process_time`` over ``PAIRS`` alternating pairs, GC off.  The
workloads run on one host thread, so CPU time is wall time minus
preemption by unrelated load.  The detached row times each segment of
a pair separately and also reports the per-segment medians.

Usage::

    PYTHONPATH=src python benchmarks/bench_hooks.py   # BENCH_hooks.json
    pytest benchmarks/bench_hooks.py                  # gates + checks
"""

import ast
import gc
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench.harness import SCALED_ON_CHIP_CAPACITY  # noqa: E402
from repro.bench.programs import benchmark_source  # noqa: E402
from repro.bench.workloads import scaled_config  # noqa: E402
from repro.cfront import ctypes  # noqa: E402
from repro.cfront.frontend import parse_program  # noqa: E402
from repro.core.framework import TranslationFramework  # noqa: E402
from repro.scc.chip import SCCChip  # noqa: E402
from repro.scc.config import SCCConfig, Table61Config  # noqa: E402
from repro.sim import compile as sim_compile  # noqa: E402
from repro.sim.interpreter import Interpreter  # noqa: E402
from repro.sim.runner import run_pthread_single_core, run_rcce  # noqa: E402
from repro.sim.values import Pointer  # noqa: E402

PAIRS = 31
CEILING = 1.05
OUTPUT = os.path.join(ROOT, "BENCH_hooks.json")
ACCESSES = 1024         # per segment of the detached row's mix
SIDES = ("hooked", "baseline")
RACE_HOOK = {"_race"}
MEASURES = {
    "race_detached": "the load and store shapes of a local, a global, "
                     "*p and an array element with no detector attached "
                     "vs the same shapes minus the race branch, %d "
                     "accesses per segment" % ACCESSES,
    "attribution_enabled": "run_pthread_single_core (4 threads, mutex + "
                           "hot array) with full attribution vs the "
                           "plain run",
}

# Single-core pthread workload for the attribution row: a hot cached
# private array (the L1-hit fast path), a contended mutex (lock_spin
# hooks), thread create/join and context switches (sched_overhead
# hooks) -- every hook the single-core runner can fire.
PTHREAD_SOURCE = """
#include <stdio.h>
#include <pthread.h>

#define NTHREADS 4
#define N 256
#define ROUNDS 24

double hot[256];
double partial[4];
int counter;
pthread_mutex_t lock;

void *worker(void *tid) {
    int id = (int)tid;
    int chunk = N / NTHREADS;
    int lo = id * chunk;
    int j;
    int r;
    double local = 0.0;
    for (j = lo; j < lo + chunk; j++)
        hot[j] = 1.0 + j;
    for (r = 0; r < ROUNDS; r++) {
        for (j = lo; j < lo + chunk; j++)
            local += hot[j] * 0.5;
        pthread_mutex_lock(&lock);
        counter = counter + 1;
        pthread_mutex_unlock(&lock);
    }
    partial[id] = local;
    pthread_exit(NULL);
}

int main(void) {
    pthread_t th[4];
    int t;
    double total = 0.0;
    pthread_mutex_init(&lock, NULL);
    for (t = 0; t < NTHREADS; t++)
        pthread_create(&th[t], NULL, worker, (void *)t);
    for (t = 0; t < NTHREADS; t++)
        pthread_join(th[t], NULL);
    for (t = 0; t < NTHREADS; t++)
        total += partial[t];
    printf("%.1f %d\\n", total, counter);
    return 0;
}
"""


# -- baselines: the live source minus the hook --------------------------------


class _DeleteHook(ast.NodeTransformer):
    """Delete every ``if`` whose test reads one of ``names``; leave
    everything else as is."""

    def __init__(self, names):
        self.names = names

    def _reads(self, node):
        return any(getattr(sub, "id", None) in self.names
                   or getattr(sub, "attr", None) in self.names
                   for sub in ast.walk(node))

    def visit_If(self, node):
        self.generic_visit(node)
        if self._reads(node.test):
            return node.orelse or None
        return node


def _unhooked_shape(fn, names):
    """A closure generated from a ``repro.sim.compile`` shape, rebuilt
    from the shape's source with the hook deleted and bound to the
    same values."""
    make = next(make for make in sim_compile._SHAPES.values()
                if fn.__code__ in make.__code__.co_consts)
    tree = ast.fix_missing_locations(
        _DeleteHook(names).visit(ast.parse(make.source)))
    namespace = dict(make.__globals__)
    exec(compile(tree, sim_compile.__file__, "exec"), namespace)
    twin = namespace["make"]
    values = dict(zip(fn.__code__.co_freevars,
                      (cell.cell_contents for cell in fn.__closure__)))
    code = make.__code__
    return twin(*(values[name]
                  for name in code.co_varnames[:code.co_argcount]))


# -- the detached row: one access mix through a live site cache ---------------


def _mix(chip):
    """``{segment: [(addr, site, is_store)]}`` laid out in ``chip``.

    Private misses cycle eight lines through each of four L2 sets
    (4-way), so every access misses L1 and L2; the hit lines sit in
    other sets and stay in L1."""
    config = chip.config
    line = config.l2_line_size
    set_stride = config.l2_size // config.l2_assoc
    space = chip.address_space
    private = space.alloc_private(0, 8 * set_stride)
    shared = space.alloc_shared(4096)
    mpb = space.alloc_mpb(256)
    addresses = {
        "private_hit": lambda i: private.base + 4 * (i % 256),
        "private_miss": lambda i: (private.base + 2048 + line * (i % 4)
                                   + set_stride * (i // 4 % 8)),
        "shared": lambda i: shared.base + 4 * (i % 1024),
        "mpb": lambda i: mpb.base + 4 * (i % 64),
    }
    return {name: [(addr(i), 2 * index + (i % 4 == 3), i % 4 == 3)
                   for i in range(ACCESSES)]
            for index, (name, addr) in enumerate(addresses.items())}


_CO_INT = sim_compile.make_coercer(ctypes.INT)
_ONE = ("k", 1)
KINDS = ("local", "global", "pointer", "element")


def _pointer(I, F):
    """``p``, a compiled child: the pointer frame slot 1 holds."""
    return F[1]


def _shape(kind, is_store, site):
    """The closure compiled for a load or a store of 1 through ``x``,
    an ``int`` local in frame slot 0; ``g``, an ``int`` global; ``*p``,
    ``p`` an ``int *``; or ``g[0]``, ``g`` an ``int`` array."""
    with sim_compile._UNIT_CACHE_LOCK:
        if kind == "local":
            lv = ("l", 0, "x", False)
        elif kind == "global":
            lv = ("g", "g", False)
        elif kind == "element":
            lv = ("v", sim_compile._make_elem(("g", "g"), ("k", 0), 4),
                  False)
        elif is_store:
            lv = ("d", sim_compile._make_lv_deref(_pointer))
        else:
            return sim_compile._make_deref(("c", _pointer), site)
        if not is_store:
            return sim_compile._make_expr(lv + (site,))
        if lv[0] != "d":
            lv += (_CO_INT,)
        return sim_compile._make_expr(("set", lv, _ONE, site))


class _Side:
    """A live interpreter on a fresh chip, with one runner per mix
    segment.  Each access runs the shape that ``shape(kind, is_store,
    site)`` builds, after storing its address where the shape looks:
    frame slot 0 for a local, the interpreter's address of ``g`` for a
    global or an element, a pointer in frame slot 1 for ``*p``."""

    def __init__(self, shape):
        self.chip = SCCChip(SCCConfig())
        self.interp = Interpreter(
            parse_program("int main(void) { return 0; }"), self.chip)
        self.runners = {name: self._runner(accesses, shape)
                        for name, accesses in _mix(self.chip).items()}

    def _runner(self, accesses, shape):
        interp = self.interp
        frame = [0, None]
        shapes = {}
        plan = []
        for index, (addr, site, is_store) in enumerate(accesses):
            kind = KINDS[index // 4 % len(KINDS)]
            key = (kind, site)
            if key not in shapes:
                shapes[key] = shape(kind, is_store,
                                    site * len(KINDS) + KINDS.index(kind))
            if kind == "local":
                target, slot, value = frame, 0, addr
            elif kind == "pointer":
                target, slot, value = frame, 1, Pointer(addr, 4, ctypes.INT)
            else:
                target, slot, value = interp._global_addr, "g", addr
            plan.append((target, slot, value, shapes[key]))

        def run():
            for target, slot, value, closure in plan:
                target[slot] = value
                closure(interp, frame)
        return run


def _unhooked_race_shape(kind, is_store, site):
    return _unhooked_shape(_shape(kind, is_store, site), RACE_HOOK)


# the shape builder each side of the detached row runs
RACE_SHAPES = {"hooked": _shape, "baseline": _unhooked_race_shape}


def _detached_build():
    """Fresh warmed sides for every pair, built in the pair's order:
    where an object lands in memory moves a path's time by a few
    percent, so no one layout may favour either side."""
    def build(order):
        sides = {side: _Side(RACE_SHAPES[side]) for side in order}
        for side in sides.values():
            for run in side.runners.values():
                run()
        return {name: side.runners for name, side in sides.items()}
    return build


# -- the attribution row ------------------------------------------------------


def _run_pthread(unit, attribution):
    chip = SCCChip(Table61Config())
    return run_pthread_single_core(unit, chip.config, chip,
                                   attribution=attribution)


def _attribution_build():
    """Check attribution on RCCE ``dot`` x4 and on the pthread
    workload; time the pthread run with attribution on (hooked) and
    off (baseline)."""
    unit = TranslationFramework(
        on_chip_capacity=SCALED_ON_CHIP_CAPACITY,
        partition_policy="size").translate(
            benchmark_source("dot", 4, n=192)).unit

    def rcce(attribution):
        chip = SCCChip(scaled_config())
        return run_rcce(unit, 4, chip.config, chip,
                        max_steps=100_000_000, attribution=attribution)

    plain, attributed = rcce(False), rcce(True)
    assert attributed.cycles == plain.cycles
    assert attributed.per_core_cycles == plain.per_core_cycles
    assert attributed.stdout() == plain.stdout()
    report = attributed.attribution
    for core, classes in report.per_core.items():
        assert sum(classes.values()) == attributed.per_core_cycles[core]
    assert report.critical_path.path_length == report.makespan

    unit = parse_program(PTHREAD_SOURCE)
    plain = _run_pthread(unit, attribution=False)
    attributed = _run_pthread(unit, attribution=True)
    assert attributed.cycles == plain.cycles
    assert attributed.stdout() == plain.stdout()
    runners = {"hooked": {"run": lambda: _run_pthread(unit, True)},
               "baseline": {"run": lambda: _run_pthread(unit, False)}}
    return lambda order: runners


# -- the protocol -------------------------------------------------------------


def _timed_row(build):
    """Median hooked/baseline ``process_time`` ratios over ``PAIRS``
    pairs, overall and per segment.  ``build(order)`` returns
    ``{side: {segment: runner}}`` for both ``SIDES``.  Each segment
    runs hooked first in even pairs and baseline first in odd ones, so
    load drift hits both sides alike; the median shrugs off a pair a
    load spike hit."""
    ratios = {}
    totals = []
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        runners = build(order)
        spent = dict.fromkeys(SIDES, 0.0)
        gc.collect()
        gc.disable()
        try:
            for name in runners["hooked"]:
                times = {}
                for side in order:
                    start = time.process_time()
                    runners[side][name]()
                    times[side] = time.process_time() - start
                    spent[side] += times[side]
                ratios.setdefault(name, []).append(
                    times["hooked"] / times["baseline"])
        finally:
            gc.enable()
        totals.append((spent["hooked"], spent["baseline"]))
    return {
        "ratio": statistics.median(h / b for h, b in totals),
        "hooked_us": statistics.median(h for h, _ in totals) * 1e6,
        "baseline_us": statistics.median(b for _, b in totals) * 1e6,
        "segments": {name: statistics.median(values)
                     for name, values in ratios.items()},
    }


def measure():
    rows = {"race_detached": _timed_row(_detached_build())}
    row = _timed_row(_attribution_build())
    del row["segments"]
    row["checked"] = ("identical cycles and stdout on RCCE dot x4 and "
                      "the pthread run; exact conservation; critical "
                      "path == makespan")
    rows["attribution_enabled"] = row
    for name, text in MEASURES.items():
        rows[name]["measure"] = text
    return {
        "host_cpus": os.cpu_count() or 1,
        "ceiling": CEILING,
        "pairs": PAIRS,
        "protocol": "median hooked/baseline time.process_time ratio "
                    "over alternating pairs, GC off",
        "rows": rows,
    }


def _summary(report):
    parts = []
    for name, row in report["rows"].items():
        segments = row.get("segments")
        parts.append("%s %.3f" % (name, row["ratio"]) + (
            " (%s)" % ", ".join("%s %.3f" % item
                                for item in segments.items())
            if segments else ""))
    return "; ".join(parts) + " [host_cpus=%d]" % report["host_cpus"]


# -- pytest entry -------------------------------------------------------------


def test_hook_overhead_within_ceiling(results_dir):
    from conftest import write_result
    report = measure()
    write_result(results_dir, "hooks.txt", _summary(report))
    for name, row in report["rows"].items():
        assert row["ratio"] <= CEILING, (
            "%s overhead %.1f%% exceeds 5%%"
            % (name, (row["ratio"] - 1.0) * 100.0))


def test_baselines_do_the_live_work():
    """The detached baseline charges the cycles and leaves the chip
    counters of the live path; otherwise the row would time different
    work."""
    hooked, baseline = (_Side(shape) for shape in RACE_SHAPES.values())
    for side in (hooked, baseline):
        for run in side.runners.values():
            run()
    assert hooked.interp.cycles == baseline.interp.cycles
    assert hooked.chip.metrics.snapshot() == \
        baseline.chip.metrics.snapshot()


def test_mix_segments_take_their_paths():
    side = _Side(_shape)
    for run in side.runners.values():
        run()
    core = side.chip.cores[0]
    hits, misses = core.l1.stats.hits, core.l2.stats.misses
    steps = side.interp.steps
    side.runners["private_hit"]()
    side.runners["private_miss"]()
    assert core.l1.stats.hits - hits == ACCESSES
    assert core.l2.stats.misses - misses == ACCESSES
    # a block of three loads and a store is five steps (a load is one,
    # a store two: the assignment and its constant), thirteen for an
    # array element (its name and index count two more per access)
    assert side.interp.steps - steps == 2 * (ACCESSES // 16) * (3 * 5 + 13)


# -- script entry -------------------------------------------------------------


def main():
    report = measure()
    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("%s (ceiling %.2f) -> %s" % (_summary(report), CEILING, OUTPUT))
    return 0 if all(row["ratio"] <= CEILING
                    for row in report["rows"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
