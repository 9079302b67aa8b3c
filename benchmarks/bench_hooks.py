"""Hook-overhead contract: one row per hook, one timing protocol.

Cycle attribution stays wired into every simulated run on one promise:
its hooks cost at most 1.05x.  The row times the code runs execute,
hooked against a baseline:

* ``attribution_enabled`` -- a single-core pthread run with full cycle
  attribution, against the plain run.

The row keeps its functional checks on an RCCE ``dot`` run: identical
cycles and output, exact conservation, and a critical path equal to
the makespan.

The race detector has no row: when none is attached, its recorder is
not on the load/store path at all (``Interpreter._fill_site`` and
``_fill_scalar`` bind it into the site-cache and scalar entries only
when a detector is attached), so a
detached run executes the same code as one without the hook.
``tests/race/test_detached.py`` pins that.

Protocol: the median hooked/baseline ratio of ``time.process_time``
over ``PAIRS`` alternating pairs, GC off.  The workload runs on one
host thread, so CPU time is wall time minus preemption by unrelated
load.

Usage::

    PYTHONPATH=src python benchmarks/bench_hooks.py   # BENCH_hooks.json
    pytest benchmarks/bench_hooks.py                  # gate + checks
"""

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
from repro.cfront.frontend import parse_program  # noqa: E402
from repro.core.framework import TranslationFramework  # noqa: E402
from repro.scc.chip import SCCChip  # noqa: E402
from repro.scc.config import Table61Config  # noqa: E402
from repro.sim.runner import run_pthread_single_core, run_rcce  # noqa: E402

PAIRS = 31
CEILING = 1.05
OUTPUT = os.path.join(ROOT, "BENCH_hooks.json")
SIDES = ("hooked", "baseline")

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
    return {"hooked": lambda: _run_pthread(unit, True),
            "baseline": lambda: _run_pthread(unit, False)}


# -- the protocol -------------------------------------------------------------


def _timed_row(runners):
    """Median hooked/baseline ``process_time`` ratio over ``PAIRS``
    pairs of ``runners`` (``{side: runner}`` for both ``SIDES``).  The
    hooked side runs first in even pairs and the baseline first in odd
    ones, so load drift hits both sides alike; the median shrugs off a
    pair a load spike hit."""
    pairs = []
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        times = {}
        gc.collect()
        gc.disable()
        try:
            for side in order:
                start = time.process_time()
                runners[side]()
                times[side] = time.process_time() - start
        finally:
            gc.enable()
        pairs.append((times["hooked"], times["baseline"]))
    return {
        "ratio": statistics.median(h / b for h, b in pairs),
        "hooked_us": statistics.median(h for h, _ in pairs) * 1e6,
        "baseline_us": statistics.median(b for _, b in pairs) * 1e6,
    }


def measure():
    row = _timed_row(_attribution_build())
    row["checked"] = ("identical cycles and stdout on RCCE dot x4 and "
                      "the pthread run; exact conservation; critical "
                      "path == makespan")
    row["measure"] = ("run_pthread_single_core (4 threads, mutex + hot "
                      "array) with full attribution vs the plain run")
    return {
        "host_cpus": os.cpu_count() or 1,
        "ceiling": CEILING,
        "pairs": PAIRS,
        "protocol": "median hooked/baseline time.process_time ratio "
                    "over alternating pairs, GC off",
        "rows": {"attribution_enabled": row},
    }


def _summary(report):
    return "; ".join("%s %.3f" % (name, row["ratio"])
                     for name, row in report["rows"].items()) \
        + " [host_cpus=%d]" % report["host_cpus"]


# -- pytest entry -------------------------------------------------------------


def test_hook_overhead_within_ceiling(results_dir):
    from conftest import write_result
    report = measure()
    write_result(results_dir, "hooks.txt", _summary(report))
    for name, row in report["rows"].items():
        assert row["ratio"] <= CEILING, (
            "%s overhead %.1f%% exceeds 5%%"
            % (name, (row["ratio"] - 1.0) * 100.0))


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
