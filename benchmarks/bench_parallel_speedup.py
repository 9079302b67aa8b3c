"""Parallel host backend: wall-clock speedup vs worker count.

Runs the LU and Stream workloads (full Fig. 6.1 sizes, 32 UEs) under
the process backend at 1, 2 and 4 workers, times the end-to-end
``run_rcce`` call, verifies the byte-identity contract (cycles,
per-core cycles, and stdout must match the sequential run exactly),
and writes a machine-readable report to ``BENCH_parallel.json`` at the
repo root.

Full mode times ``PASSES`` alternating passes (each pass runs every
worker count once, so host drift hits every mode alike) and reports
the median wall time per worker count; the speedup is the median
sequential wall over the median parallel wall.

Wall-clock speedup is a property of the *host*: a single-CPU runner
time-slices the workers and measures ~1x no matter how good the
backend is, so the report records ``host_cpus`` and the gate
(>= 1.3x for LU at 2 workers) is only asserted when the host has at
least 2 CPUs.  The byte-identity flag is asserted unconditionally —
that is the part no host can excuse.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py           # full set
    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py --smoke   # CI subset
    pytest benchmarks/bench_parallel_speedup.py                          # smoke test
"""

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench.harness import ExperimentHarness  # noqa: E402
from repro.bench.workloads import Workload  # noqa: E402
from repro.sim.runner import run_rcce  # noqa: E402

BENCHMARKS = ("lu", "stream")
JOBS = (1, 2, 4)
DEFAULT_OUTPUT = os.path.join(ROOT, "BENCH_parallel.json")

PASSES = 5                 # full mode: median of this many passes
GATE_WORKLOAD = "lu"
GATE_JOBS = 2
SPEEDUP_FLOOR = 1.3        # LU at 2 workers, multicore hosts only
MIN_HOST_CPUS = 2          # below this the floor cannot be measured

SMOKE_WORKLOADS = {
    "lu": Workload("lu", {"batch": 4, "dim": 8},
                   4 * 8 * 8 * 8 + 32 * 8),
    "stream": Workload("stream", {"n": 128}, 3 * 128 * 8 + 32 * 8),
}


def _signature(result):
    return (result.cycles, dict(result.per_core_cycles),
            result.stdout())


def measure(benchmarks=BENCHMARKS, num_ues=32, jobs_list=JOBS,
            workloads=None, max_steps=500_000_000, passes=1):
    """Time ``run_rcce`` for each benchmark at each worker count,
    ``passes`` alternating times.

    jobs=1 (the sequential engine) is the baseline for both the
    speedup and the byte-identity check; every timed run is
    byte-compared against the first sequential one.
    """
    harness = ExperimentHarness(num_ues=num_ues, workloads=workloads,
                                max_steps=max_steps)
    report_workloads = {}
    byte_identical = True
    for name in benchmarks:
        source = harness.framework("size").translate(
            harness.source_for(name)).rcce_source
        walls = {jobs: [] for jobs in jobs_list}
        identical = {jobs: True for jobs in jobs_list}
        reconciliations = {}
        baseline = None
        for _ in range(passes):
            for jobs in jobs_list:
                chip = harness._fresh_chip()
                start = time.perf_counter()
                result = run_rcce(source, num_ues, chip.config, chip,
                                  max_steps=max_steps, jobs=jobs)
                walls[jobs].append(time.perf_counter() - start)
                signature = _signature(result)
                if baseline is None:
                    baseline = signature
                identical[jobs] = identical[jobs] \
                    and signature == baseline
                reconciliations[jobs] = \
                    (result.stats.get("parallel") or {}).get(
                        "reconciliations", 0)
        sequential = statistics.median(walls[jobs_list[0]])
        rows = {}
        for jobs in jobs_list:
            median = statistics.median(walls[jobs])
            byte_identical = byte_identical and identical[jobs]
            rows[str(jobs)] = {
                "wall_seconds": median,
                "wall_range": [min(walls[jobs]), max(walls[jobs])],
                "speedup": sequential / median,
                "byte_identical": identical[jobs],
                "reconciliations": reconciliations[jobs],
            }
        report_workloads[name] = {
            "cycles": baseline[0],
            "jobs": rows,
        }
    best = max(row["speedup"]
               for entry in report_workloads.values()
               for row in entry["jobs"].values())
    return {
        "benchmarks": list(benchmarks),
        "num_ues": num_ues,
        "jobs": list(jobs_list),
        "passes": passes,
        "host_cpus": os.cpu_count(),
        "measure": "end-to-end run_rcce wall seconds (translation "
                   "excluded), median of alternating passes; jobs=1 "
                   "sequential engine is the baseline",
        "byte_identical": byte_identical,
        "best_speedup": best,
        "workloads": report_workloads,
    }


def measure_gate():
    """Full-size LU at jobs 1 and ``GATE_JOBS``, ``PASSES`` alternating
    passes — the measurement the speedup gate reads."""
    return measure(benchmarks=(GATE_WORKLOAD,),
                   jobs_list=(1, GATE_JOBS), passes=PASSES)


def gate_speedup(report):
    """The gated speedup: LU at ``GATE_JOBS`` workers."""
    return report["workloads"][GATE_WORKLOAD]["jobs"][str(GATE_JOBS)][
        "speedup"]


def render(report):
    lines = ["%-10s %6s %12s %17s %8s %10s"
             % ("workload", "jobs", "median s", "range s", "speedup",
                "identical")]
    for name, entry in report["workloads"].items():
        for jobs, row in entry["jobs"].items():
            low, high = row["wall_range"]
            lines.append("%-10s %6s %12.3f %8.3f-%-8.3f %7.2fx %10s" % (
                name, jobs, row["wall_seconds"], low, high,
                row["speedup"], row["byte_identical"]))
    lines.append("host cpus: %s  passes: %d  byte_identical: %s  "
                 "best: %.2fx"
                 % (report["host_cpus"], report["passes"],
                    report["byte_identical"], report["best_speedup"]))
    return "\n".join(lines)


# -- pytest entry (smoke scale) -------------------------------------------------


def test_parallel_smoke(tmp_path):
    report = measure(num_ues=8, jobs_list=(1, 2, 4),
                     workloads=dict(SMOKE_WORKLOADS))
    (tmp_path / "BENCH_parallel.json").write_text(
        json.dumps(report, indent=2))
    assert report["byte_identical"]


# -- script entry ----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI subset: scaled sizes at 8 UEs, "
                        "byte-identity only")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT,
                        help="report path (default %s)" % DEFAULT_OUTPUT)
    parser.add_argument("--ues", type=int, default=None,
                        help="override the UE count")
    args = parser.parse_args(argv)

    if args.smoke:
        report = measure(num_ues=args.ues or 8, jobs_list=(1, 2, 4),
                         workloads=dict(SMOKE_WORKLOADS))
        report["mode"] = "smoke"
    else:
        report = measure(num_ues=args.ues or 32, passes=PASSES)
        report["mode"] = "full"
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render(report))
    print("report written to %s" % args.output)
    if not report["byte_identical"]:
        print("FAIL: parallel run diverged from the sequential engine")
        return 1
    cpus = report["host_cpus"] or 1
    if not args.smoke and cpus >= MIN_HOST_CPUS:
        speedup = gate_speedup(report)
        if speedup < SPEEDUP_FLOOR:
            print("FAIL: %s %.2fx at %d workers < %.1fx floor"
                  % (GATE_WORKLOAD, speedup, GATE_JOBS, SPEEDUP_FLOOR))
            return 1
        print("PASS: %s %.2fx at %d workers >= %.1fx floor"
              % (GATE_WORKLOAD, speedup, GATE_JOBS, SPEEDUP_FLOOR))
    elif not args.smoke:
        print("NOTE: host has %d cpu(s); the %.1fx floor needs >= %d "
              "and was not asserted" % (cpus, SPEEDUP_FLOOR,
                                        MIN_HOST_CPUS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
