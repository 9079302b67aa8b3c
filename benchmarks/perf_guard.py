"""Perf-regression guard over the committed benchmark reports.

Re-runs the workloads behind the committed ``BENCH_race.json``,
``BENCH_attr.json`` and ``BENCH_parallel.json`` and fails when any of
them regresses: the hook ratios by more than 15% against their
committed numbers, the parallel backend below its fixed speedup
gate.  Interpreter dispatch speed is tracked end to end by
``sim_steps_per_s`` on the ``compute`` workload of ``BENCHMARK.json``.  Raw
wall seconds are not portable across machines, so each guard compares
the machine-relative quantity its report pins:

* ``BENCH_race.json`` — the disabled-mode hook ratio (hooked/plain
  load-store wall time).  Guard: current ratio <= committed x 1.15.
* ``BENCH_attr.json`` — the enabled-mode attribution ratio.  Guard:
  current ratio <= committed x 1.15.
* ``BENCH_parallel.json`` — the process backend's byte-identity flag
  (guarded on every host, on the scaled smoke subset) and its
  wall-clock speedup: full-size LU at 2 workers, median of
  alternating passes, must reach 1.3x on hosts with >= 2 CPUs (a
  single-CPU runner time-slices the workers and measures ~1x
  regardless of backend quality).

Usage::

    pytest benchmarks/perf_guard.py            # the CI guard job
    PYTHONPATH=src python benchmarks/perf_guard.py
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_attr_overhead  # noqa: E402
import bench_parallel_speedup  # noqa: E402
import bench_race_overhead  # noqa: E402

SLACK = 1.15  # fail on >15% slowdown against the committed number
SMOKE_UES = 8


def _committed(name):
    with open(os.path.join(ROOT, name)) as handle:
        return json.load(handle)


def _host_cpus():
    return os.cpu_count() or 1


def _host_note():
    """Every guard report pins the host parallelism it measured on —
    a number that looks regressed is meaningless without it."""
    return " [host_cpus=%d]" % _host_cpus()


def guard_race():
    committed = _committed("BENCH_race.json")
    # the race bench times ~2000 accesses (sub-millisecond), so any
    # single measure() can catch a load spike; noise on this clock is
    # strictly additive, so the best of a few full measurements is
    # the faithful estimate
    ratio = min(bench_race_overhead.measure()["ratio"]
                for _ in range(3))
    bound = committed["ratio"] * SLACK
    ok = ratio <= bound
    return ok, ("race disabled-mode ratio %.3f (committed %.3f, "
                "bound %.3f)" % (ratio, committed["ratio"], bound)
                + _host_note())


def guard_attr():
    committed = _committed("BENCH_attr.json")
    current = bench_attr_overhead.measure()
    bound = committed["ratio"] * SLACK
    ok = current["ratio"] <= bound
    return ok, ("attr enabled-mode ratio %.3f (committed %.3f, "
                "bound %.3f)" % (current["ratio"], committed["ratio"],
                                 bound) + _host_note())


def guard_parallel():
    """Byte-identity on the scaled smoke subset, on every host; the
    speedup gate — full-size LU at ``GATE_JOBS`` workers, median of
    ``PASSES`` alternating passes, against the fixed
    ``SPEEDUP_FLOOR`` — only where wall-clock parallelism is
    measurable."""
    committed = _committed("BENCH_parallel.json")
    report = bench_parallel_speedup.measure(
        num_ues=SMOKE_UES, jobs_list=(1, 2, 4),
        workloads=dict(bench_parallel_speedup.SMOKE_WORKLOADS))
    ok = report["byte_identical"] and committed["byte_identical"]
    message = ("parallel byte_identical=%s (committed %s)"
               % (report["byte_identical"],
                  committed["byte_identical"]))
    cpus = _host_cpus()
    minimum = bench_parallel_speedup.MIN_HOST_CPUS
    floor = bench_parallel_speedup.SPEEDUP_FLOOR
    label = "%s speedup at jobs=%d" % (
        bench_parallel_speedup.GATE_WORKLOAD,
        bench_parallel_speedup.GATE_JOBS)
    if ok and cpus >= minimum:
        gate = bench_parallel_speedup.measure_gate()
        speedup = bench_parallel_speedup.gate_speedup(gate)
        ok = gate["byte_identical"] and speedup >= floor
        message += (", %s %.2fx (byte_identical=%s, median of %d "
                    "passes, floor %.2fx, committed %.2fx)"
                    % (label, speedup, gate["byte_identical"],
                       gate["passes"], floor,
                       bench_parallel_speedup.gate_speedup(committed)))
    elif ok:
        # the skip must say exactly what was not checked and why: a
        # green guard on a small runner must not read as "speedup OK"
        message += (", SKIPPED %s floor %.2fx: this host has %d "
                    "CPU(s) < %d (byte-identity was still guarded)"
                    % (label, floor, cpus, minimum))
    return ok, message + _host_note()


# -- pytest entry ---------------------------------------------------------------


def test_race_overhead_has_not_regressed(results_dir):
    from conftest import write_result
    ok, message = guard_race()
    write_result(results_dir, "perf_guard_race.txt", message)
    assert ok, message


def test_attr_overhead_has_not_regressed(results_dir):
    from conftest import write_result
    ok, message = guard_attr()
    write_result(results_dir, "perf_guard_attr.txt", message)
    assert ok, message


def test_parallel_speedup_has_not_regressed(results_dir):
    from conftest import write_result
    ok, message = guard_parallel()
    write_result(results_dir, "perf_guard_parallel.txt", message)
    assert ok, message


# -- script entry ----------------------------------------------------------------


def main(argv=None):
    failures = 0
    for guard in (guard_race, guard_attr, guard_parallel):
        ok, message = guard()
        print(("PASS: " if ok else "FAIL: ") + message)
        failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
