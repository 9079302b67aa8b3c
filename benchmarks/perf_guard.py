"""Perf-regression guard over the committed benchmark reports.

Re-runs the workloads behind the committed ``BENCH_race.json``,
``BENCH_attr.json``, ``BENCH_parallel.json`` and ``BENCH_serve.json``
and fails when any of them regresses by more than 15% against its
committed number.  Interpreter dispatch speed is tracked end to end by
``sim_steps_per_s`` on the ``compute`` workload of ``BENCHMARK.json``.  Raw
wall seconds are not portable across machines, so each guard compares
the machine-relative quantity its report pins:

* ``BENCH_race.json`` — the disabled-mode hook ratio (hooked/plain
  load-store wall time).  Guard: current ratio <= committed x 1.15.
* ``BENCH_attr.json`` — the enabled-mode attribution ratio.  Guard:
  current ratio <= committed x 1.15.
* ``BENCH_parallel.json`` — the process backend's byte-identity flag
  (guarded on every host) and wall-clock speedup (guarded only when
  both the committed report and the current host have >= 4 CPUs —
  a single-CPU runner time-slices the workers and measures ~1x
  regardless of backend quality).
* ``BENCH_serve.json`` — the job service's byte-identity and
  memo-hit flags plus its supervision overhead ratio (pool-1
  service / direct, guarded on every host); pool throughput follows
  the same >= 4 CPU rule as the parallel speedup.

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
import bench_serve_throughput  # noqa: E402

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
    """Re-run the parallel smoke subset: byte-identity is guarded on
    every host; the committed speedup floor only where wall-clock
    parallelism is measurable (the committed report records its own
    ``host_cpus`` for the same reason)."""
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
    committed_cpus = committed.get("host_cpus") or 1
    if ok and cpus >= minimum and committed_cpus >= minimum:
        floor = committed["best_speedup"] / SLACK
        best = report["best_speedup"]
        ok = best >= floor
        message += (", smoke speedup %.2fx (committed best %.2fx, "
                    "floor %.2fx)" % (best, committed["best_speedup"],
                                      floor))
    elif ok:
        # the skip must say exactly what was not checked and why: a
        # green guard on a small runner must not read as "speedup OK"
        reasons = []
        if cpus < minimum:
            reasons.append("this host has %d CPU(s) < %d"
                           % (cpus, minimum))
        if committed_cpus < minimum:
            reasons.append("the committed report was measured on "
                           "%s CPU(s) < %d" % (committed_cpus,
                                               minimum))
        message += (", SKIPPED speedup floor %.2fx/%.2f: "
                    % (committed["best_speedup"], SLACK)
                    + " and ".join(reasons)
                    + " (byte-identity was still guarded)")
    return ok, message + _host_note()


def guard_serve():
    """Re-run the job-service batch: byte-identity and the memo are
    guarded on every host; the supervision overhead ratio (pool-1
    service wall / direct wall) is machine-relative, so it is guarded
    everywhere too — with the best of three runs, since fork-cost
    noise on a loaded host is strictly additive.  Pool throughput,
    like the parallel-backend speedup, needs real host parallelism
    and is only guarded where both the committed report and this host
    have >= 4 CPUs."""
    committed = _committed("BENCH_serve.json")
    runs = [bench_serve_throughput.measure() for _ in range(3)]
    identical = all(run["byte_identical"] for run in runs)
    cached = all(run["all_cached"] for run in runs)
    ratio = min(run["overhead_ratio"] for run in runs)
    bound = committed["overhead_ratio"] * SLACK
    ok = identical and cached and ratio <= bound
    message = ("serve byte_identical=%s all_cached=%s overhead "
               "ratio %.3f (committed %.3f, bound %.3f)"
               % (identical, cached, ratio,
                  committed["overhead_ratio"], bound))
    cpus = _host_cpus()
    minimum = bench_serve_throughput.MIN_HOST_CPUS
    committed_cpus = committed.get("host_cpus") or 1
    if ok and cpus >= minimum and committed_cpus >= minimum:
        floor = committed["jobs_per_second"] / SLACK
        best = max(run["jobs_per_second"] for run in runs)
        ok = best >= floor
        message += (", throughput %.2f jobs/s (committed %.2f, "
                    "floor %.2f)" % (best,
                                     committed["jobs_per_second"],
                                     floor))
    elif ok:
        # the skip must say exactly what was not checked and why
        reasons = []
        if cpus < minimum:
            reasons.append("this host has %d CPU(s) < %d"
                           % (cpus, minimum))
        if committed_cpus < minimum:
            reasons.append("the committed report was measured on "
                           "%s CPU(s) < %d" % (committed_cpus,
                                               minimum))
        message += (", SKIPPED throughput floor %.2f/%.2f: "
                    % (committed["jobs_per_second"], SLACK)
                    + " and ".join(reasons)
                    + " (byte-identity and overhead were still "
                    "guarded)")
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


def test_parallel_backend_has_not_regressed(results_dir):
    from conftest import write_result
    ok, message = guard_parallel()
    write_result(results_dir, "perf_guard_parallel.txt", message)
    assert ok, message


def test_serve_throughput_has_not_regressed(results_dir):
    from conftest import write_result
    ok, message = guard_serve()
    write_result(results_dir, "perf_guard_serve.txt", message)
    assert ok, message


# -- script entry ----------------------------------------------------------------


def main(argv=None):
    failures = 0
    for guard in (guard_race, guard_attr, guard_parallel, guard_serve):
        ok, message = guard()
        print(("PASS: " if ok else "FAIL: ") + message)
        failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
