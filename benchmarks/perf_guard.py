"""Perf-regression guard over the committed hook-overhead report.

Re-runs the workloads behind the committed ``BENCH_hooks.json`` and
fails when a hook ratio regresses by more than 15% against its
committed number.  Interpreter dispatch speed is tracked end to end by
``sim_steps_per_s`` on the ``compute`` workload of ``BENCHMARK.json``.
Raw wall seconds are not portable across machines, so the guard
compares the machine-relative quantity the report pins:

* ``BENCH_hooks.json`` -- each row's hooked/baseline ratio
  (attribution enabled).  Guard: current ratio <= committed x 1.15.

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

import bench_hooks  # noqa: E402

SLACK = 1.15  # fail on >15% slowdown against the committed number


def _committed(name):
    with open(os.path.join(ROOT, name)) as handle:
        return json.load(handle)


def _host_note():
    """Every guard report pins the host parallelism it measured on —
    a number that looks regressed is meaningless without it."""
    return " [host_cpus=%d]" % (os.cpu_count() or 1)


def guard_hooks():
    committed = _committed("BENCH_hooks.json")["rows"]
    current = bench_hooks.measure()["rows"]
    ok = True
    parts = []
    for name, row in committed.items():
        ratio = current[name]["ratio"]
        bound = row["ratio"] * SLACK
        ok = ok and ratio <= bound
        parts.append("%s %.3f (committed %.3f, bound %.3f)"
                     % (name, ratio, row["ratio"], bound))
    return ok, "hook ratios: " + "; ".join(parts) + _host_note()


# -- pytest entry ---------------------------------------------------------------


def test_hook_overhead_has_not_regressed(results_dir):
    from conftest import write_result
    ok, message = guard_hooks()
    write_result(results_dir, "perf_guard_hooks.txt", message)
    assert ok, message


# -- script entry ----------------------------------------------------------------


def main(argv=None):
    ok, message = guard_hooks()
    print(("PASS: " if ok else "FAIL: ") + message)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
