"""Checks of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` from the
repository root; the smoke runs keep the whole file under a minute.
"""

import json
import os
import subprocess
import sys

import pytest

import hostprof
import run
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def smoke(seed, trace=0, names=("all",)):
    """Run the benchmark at ``--smoke``; return its summary line and
    the per-workload result files it wrote."""
    argv = [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
            "--seed", str(seed), "--trace", str(trace)]
    for name in names:
        argv += ["--workload", name]
    done = subprocess.run(argv, cwd=run.ROOT, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    results = {}
    for name in run.WORKLOAD_NAMES:
        suffix = ".traced" if trace else ""
        path = os.path.join(run.RESULTS, name + suffix + ".json")
        if os.path.exists(path):
            with open(path) as handle:
                results[name] = json.load(handle)
    return summary, results


def test_same_seed_repeats_counts_and_cycles_digest():
    first_summary, first = smoke(5)
    second_summary, second = smoke(5)
    for summary in (first_summary, second_summary):
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] >= len(run.WORKLOAD_NAMES)
    for name in run.WORKLOAD_NAMES:
        assert first[name]["requests"] == second[name]["requests"]
        assert first[name]["counts"] == second[name]["counts"]
        assert first[name]["cycles_digest"] == \
            second[name]["cycles_digest"]
        assert first[name]["counts"]["sim.steps"] > 0


def test_traced_run_reports_every_per_layer_metric():
    summary, results = smoke(5, trace=1, names=("audited",))
    with open(BENCHMARK) as handle:
        names = [spec["name"] for spec in json.load(handle)["per_layer"]]
    assert list(summary["metrics"]) == names
    assert set(results["audited"]["per_layer"]) == set(names)
    assert summary["metrics"]["trace.named_share"]["value"] >= 0.95
    with open(os.path.join(run.RESULTS, "trace-audited.json")) as handle:
        spans = json.load(handle)["spans"]
    roots = [span for span in spans if span["parent"] is None]
    assert roots and all(span["name"] == "request" for span in roots)
    names_seen = {span["name"] for span in spans}
    assert {"parse", "translate", "codegen", "simulate_rcce",
            "verify"} <= names_seen
    assert any(name.startswith("stage5") for name in names_seen)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_another_seed_changes_the_request_list(workload):
    def labels(seed):
        pool = workloads.build_pool(workload, seed)
        stream = workloads.request_stream(pool, seed)
        return [(program.label, kind)
                for program, kind in (next(stream)
                                      for _ in range(pool.window))]

    assert labels(1) == labels(1)
    assert labels(1) != labels(2)


def test_wrong_reference_is_a_failure_not_a_crash(tmp_path):
    pool = workloads.build_pool("compute", 1, smoke=True)
    program = pool.strata[0][0]
    program.expected = "pi = 3.000000\n"
    runner = workloads.RequestRunner(str(tmp_path))
    record = runner.execute(0, program, "compare")
    assert record["ok"] is False
    assert "differs from the reference" in record["error"]
    assert record["counts"]["sim.steps"] > 0


def test_bucket_table_maps_every_repro_module():
    repro_root = os.path.join(run.SRC, "repro")
    unmapped = []
    for directory, _, files in os.walk(repro_root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                bucket = hostprof.bucket_of_file(path, repro_root)
                if bucket not in hostprof.BUCKETS or \
                        bucket == hostprof.HOST_OTHER:
                    unmapped.append(path)
    assert unmapped == []
    assert hostprof.bucket_of_file(os.__file__, repro_root) is None
    expected = {"sim/interpreter.py": "sim.dispatch",
                "sim/compile.py": "sim.dispatch",
                "sim/runner.py": "sim.runner",
                "scc/cache.py": "scc.cache", "scc/chip.py": "scc.chip",
                "rcce/api.py": "rcce", "static/lockset.py": "static",
                "faults.py": "faults", "serve/daemon.py": "repro.other"}
    for rel, bucket in expected.items():
        assert hostprof.bucket_of_file(os.path.join(repro_root, rel),
                                       repro_root) == bucket
