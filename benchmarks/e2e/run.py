"""End-to-end, layer-by-layer benchmark of translate + simulate.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload compute --seed 1
    python3 benchmarks/e2e/run.py --workload all --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --workload all --smoke

Each workload runs in a fresh worker process driven by one client in a
closed loop: a request starts only when the previous one has finished.
Untraced runs (``--trace 0``) issue requests for ``--seconds``, with
short host-calibration bursts between them, and report the end-to-end
metrics of ``BENCHMARK.json``.  Traced runs (``--trace 1``) run the
workload's count window once, then re-run its first requests under a
per-thread CPU profiler, and report the per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
table and ``benchmarks/e2e/results/*.json`` carry the rest.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("compute", "memory", "translate", "audited")

SETUP_SPAWNS = 10
CALIBRATION_OPS = 50_000        # about 8 ms on the reference host
CALIBRATION_INTERVAL_S = 0.1
DEADLINE_S = 170                # per workload; a run must end in 180 s


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources or a worker
    failure); no result is printed."""


# -- host calibration ----------------------------------------------------------


def _calibration_kernel(ops):
    # dict lookups, small-int arithmetic and calls: the operations the
    # interpreter's closures spend their time on
    table = {}
    total = 0

    def mix(value):
        return (value * 31 + 7) & 1023

    for i in range(ops):
        key = mix(i)
        total += table.get(key, 0)
        table[key] = total & 0xFFFF
    return total


def calibrate():
    """Host speed in million calibration operations per second."""
    start = time.perf_counter()
    _calibration_kernel(CALIBRATION_OPS)
    return CALIBRATION_OPS / (time.perf_counter() - start) / 1e6


class Calibration:
    """Host speed sampled between units of work.

    On a shared host the CPU's speed can flip between full and about
    half speed every few hundred milliseconds (other tenants), so a
    loop at pass boundaries misses most of it.  A short calibration
    burst runs whenever ``interval`` seconds of work have passed since
    the last one, and every unit of work in between gets ``factor`` =
    mean speed of the bursts on either side / reference speed.
    Calibrated seconds are raw seconds times ``factor``."""

    def __init__(self, reference_mops, interval=CALIBRATION_INTERVAL_S):
        self.reference = reference_mops
        self.interval = interval
        self.samples = [calibrate()]
        self._pending = []
        self._last = time.perf_counter()

    def add(self, item):
        """Queue a dict that will receive its ``factor``."""
        self._pending.append(item)
        if time.perf_counter() - self._last >= self.interval:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        self.samples.append(calibrate())
        factor = (self.samples[-2] + self.samples[-1]) / 2 / self.reference
        for item in self._pending:
            item["factor"] = factor
        self._pending = []
        self._last = time.perf_counter()


def load_host():
    with open(os.path.join(HERE, "host.json")) as handle:
        return json.load(handle)


# -- statistics ----------------------------------------------------------------


def percentile(values, fraction):
    """Nearest rank: the smallest value with at least ``fraction`` of
    the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def digest(entries):
    return hashlib.sha256(json.dumps(entries).encode("utf-8")).hexdigest()


def _ratio(part, whole):
    return part / whole if whole else 0.0


def end_to_end(records, sim_items, calibrated):
    """The timing metrics of one untraced run, pooled over its timed
    ``records``; the simulation rate comes from ``sim_items`` (dicts
    with ``steps`` and ``sim_wall``)."""
    def cost(item, key):
        return item[key] * (item["factor"] if calibrated else 1.0)

    latencies = [cost(record, "seconds") for record in records]
    return {
        "programs_per_s": len(latencies) / sum(latencies),
        "request_s.p50": percentile(latencies, 0.50),
        "request_s.p90": percentile(latencies, 0.90),
        # zero only when every request failed before simulating
        "sim_steps_per_s": _ratio(
            sum(item["steps"] for item in sim_items),
            sum(cost(item, "sim_wall") for item in sim_items)),
    }


# -- worker process ----------------------------------------------------------------


def _import_repro():
    """Put this checkout's ``src`` first on the path and make sure the
    ``repro`` imported is the one in it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError("no repro sources under %s" % SRC)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import repro
    if not os.path.realpath(repro.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        raise BenchmarkError("imported repro from %s, not %s"
                             % (repro.__file__, SRC))


def warm_up():
    """The cold-start work ``setup_s`` measures: imports plus one tiny
    translate + pthread + RCCE run."""
    _import_repro()
    from repro.bench.programs import benchmark_source
    from repro.core import TranslationFramework
    from repro.sim.runner import run_pthread_single_core, run_rcce
    source = benchmark_source("pi", 2, steps=16)
    translated = TranslationFramework().translate(source)
    run_pthread_single_core(source)
    run_rcce(translated.unit, 2)


class Worker:
    """Runs one workload inside the worker process."""

    def __init__(self, workload, seed, smoke):
        import workloads
        self.workloads = workloads
        self.pool = workloads.build_pool(workload, seed, smoke)
        self.stream = workloads.request_stream(self.pool, seed)
        self.tmpdir = os.path.join(RESULTS, "tmp-%d" % os.getpid())
        os.makedirs(self.tmpdir, exist_ok=True)
        self.runner = workloads.RequestRunner(self.tmpdir)
        self.requests = []        # (program, kind) in execution order
        self.records = []
        self.verified = {}        # label -> ok, for translate requests
        self.sim_items = []       # translate's correctness simulations
        self.window_rss_mb = None

    def close(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)

    def next_record(self, calibration):
        """Run the next request of the stream.  A ``translate`` request
        simulates nothing, so the first translation of each program is
        checked by simulating it, outside the request's latency."""
        program, kind = next(self.stream)
        self.requests.append((program, kind))
        record = self.runner.execute(len(self.records), program, kind)
        self.records.append(record)
        calibration.add(record)
        if kind == "translate" and record["ok"] and \
                program.label not in self.verified:
            item = self.runner.verify_translation(record, program)
            self.verified[program.label] = record["ok"]
            self.sim_items.append(item)
            calibration.add(item)
        elif self.verified.get(program.label) is False:
            record["ok"] = False
            record["error"] = "translated program printed a different " \
                              "answer"
        if len(self.records) == self.pool.window:
            # peak RSS over the count window, a fixed request list:
            # every compiled run of a fresh translation leaks its unit,
            # so a high-water mark over a timed run tracks host speed
            self.window_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return record

    # -- pieces shared by both modes ----------------------------------------

    def window_counts(self):
        window = self.records[:self.pool.window]
        counts = dict.fromkeys(self.workloads.COUNTS, 0)
        for record in window:
            for name, value in record["counts"].items():
                counts[name] += value
        log = [[record["index"], record["kind"], record["cycles"]]
               for record in window]
        return counts, digest(log)

    def layer_means(self, records):
        """Mean calibrated seconds per request spent in each layer."""
        return {layer: sum(record["layers"][layer] * record["factor"]
                           for record in records) / max(1, len(records))
                for layer in self.workloads.LAYERS}

    # -- untraced mode --------------------------------------------------------

    def run_timed(self, seconds, reference_mops):
        warm_up()
        calibration = Calibration(reference_mops)
        start = time.perf_counter()
        while True:
            self.next_record(calibration)
            if time.perf_counter() - start >= seconds:
                break
        calibration.flush()
        elapsed = time.perf_counter() - start
        timed = self.records[:]
        # translate's simulation rate comes from its correctness checks
        sim_items = self.sim_items[:] if self.pool.workload == "translate" \
            else timed
        while len(self.records) < self.pool.window:
            # a slow host: finish the count window, untimed
            self.next_record(calibration)
        calibration.flush()
        e2e = {label: end_to_end(timed, sim_items, calibrated)
               for label, calibrated in (("calibrated", True),
                                         ("raw", False))}
        for metrics in e2e.values():
            metrics["peak_rss_mb"] = self.window_rss_mb
        counts, cycles_digest = self.window_counts()
        return {
            "mode": "untraced", "e2e": e2e,
            "timed_requests": len(timed),
            "timed_seconds": elapsed,
            "layers": self.layer_means(timed),
            "counts": counts, "cycles_digest": cycles_digest,
            "calibration_mops": calibration.samples,
        }

    # -- traced mode ------------------------------------------------------------

    def run_traced(self, reference_mops):
        import hostprof
        from repro.obs.profile import PipelineProfiler
        warm_up()
        calibration = Calibration(reference_mops)
        for _ in range(self.pool.window):
            self.next_record(calibration)
        calibration.flush()
        window = self.records[:]
        subset = self.requests[:self.pool.traced]
        # the same requests, warm, without and then with the profiler
        start = time.perf_counter()
        for program, kind in subset:
            self.records.append(self.runner.execute(
                len(self.records), program, kind))
        untraced_wall = time.perf_counter() - start
        profiler = hostprof.ThreadProfiler()
        spans = PipelineProfiler()
        start = time.perf_counter()
        profiler.start()
        try:
            for program, kind in subset:
                self.records.append(self.runner.execute(
                    len(self.records), program, kind, spans))
        finally:
            profiler.stop()
        traced_wall = time.perf_counter() - start
        # spans the whole traced part; its samples bracket it
        before = calibration.samples[-1]
        calibration.samples.append(calibrate())
        trace_factor = (before + calibration.samples[-1]) / 2 \
            / reference_mops
        table = hostprof.BucketTable(os.path.join(SRC, "repro"))
        totals = dict.fromkeys(hostprof.BUCKETS, 0.0)
        for stats in profiler.drain_threads() + [profiler.main_stats()]:
            hostprof.bucket_self_times(stats, table, totals)
        busy = sum(totals.values())
        trace_doc = {
            "workload": self.pool.workload,
            "self_seconds": totals,
            "spans": hostprof.flatten_spans(spans),
        }
        counts, cycles_digest = self.window_counts()
        host_wait = sum((r["sim_wall"] - r["sim_cpu"]) * r["factor"]
                        for r in window)
        return {
            "mode": "traced",
            "layers": self.layer_means(window),
            "counts": counts, "cycles_digest": cycles_digest,
            "self_s": {bucket: seconds * trace_factor / len(subset)
                       for bucket, seconds in totals.items()},
            "host_wait_s": host_wait / len(window),
            "overhead_ratio": traced_wall / untraced_wall,
            "named_share": 1.0 - totals[hostprof.HOST_OTHER] / busy
            if busy else 0.0,
            "calibration_mops": calibration.samples,
            "trace_doc": trace_doc,
        }

    def outcome(self):
        failed = [record for record in self.records if not record["ok"]]
        return {
            "attempted": len(self.records),
            "failed": len(failed),
            "errors": [{"index": r["index"], "label": r["label"],
                        "kind": r["kind"], "error": r["error"]}
                       for r in failed[:20]],
            "requests": [[r["label"], r["kind"]]
                         for r in self.records[:self.pool.window]],
        }


def worker_main(args):
    _import_repro()
    host = load_host()
    worker = Worker(args.worker, args.seed, args.smoke)
    try:
        if args.trace:
            result = worker.run_traced(host["reference_calib_mops"])
        else:
            result = worker.run_timed(args.seconds,
                                      host["reference_calib_mops"])
        result.update(worker.outcome())
    finally:
        worker.close()
    print(json.dumps(result))


# -- parent process ------------------------------------------------------------


def _spawn(argv, deadline):
    """Run this script with ``argv`` in a child process, killing it at
    ``deadline`` (a ``time.monotonic()`` value)."""
    try:
        return subprocess.run(
            [sys.executable, os.path.abspath(__file__)] + argv, cwd=ROOT,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError("%s ran past the %d s deadline"
                             % (" ".join(argv), DEADLINE_S)) from None


def measure_setup(spawns, reference_mops, deadline):
    """Median calibrated wall time of fresh processes doing the cold
    start; returns ``(calibrated, raw, samples)``."""
    _spawn(["--probe"], deadline)      # writes byte-code caches
    calibration = Calibration(reference_mops, interval=0.0)
    samples = []
    for _ in range(spawns):
        start = time.perf_counter()
        done = _spawn(["--probe"], deadline)
        sample = {"seconds": time.perf_counter() - start}
        if done.returncode != 0:
            raise BenchmarkError("set-up probe failed:\n" + done.stderr)
        samples.append(sample)
        calibration.add(sample)
    return (statistics.median(s["seconds"] * s["factor"] for s in samples),
            statistics.median(s["seconds"] for s in samples),
            [s["seconds"] for s in samples])


def run_worker(workload, args, deadline):
    argv = ["--worker", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    done = _spawn(argv, deadline)
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError("%s worker failed (exit %d):\n%s"
                             % (workload, done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def per_layer_metrics(result):
    counts = result["counts"]
    layers = result["layers"]
    metrics = {
        "cfront.parse_s": layers["parse"],
        "core.translate_s": layers["translate"],
        "cfront.codegen_s": layers["codegen"],
        "static.check_s": layers["static"],
        "sim.compile_s": layers["compile"],
        "sim.simulate_pthread_s": layers["simulate_pthread"],
        "sim.simulate_rcce_s": layers["simulate_rcce"],
        "bench.verify_s": layers["verify"],
        "cfront.parse_cache_hit_ratio": _ratio(counts["cfront.parse_hits"],
                                               counts["cfront.parse_calls"]),
        "scc.cache_hit_ratio": _ratio(
            counts["scc.cache_hits"],
            counts["scc.cache_hits"] + counts["scc.cache_misses"]),
        "bench.error_rate": _ratio(result["failed"], result["attempted"]),
    }
    for name, value in counts.items():
        if name != "cfront.parse_hits":
            metrics[name] = value
    if result["mode"] == "traced":
        for bucket, seconds in result["self_s"].items():
            name = bucket + ("_self_s" if "." in bucket else ".self_s")
            metrics[name] = seconds
        metrics["sim.host_wait_s"] = result["host_wait_s"]
        metrics["trace.overhead_ratio"] = result["overhead_ratio"]
        metrics["trace.named_share"] = result["named_share"]
        metrics["host.calib_mops"] = statistics.mean(
            result["calibration_mops"])
    return metrics


def run_workload(workload, args, bench, host):
    deadline = time.monotonic() + DEADLINE_S
    setup = None
    if not args.trace:
        setup = measure_setup(2 if args.smoke else SETUP_SPAWNS,
                              host["reference_calib_mops"], deadline)
    result = run_worker(workload, args, deadline)
    layer_metrics = per_layer_metrics(result)
    if args.trace:
        names = [spec["name"] for spec in bench["per_layer"]]
        reported = {name: layer_metrics[name] for name in names}
    else:
        result["e2e"]["calibrated"]["setup_s"] = setup[0]
        result["e2e"]["raw"]["setup_s"] = setup[1]
        result["setup_samples_s"] = setup[2]
        names = [spec["name"] for spec in bench["end_to_end"]]
        reported = {name: result["e2e"]["calibrated"][name]
                    for name in names}
    result["workload"] = workload
    result["seed"] = args.seed
    result["per_layer"] = layer_metrics
    result["reported"] = reported
    return result


def print_report(result, bench):
    units = {spec["name"]: spec["unit"]
             for spec in bench["end_to_end"] + bench["per_layer"]}
    print("== %s (seed %s, %s) : %d requests, %d failed =="
          % (result["workload"], result["seed"], result["mode"],
             result["attempted"], result["failed"]))
    if result["mode"] == "untraced":
        print("%d timed requests in %.1f s, one client in a closed loop"
              % (result["timed_requests"], result["timed_seconds"]))
        print("%-26s %14s %14s  %s" % ("end-to-end", "calibrated", "raw",
                                       "unit"))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            print("%-26s %14.6g %14.6g  %s"
                  % (name, result["e2e"]["calibrated"][name],
                     result["e2e"]["raw"][name], spec["unit"]))
        print("error_rate %.4f (%d / %d)"
              % (_ratio(result["failed"], result["attempted"]),
                 result["failed"], result["attempted"]))
    print("%-26s %14s  %s" % ("per-layer", "value", "unit"))
    for name, value in result["per_layer"].items():
        print("%-26s %14.6g  %s" % (name, value, units.get(name, "")))
    print("sim.cycles_digest %s" % result["cycles_digest"])
    for error in result["errors"]:
        print("FAILED request %(index)d %(label)s (%(kind)s): %(error)s"
              % error)


def write_result(result):
    os.makedirs(RESULTS, exist_ok=True)
    name = result["workload"] + (".traced" if result["mode"] == "traced"
                                 else "")
    trace_doc = result.pop("trace_doc", None)
    if trace_doc is not None:
        with open(os.path.join(RESULTS, "trace-%s.json"
                               % result["workload"]), "w") as handle:
            json.dump(trace_doc, handle, indent=1)
    with open(os.path.join(RESULTS, name + ".json"), "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)


def summary_line(results, bench):
    units = {spec["name"]: spec["unit"]
             for spec in bench["end_to_end"] + bench["per_layer"]}
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name, value in result["reported"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(result["failed"] for result in results)
    return {"correct": failed == 0,
            "attempted": sum(result["attempted"] for result in results),
            "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES + ("all",),
                        help="workload to run (repeatable; 'all' runs "
                        "the four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured seconds per untraced workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools and runs, for tests")
    parser.add_argument("--baseline", action="store_true",
                        help="run every workload untraced and traced and "
                        "write results/baseline.json")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    names = args.workload or ["all"]
    args.workloads = list(WORKLOAD_NAMES) if "all" in names \
        else list(dict.fromkeys(names))
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.probe:
            warm_up()
            return 0
        if args.worker:
            worker_main(args)
            return 0
        _import_repro()          # fail fast when the sources are missing
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        host = load_host()
        modes = (0, 1) if args.baseline else (args.trace,)
        baseline = {"seed": args.seed, "host_cpus": os.cpu_count(),
                    "reference_calib_mops": host["reference_calib_mops"],
                    "workloads": {}}
        results = []
        for mode in modes:
            args.trace = mode
            results = []
            for workload in args.workloads:
                result = run_workload(workload, args, bench, host)
                print_report(result, bench)
                write_result(result)
                results.append(result)
                baseline["workloads"].setdefault(workload, {})[
                    result["mode"]] = result
        if args.baseline:
            with open(os.path.join(RESULTS, "baseline.json"),
                      "w") as handle:
                json.dump(baseline, handle, indent=1, sort_keys=True)
    except BenchmarkError as exc:
        print("e2e benchmark: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(summary_line(results, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
