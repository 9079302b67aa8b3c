"""The four workloads: seeded program pools, the request stream, and
the execution of one request with per-layer timing and counts.

Every request goes through the public entry points a user of
``repro`` calls, in the order ``repro run``/``translate``/``check``
call them, and each layer is timed from outside around its call.
Engine, job and backend arguments are left at their defaults.
"""

import contextlib
import gc
import os
import random
import time
import traceback

from repro.bench.programs import EXAMPLE_4_1, STREAM_KERNELS, \
    benchmark_source, stream_kernel
from repro.bench.workloads import SCALED_ON_CHIP_CAPACITY, scaled_config
from repro.cfront import codegen
from repro.cfront.frontend import parse_cache_info, parse_program, \
    parse_program_uncached
from repro.core import TranslationFramework
from repro.obs.attribution import AttributionEngine
from repro.recovery import RecoveryOptions
from repro.scc.chip import SCCChip
from repro.sim.compile import compile_unit
from repro.sim.runner import run_pthread_single_core, run_rcce, \
    run_rcce_supervised

import reference
import synth

LAYERS = ("parse", "translate", "codegen", "static", "compile",
          "simulate_pthread", "simulate_rcce", "verify")
POLICIES = ("off-chip-only", "size")        # rcce-off, rcce-on

# per-request counts, named after the module that does the work; the
# right-hand side is the metrics-registry series summed over labels
_REGISTRY_COUNTS = {
    "sim.steps": "sim_steps",
    "scc.core_accesses": "scc_core_accesses",
    "scc.cache_hits": "scc_cache_hits",
    "scc.cache_misses": "scc_cache_misses",
    "scc.cache_evictions": "scc_cache_evictions",
    "scc.dram_reads": "scc_dram_reads",
    "scc.dram_writes": "scc_dram_writes",
    "scc.dram_busy_cycles": "scc_dram_busy_cycles",
    "scc.mpb_reads": "scc_mpb_reads",
    "scc.mpb_writes": "scc_mpb_writes",
    "scc.mpb_bytes_moved": "scc_mpb_bytes_moved",
    "rcce.barrier_rounds": "rcce_barrier_rounds",
    "rcce.messages_sent": "rcce_messages_sent",
    "rcce.lock_contentions": "rcce_lock_contentions",
    "rcce.mpb_fallbacks": "rcce_mpb_fallbacks",
    "rcce.put_bytes": "rcce_put_bytes",
    "rcce.get_bytes": "rcce_get_bytes",
    "faults.injections": "fault_injections",
    "recovery.checkpoints": "checkpoints_captured",
    "recovery.restarts": "recovery_restarts",
    "recovery.ecc_corrected": "ecc_corrected",
}
COUNTS = ("cfront.source_bytes", "cfront.parse_calls", "cfront.parse_hits",
          "core.rcce_bytes", "core.shared_vars", "core.onchip_bytes",
          "core.offchip_bytes", "static.findings",
          "static.lockset_suppressed", "sim.compile_fallbacks",
          "sim.tree_engine_runs", "sim.cycles", "race.checks",
          "race.findings") + tuple(_REGISTRY_COUNTS)


class Program:
    """One pool entry: a pthreads source, how to run it, and the stdout
    the reference says it must print."""

    __slots__ = ("label", "source", "ues", "policy", "expected",
                 "rcce_expected", "faults", "crash")

    def __init__(self, label, source, ues, policy, expected,
                 rcce_expected):
        self.label = label
        self.source = source
        self.ues = ues
        self.policy = policy
        self.expected = expected              # pthread baseline stdout
        self.rcce_expected = rcce_expected    # translated, on ``ues`` UEs
        self.faults = None        # chip fault spec for "faults" requests
        self.crash = None         # core_crash spec for "supervised" ones


class Pool:
    """The distinct programs of one workload, grouped into strata, and
    the rotation of (stratum, request kind) the request stream follows.
    Rotating over strata keeps the mix of programs the same in every
    stretch of requests, whatever the seed."""

    def __init__(self, workload, strata, rotation, window, traced):
        self.workload = workload
        self.strata = strata
        self.rotation = rotation
        self.window = window      # requests whose counts are reported
        self.traced = traced      # of those, requests re-run profiled


def _kernel(name, nthreads, policy, **sizes):
    if name == "example_4_1":
        source = EXAMPLE_4_1
    elif name in STREAM_KERNELS:
        source = stream_kernel(name, nthreads, **sizes)
    else:
        source = benchmark_source(name, nthreads, **sizes)
    label = "%s/%d/%s/%s" % (name, nthreads, policy, ",".join(
        "%s=%d" % item for item in sorted(sizes.items())) or "listing")
    return Program(label, source, nthreads, policy,
                   reference.expected_stdout(name, nthreads, **sizes),
                   reference.expected_rcce_stdout(name, nthreads, **sizes))


def _jitter(rng, base):
    """Sizes vary by seed, but only by +-3%: about the same amount of
    work per run, whatever the seed, keeps run-to-run spread low."""
    return int(round(base * rng.uniform(0.97, 1.03)))


def _variants(rng, ues):
    """Balanced (ues, policy) pairs: every seed gets the same UE counts
    and half of each policy, paired in a seeded order."""
    ues = list(ues)
    policies = [POLICIES[k % 2] for k in range(len(ues))]
    rng.shuffle(ues)
    rng.shuffle(policies)
    return list(zip(ues, policies))


def _lu_batch(rng, dim):
    """A batch just past the scaled on-chip capacity, so Stage 4 leaves
    it in DRAM even under the size policy (Fig. 6.2's no-fit case)."""
    return SCALED_ON_CHIP_CAPACITY // (dim * dim * 8) + 1 + rng.randint(0, 8)


def _compute_pool(rng, smoke):
    if smoke:
        strata = [[_kernel("pi", 4, "size", steps=256)],
                  [_kernel("sum35", 4, "off-chip-only", limit=256)],
                  [_kernel("primes", 4, "size", limit=48)]]
        return Pool("compute", strata, [(0, "compare"), (1, "compare"),
                                        (2, "compare")], 3, 3)
    # primes, the slowest kernel, runs twice at 32 UEs: its slowest
    # variant is then a sixth of all requests and the p90 falls inside
    # its times instead of on the edge between two programs
    bases = (("pi", "steps", 4096, (8, 16, 32, 8)),
             ("sum35", "limit", 4096, (8, 16, 32, 8)),
             ("primes", "limit", 448, (8, 16, 32, 32)))
    strata = []
    for name, key, base, ues_choices in bases:
        strata.append([_kernel(name, ues, policy,
                               **{key: _jitter(rng, base)})
                       for ues, policy in _variants(rng, ues_choices)])
    return Pool("compute", strata,
                [(0, "compare"), (1, "compare"), (2, "compare")], 24, 6)


def _memory_pool(rng, smoke):
    if smoke:
        strata = [[_kernel("stream", 4, "size", n=64)],
                  [_kernel("dot", 4, "off-chip-only", n=96)],
                  [_kernel("lu", 4, "size", batch=6, dim=3)]]
        return Pool("memory", strata, [(0, "compare"), (1, "compare"),
                                       (2, "compare")], 3, 3)
    # stream's three and dot's two arrays together exceed the scaled
    # 16 KB L2 of the pthread baseline's single core.  LU's (ues, dim)
    # pairs are fixed: they set the slowest requests, hence the p90
    lu_policies = list(POLICIES * 2)
    rng.shuffle(lu_policies)
    strata = [
        [_kernel("stream", ues, policy, n=_jitter(rng, 864))
         for ues, policy in _variants(rng, (8, 16, 32, 8))],
        [_kernel("dot", ues, policy, n=_jitter(rng, 1225))
         for ues, policy in _variants(rng, (8, 16, 32, 8))],
        [_kernel("lu", ues, policy, batch=_lu_batch(rng, dim),
                 dim=dim)
         for (ues, dim), policy in zip(((8, 3), (8, 4), (16, 4), (32, 3)),
                                       lu_policies)],
    ]
    # stream twice per rotation: the median request then falls inside
    # stream's times instead of on the edge between two kernels
    return Pool("memory", strata,
                [(0, "compare"), (1, "compare"), (0, "compare"),
                 (2, "compare")], 12, 4)


# translation cost hardly depends on problem size; these small sizes
# keep the correctness simulations cheap
_SMALL_SIZES = {
    "pi": {"steps": (240, 272)},
    "sum35": {"limit": (480, 544)},
    "primes": {"limit": (60, 68)},
    "stream": {"n": (60, 68)},
    "dot": {"n": (90, 102)},
    "lu": {"batch": (4, 8), "dim": (4, 4)},
    "copy": {"n": (60, 68)},
    "scale": {"n": (60, 68)},
    "add": {"n": (60, 68)},
    "triad": {"n": (60, 68)},
}


def _synthetic(rng, k, count):
    """The ``k``-th of ``count`` synthetic programs.  The shapes are a
    fixed grid (globals rising from 16 to 32 with ``k``; thread count,
    thread functions, aliases, mutexes and shared fraction cycling),
    so every seed gets the same spread of program sizes; the seed draws
    the contents."""
    nthreads = (2, 4)[k % 2]
    shape = {"globals_": 16 + (k * 17) // count, "funcs": 1 + k % 3,
             "aliases": k % 4, "mutexes": 1 + (k // 3) % 4,
             "shared_fraction": 0.3 + 0.4 * ((k * 5) % 8) / 7}
    source, expected = synth.generate(rng, nthreads, **shape)
    label = "synth/%d/g%d-f%d-a%d-m%d" % (
        nthreads, shape["globals_"], shape["funcs"], shape["aliases"],
        shape["mutexes"])
    return Program(label, source, nthreads, rng.choice(POLICIES), expected,
                   expected * nthreads)


def _translate_pool(rng, smoke):
    corpus_count, synth_count = (2, 2) if smoke else (48, 48)
    corpus = [_kernel("example_4_1", 3, rng.choice(POLICIES))]
    names = list(_SMALL_SIZES)
    seen = {corpus[0].source}
    for _ in range(100 * corpus_count):
        if len(corpus) == corpus_count:
            break
        index = len(corpus) - 1
        name = names[index % len(names)]
        sizes = {key: rng.randint(*bounds)
                 for key, bounds in _SMALL_SIZES[name].items()}
        program = _kernel(name, (2, 4, 8)[index % 3],
                          rng.choice(POLICIES), **sizes)
        if program.source not in seen:
            seen.add(program.source)
            corpus.append(program)
    else:
        raise ValueError("could not draw %d distinct corpus programs"
                         % corpus_count)
    # 16-32 globals: the static check's cost grows faster than
    # quadratically with the global count (about 40 s for one
    # 256-global program on a 2-CPU host), so larger programs would
    # leave too few requests per run for a p90
    programs = [_synthetic(rng, k, synth_count)
                for k in range(synth_count)]
    half = synth_count // 2
    strata = [corpus, programs[:half], programs[half:]]
    # one corpus program, then one synthetic program of each size half:
    # sorted by time the three form thirds, so the median request falls
    # inside the smaller synthetic programs' times and the p90 inside
    # the larger ones', never on an edge between groups
    rotation = [(0, "translate"), (1, "translate"), (2, "translate")]
    return Pool("translate", strata, rotation, 4 if smoke else 96,
                4 if smoke else 6)


def _audited_pool(rng, smoke):
    bases = {"pi": {"steps": 448}, "sum35": {"limit": 896},
             "primes": {"limit": 96}, "stream": {"n": 112},
             "dot": {"n": 128}, "lu": {"batch": 6}}
    names = ["pi", "sum35", "primes"] if smoke else list(bases)
    programs = []
    for name in names:
        variants = _variants(rng, (4,) if smoke else (4, 8))
        for k, (ues, policy) in enumerate(variants):
            sizes = {key: _jitter(rng, base)
                     for key, base in bases[name].items()}
            if name == "lu":
                sizes["dim"] = 4 + k
            program = _kernel(name, ues, policy, **sizes)
            # timing-only mesh delays plus single-bit DRAM flips that
            # ECC corrects: the printed answer must not change.  Fixed
            # rates and crash cycle keep the work per run seed-independent
            program.faults = ("mesh_delay:p=0.02,seed=%d;"
                              "dram_flip:p=0.004,seed=%d"
                              % (rng.randint(1, 9999), rng.randint(1, 9999)))
            # ranks 0 and 1 have work in every kernel (LU's batch can
            # leave high ranks idle, and an idle core never reaches the
            # crash cycle)
            program.crash = "core_crash:core=%d,at=2000" % rng.randrange(2)
            programs.append(program)
    rotation = [(0, "faults"), (0, "supervised"), (0, "race")]
    return Pool("audited", [programs], rotation, 3 if smoke else 24,
                3 if smoke else 6)


_BUILDERS = {"compute": _compute_pool, "memory": _memory_pool,
             "translate": _translate_pool, "audited": _audited_pool}


def build_pool(workload, seed, smoke=False):
    """The seeded program pool of ``workload``."""
    rng = random.Random("%s:%s" % (workload, seed))
    return _BUILDERS[workload](rng, smoke)


def request_stream(pool, seed):
    """Endless ``(program, kind)`` requests: the rotation over strata,
    each stratum drawn without replacement in a seeded order that is
    reshuffled whenever it runs out."""
    rng = random.Random("%s:%s:stream" % (pool.workload, seed))
    queues = [[] for _ in pool.strata]
    while True:
        for stratum, kind in pool.rotation:
            if not queues[stratum]:
                queues[stratum] = list(pool.strata[stratum])
                rng.shuffle(queues[stratum])
            yield queues[stratum].pop(), kind


# -- executing one request ---------------------------------------------------


class LayerClock:
    """Times each layer call of one request.  With a
    ``PipelineProfiler`` it also opens a span per call, so the
    framework's stage spans nest under the ``translate`` span."""

    def __init__(self, profiler=None):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.profiler = profiler
        self.sim_wall = 0.0
        self.sim_cpu = 0.0        # process CPU (all threads) in simulate

    @contextlib.contextmanager
    def layer(self, name):
        span = self.profiler.span(name) if self.profiler is not None \
            else contextlib.nullcontext()
        with span:
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                yield
            finally:
                wall = time.perf_counter() - wall
                self.seconds[name] += wall
                if name.startswith("simulate"):
                    self.sim_wall += wall
                    self.sim_cpu += time.process_time() - cpu


def _registry_totals(metrics):
    totals = {}
    for kind in ("counters", "gauges"):
        for name, series in metrics.get(kind, {}).items():
            totals[name] = sum(sample["value"] for sample in series)
    return totals


def add_run_counts(counts, result, cycles_log):
    """Fold one simulation's public results into ``counts``."""
    totals = _registry_totals(result.metrics)
    for name, series in _REGISTRY_COUNTS.items():
        counts[name] += totals.get(series, 0)
    counts["sim.cycles"] += result.cycles
    if result.race is not None:
        counts["race.checks"] += result.race.checks
        counts["race.findings"] += len(result.race.findings)
    counts["sim.tree_engine_runs"] += sum(
        1 for diagnostic in result.diagnostics
        if "running with engine 'tree'" in diagnostic.message)
    cycles_log.append([result.cycles,
                       sorted(result.per_core_cycles.items())])


def _conserves(result):
    """Attribution conservation: every core's classes sum exactly to
    its cycles, and the critical path tiles the makespan."""
    report = result.attribution
    for core, classes in report.per_core.items():
        if sum(classes.values()) != result.per_core_cycles[core] or \
                min(classes.values()) < 0:
            return False
    path = report.critical_path
    return path is not None and path.complete and \
        path.path_length == report.makespan == result.cycles


class RequestRunner:
    """Executes requests; ``tmpdir`` holds checkpoint files."""

    def __init__(self, tmpdir):
        self.tmpdir = tmpdir
        self.config = scaled_config()

    def chip(self):
        return SCCChip(self.config)

    def _translate(self, program, clock, counts):
        framework = TranslationFramework(
            on_chip_capacity=SCALED_ON_CHIP_CAPACITY,
            partition_policy=program.policy, profiler=clock.profiler)
        with clock.layer("parse"):
            unit = parse_program(program.source)
        with clock.layer("translate"):
            result = framework.translate(unit)
        with clock.layer("codegen"):
            rcce_source = codegen.generate(result.unit)
        plan = result.plan
        counts["cfront.source_bytes"] += len(program.source)
        counts["core.rcce_bytes"] += len(rcce_source)
        counts["core.shared_vars"] += len(result.variables.shared())
        counts["core.onchip_bytes"] += plan.on_chip_bytes
        counts["core.offchip_bytes"] += plan.off_chip_bytes
        return framework, result, rcce_source

    def _compile(self, unit, clock, counts):
        with clock.layer("compile"):
            compiled = compile_unit(unit)
        counts["sim.compile_fallbacks"] += len(compiled.fallbacks())

    def execute(self, index, program, kind, profiler=None):
        """Run one request; never raises."""
        clock = LayerClock(profiler)
        counts = dict.fromkeys(COUNTS, 0)
        cycles = []
        record = {"index": index, "label": program.label, "kind": kind,
                  "ok": False, "error": None, "rcce_source": None}
        before = parse_cache_info()
        span = profiler.span("request", request=index) \
            if profiler is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                record["ok"] = self._dispatch(program, kind, clock,
                                              counts, cycles, record)
            if not record["ok"] and record["error"] is None:
                record["error"] = "output differs from the reference"
        except Exception:  # noqa: BLE001 - a failed request is counted
            record["error"] = traceback.format_exc(limit=4)
        record["seconds"] = time.perf_counter() - start
        after = parse_cache_info()
        counts["cfront.parse_hits"] = after["hits"] - before["hits"]
        counts["cfront.parse_calls"] = (
            counts["cfront.parse_hits"] + after["misses"]
            - before["misses"])
        record["layers"] = clock.seconds
        record["sim_wall"] = clock.sim_wall
        record["sim_cpu"] = clock.sim_cpu
        record["steps"] = counts["sim.steps"]
        record["counts"] = counts
        record["cycles"] = cycles
        return record

    def _dispatch(self, program, kind, clock, counts, cycles, record):
        framework, result, rcce_source = self._translate(program, clock,
                                                         counts)
        ues = program.ues
        if kind == "translate":
            with clock.layer("parse"):
                unit = parse_program(program.source)
            with clock.layer("static"):
                static = framework.check(unit).static_report
            counts["static.findings"] += len(static.findings)
            counts["static.lockset_suppressed"] += static.lockset_suppressed
            record["rcce_source"] = rcce_source
            return True
        if kind == "compare":
            with clock.layer("parse"):
                unit = parse_program(program.source, share=True)
            self._compile(unit, clock, counts)
            with clock.layer("simulate_pthread"):
                baseline = run_pthread_single_core(unit, self.config,
                                                   self.chip())
            add_run_counts(counts, baseline, cycles)
            self._compile(result.unit, clock, counts)
            with clock.layer("simulate_rcce"):
                rcce = run_rcce(result.unit, ues, self.config, self.chip())
            add_run_counts(counts, rcce, cycles)
            with clock.layer("verify"):
                return baseline.stdout() == program.expected and \
                    rcce.stdout() == program.rcce_expected
        if kind == "race":
            self._compile(result.unit, clock, counts)
            with clock.layer("simulate_rcce"):
                rcce = run_rcce(result.unit, ues, self.config, self.chip(),
                                race=True, attribution=AttributionEngine())
            add_run_counts(counts, rcce, cycles)
            with clock.layer("verify"):
                return rcce.stdout() == program.rcce_expected and \
                    not rcce.race.has_findings and _conserves(rcce)
        checkpoint = os.path.join(self.tmpdir, "request.ckpt")
        try:
            if kind == "faults":
                recovery = RecoveryOptions(ecc=True, retry=True,
                                           checkpoint_path=checkpoint,
                                           checkpoint_every=1)
                with clock.layer("simulate_rcce"):
                    rcce = run_rcce(result.unit, ues, self.config,
                                    self.chip(), faults=program.faults,
                                    recovery=recovery)
                add_run_counts(counts, rcce, cycles)
                with clock.layer("verify"):
                    return rcce.stdout() == program.rcce_expected
            if kind == "supervised":
                recovery = RecoveryOptions(checkpoint_path=checkpoint,
                                           checkpoint_every=1)
                with clock.layer("simulate_rcce"):
                    rcce = run_rcce_supervised(
                        result.unit, ues, config=self.config,
                        faults=program.crash, recovery=recovery,
                        max_restarts=1, chip_factory=self.chip)
                add_run_counts(counts, rcce, cycles)
                with clock.layer("verify"):
                    return rcce.stdout() == program.rcce_expected and \
                        rcce.recovery.restarts == 1
        finally:
            for suffix in ("", ".tmp"):
                if os.path.exists(checkpoint + suffix):
                    os.remove(checkpoint + suffix)
        raise ValueError("unknown request kind %r" % (kind,))

    def verify_translation(self, record, program):
        """The ``translate`` workload's correctness check, run once per
        distinct program: re-parse the generated C and simulate it on
        the program's own thread count.  Its counts and cycles join the
        request's record.  The collector is off during the simulation,
        as ``timeit`` does: these runs last milliseconds, and whether a
        full collection of the translator's heap lands in one would
        decide its speed.  Returns a ``{"steps", "sim_wall"}`` item."""
        # parsed outside the memo, which belongs to the requests
        unit = parse_program_uncached(record.pop("rcce_source"))
        compile_unit(unit)
        gc.disable()
        try:
            start = time.perf_counter()
            result = run_rcce(unit, program.ues, self.config, self.chip())
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        add_run_counts(record["counts"], result, record["cycles"])
        if result.stdout() != program.rcce_expected:
            record["ok"] = False
            record["error"] = "translated program printed a different " \
                              "answer"
        return {"steps": _registry_totals(result.metrics).get("sim_steps",
                                                               0),
                "sim_wall": seconds}
