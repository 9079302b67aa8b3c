"""The experiment harness: translate + simulate every configuration.

Three configurations per benchmark, matching the paper's evaluation:

* ``pthread``  — the original 32-thread program on ONE core (baseline);
* ``rcce-off`` — translated, all shared data in off-chip shared DRAM
  (Figure 6.1's configuration);
* ``rcce-on``  — translated, shared data partitioned onto the on-chip
  MPB by Stage 4's Algorithm 3 (Figure 6.2's configuration).

Every RCCE run's program output is checked against the baseline's, so a
translation bug cannot silently produce a fast-but-wrong result.
"""

from repro.core.framework import TranslationFramework
from repro.scc.chip import SCCChip
from repro.sim.runner import run_pthread_single_core, run_rcce
from repro.bench.programs import benchmark_source
from repro.bench.workloads import (
    SCALED_ON_CHIP_CAPACITY,
    default_workloads,
    scaled_config,
)


class VerificationError(Exception):
    """A translated program produced different results than the
    original multithreaded program."""


class BenchmarkRun:
    """One (benchmark, configuration) measurement."""

    __slots__ = ("benchmark", "configuration", "result", "num_ues")

    def __init__(self, benchmark, configuration, result, num_ues):
        self.benchmark = benchmark
        self.configuration = configuration
        self.result = result
        self.num_ues = num_ues

    @property
    def cycles(self):
        return self.result.cycles

    @property
    def seconds(self):
        return self.result.seconds

    def result_line(self):
        """The program's answer line (first stdout line)."""
        lines = self.result.stdout().strip().splitlines()
        return lines[0] if lines else ""

    def __repr__(self):
        return "BenchmarkRun(%s/%s: %d cycles)" % (
            self.benchmark, self.configuration, self.cycles)


class ExperimentHarness:
    """Runs and caches the full benchmark matrix."""

    def __init__(self, num_ues=32, workloads=None, config_factory=None,
                 on_chip_capacity=SCALED_ON_CHIP_CAPACITY,
                 verify=True, max_steps=500_000_000):
        self.num_ues = num_ues
        self.workloads = workloads or default_workloads()
        self.config_factory = config_factory or scaled_config
        self.on_chip_capacity = on_chip_capacity
        self.verify = verify
        self.max_steps = max_steps
        self._cache = {}

    # -- sources -----------------------------------------------------------

    def source_for(self, name, nthreads=None):
        workload = self.workloads[name]
        return benchmark_source(name, nthreads or self.num_ues,
                                **workload.sizes)

    def framework(self, policy):
        return TranslationFramework(
            on_chip_capacity=self.on_chip_capacity,
            partition_policy=policy)

    def _fresh_chip(self):
        return SCCChip(self.config_factory())

    # -- individual runs ---------------------------------------------------------

    def run(self, name, configuration, num_ues=None):
        """Run (and cache) one benchmark in one configuration.

        ``configuration`` is 'pthread', 'rcce-off', or 'rcce-on'.
        """
        num_ues = num_ues or self.num_ues
        key = (name, configuration, num_ues)
        if key in self._cache:
            return self._cache[key]

        source = self.source_for(name, nthreads=num_ues)
        if configuration == "pthread":
            chip = self._fresh_chip()
            result = run_pthread_single_core(
                source, chip.config, chip, max_steps=self.max_steps)
        elif configuration in ("rcce-off", "rcce-on"):
            policy = ("off-chip-only" if configuration == "rcce-off"
                      else "size")
            translated = self.framework(policy).translate(source)
            chip = self._fresh_chip()
            result = run_rcce(translated.unit, num_ues, chip.config,
                              chip, max_steps=self.max_steps)
            if self.verify:
                self._verify(name, result, num_ues)
        else:
            raise ValueError("unknown configuration %r" % configuration)

        run = BenchmarkRun(name, configuration, result, num_ues)
        self._cache[key] = run
        return run

    def _verify(self, name, rcce_result, num_ues):
        baseline = self.run(name, "pthread", num_ues)
        expected = baseline.result_line()
        lines = rcce_result.stdout().strip().splitlines()
        if not lines:
            raise VerificationError(
                "%s: translated program produced no output" % name)
        # every UE prints the (identical) answer; all must match
        mismatched = [line for line in lines if line != expected]
        if mismatched:
            raise VerificationError(
                "%s: translated output %r != baseline %r"
                % (name, mismatched[0], expected))

    # -- experiment matrices ---------------------------------------------------------

    def figure_6_1(self, benchmarks=None):
        """Fig. 6.1 — RCCE (off-chip shared memory, N cores) speedup
        over the N-thread Pthreads program on one core."""
        rows = []
        for name in benchmarks or list(self.workloads):
            baseline = self.run(name, "pthread")
            rcce = self.run(name, "rcce-off")
            rows.append({
                "benchmark": name,
                "pthread_1core_cycles": baseline.cycles,
                "rcce_offchip_cycles": rcce.cycles,
                "speedup": baseline.cycles / rcce.cycles,
            })
        return rows

    def figure_6_2(self, benchmarks=None):
        """Fig. 6.2 — off-chip vs on-chip (MPB) RCCE runtimes."""
        rows = []
        for name in benchmarks or list(self.workloads):
            off = self.run(name, "rcce-off")
            on = self.run(name, "rcce-on")
            rows.append({
                "benchmark": name,
                "rcce_offchip_cycles": off.cycles,
                "rcce_onchip_cycles": on.cycles,
                "improvement": off.cycles / on.cycles,
            })
        return rows

    def figure_6_3(self, benchmark="pi", core_counts=(1, 2, 4, 8, 16, 32)):
        """Fig. 6.3 — speedup over the single-core Pthread application
        with varying RCCE core count."""
        rows = []
        for cores in core_counts:
            baseline = self.run(benchmark, "pthread", num_ues=cores)
            rcce = self.run(benchmark, "rcce-on", num_ues=cores)
            rows.append({
                "cores": cores,
                "pthread_cycles": baseline.cycles,
                "rcce_cycles": rcce.cycles,
                "speedup": baseline.cycles / rcce.cycles,
            })
        return rows

    def average_onchip_improvement(self, benchmarks=None):
        """The paper's headline "8x on average" (geometric mean is the
        right mean for ratios)."""
        rows = self.figure_6_2(benchmarks)
        product = 1.0
        for row in rows:
            product *= row["improvement"]
        return product ** (1.0 / len(rows))
