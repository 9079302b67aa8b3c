"""Benchmark corpus and experiment harness.

``programs`` holds the Pthreads C sources of the paper's six benchmarks
(Appendix C); ``workloads`` the scaled problem sizes; ``harness`` runs
the full experiment matrix (translate + simulate in each configuration);
``figures`` regenerates the paper's evaluation figures; ``tables``
holds the paper's Tables 4.1 and 4.2 for comparison.
"""

from repro.bench.programs import (
    BENCHMARKS,
    EXAMPLE_4_1,
    benchmark_names,
    benchmark_source,
)
from repro.bench.workloads import Workload, default_workloads, scaled_config
from repro.bench.harness import ExperimentHarness, BenchmarkRun

__all__ = [
    "BENCHMARKS",
    "EXAMPLE_4_1",
    "benchmark_names",
    "benchmark_source",
    "Workload",
    "default_workloads",
    "scaled_config",
    "ExperimentHarness",
    "BenchmarkRun",
]
