"""repro — reproduction of "Enabling Multi-threaded Applications on
Hybrid Shared Memory Manycore Architectures" (DATE 2015 / Rawat, ASU).

Public API tour::

    from repro import TranslationFramework, ExperimentHarness

    # the paper's contribution: Pthreads -> RCCE translation
    result = TranslationFramework().translate(pthread_c_source)
    print(result.rcce_source)

    # the paper's evaluation: translated programs on the simulated SCC
    harness = ExperimentHarness(num_ues=32)
    for row in harness.figure_6_1():
        print(row["benchmark"], row["speedup"])
"""

from repro.core.framework import FrameworkResult, TranslationFramework
from repro.core.varinfo import Sharing, VariableInfo, VariableTable
from repro.core.stage4_partition import MemoryBank, PartitionPlan
from repro.obs import MetricsRegistry, PipelineProfiler
from repro.scc.config import SCCConfig, Table61Config
from repro.scc.chip import SCCChip
from repro.sim.runner import (
    RunResult,
    run_pthread_single_core,
    run_rcce,
)
from repro.bench.harness import BenchmarkRun, ExperimentHarness

__version__ = "1.0.0"

__all__ = [
    "TranslationFramework",
    "FrameworkResult",
    "Sharing",
    "VariableInfo",
    "VariableTable",
    "MemoryBank",
    "PartitionPlan",
    "SCCConfig",
    "Table61Config",
    "SCCChip",
    "RunResult",
    "run_pthread_single_core",
    "run_rcce",
    "ExperimentHarness",
    "BenchmarkRun",
    "MetricsRegistry",
    "PipelineProfiler",
    "__version__",
]
