"""RCCE runtime emulation (van der Wijngaart et al. [29]).

Implements the RCCE 2.0 API surface the translated programs use —
``RCCE_init`` / ``RCCE_ue`` / ``RCCE_num_ues`` / ``RCCE_shmalloc`` /
``RCCE_malloc`` / ``RCCE_barrier`` / put/get / test-and-set locks —
bound to the simulated SCC: shmalloc returns shared-DRAM segments,
RCCE_malloc returns MPB segments, and every operation is priced by the
chip timing model.
"""

from repro.rcce.api import RCCEWorld, RCCECoreRuntime
from repro.rcce.sync import ClockBarrier, Monitor, TestAndSetRegisters

__all__ = [
    "RCCEWorld",
    "RCCECoreRuntime",
    "ClockBarrier",
    "Monitor",
    "TestAndSetRegisters",
]
