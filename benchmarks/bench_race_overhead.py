"""Disabled-mode race-detector overhead (must stay under 5%).

The detector hooks every interpreter load/store behind one attribute
test (``self._race is not None``) — the same contract as the
fault-injector probes.  With no detector attached (the default),
those branches must price memory accesses at effectively the
pre-detector cost.  This bench replays the pre-PR ``load``/``store``
bodies (inlined below, verbatim minus the race branch) against today's
hooked methods on an identical access mix, and fails if the hooked
path costs more than 1.05x the replica.

Usage::

    PYTHONPATH=src python benchmarks/bench_race_overhead.py  # BENCH_race.json
    pytest benchmarks/bench_race_overhead.py                 # gate only
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from conftest import write_result  # noqa: E402

from repro.cfront.frontend import parse_program  # noqa: E402
from repro.scc.chip import SCCChip  # noqa: E402
from repro.scc.config import SCCConfig  # noqa: E402
from repro.sim.interpreter import Interpreter  # noqa: E402
from repro.sim.machine import Memory  # noqa: E402

ACCESSES = 2_000
REPEATS = 9
OVERHEAD_CEILING = 1.05
DEFAULT_OUTPUT = os.path.join(ROOT, "BENCH_race.json")


def _fresh_interp():
    unit = parse_program("int main(void) { return 0; }")
    return Interpreter(unit, SCCChip(SCCConfig()), 0, Memory())


def _pre_race_paths(interp):
    """The pre-detector ``load``/``store`` bodies, closing over
    ``interp`` instead of ``self``: the fault and ctype-coercion
    branches are kept so the timing difference isolates exactly the
    race probe."""
    from repro.cfront import ctypes
    from repro.sim.values import coerce
    chip = interp.chip

    def load(addr, ctype=None):
        interp.cycles += chip.access_cost(interp.core_id, addr,
                                          "read", 4, interp.cycles)
        value = interp.memory.load(addr)
        if interp._faults is not None:
            raw = value
            value = interp._faults.filter_load(interp, addr, value)
            if interp._ecc is not None and value is not raw:
                value = interp._ecc.scrub(interp, addr, value, raw)
        if ctype is not None and isinstance(value, int) and \
                isinstance(ctype, ctypes.PrimitiveType) and \
                ctype.is_floating:
            return float(value)
        return value

    def store(addr, value, ctype=None):
        interp.cycles += chip.access_cost(interp.core_id, addr,
                                          "write", 4, interp.cycles)
        if ctype is not None:
            value = coerce(ctype, value)
        interp.memory.store(addr, value)
        return value

    return load, store


def _workload(chip):
    """A deterministic private/shared access mix."""
    private = chip.address_space.alloc_private(0, 4096)
    shared = chip.address_space.alloc_shared(4096)
    accesses = []
    for index in range(ACCESSES):
        if index % 4 < 3:
            accesses.append((private.base + (index * 4) % 4096,
                             "read"))
        else:
            accesses.append((shared.base + (index * 4) % 4096,
                             "write"))
    return accesses


def _best_of(fn, repeats=REPEATS):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def measure():
    baseline_interp = _fresh_interp()
    hooked_interp = _fresh_interp()
    assert hooked_interp._race is None  # disabled is the default
    baseline_load, baseline_store = _pre_race_paths(baseline_interp)
    accesses = _workload(baseline_interp.chip)
    _workload(hooked_interp.chip)  # identical layout on both chips

    def run_baseline():
        for addr, kind in accesses:
            if kind == "read":
                baseline_load(addr)
            else:
                baseline_store(addr, 1)

    def run_hooked():
        for addr, kind in accesses:
            if kind == "read":
                hooked_interp.load(addr)
            else:
                hooked_interp.store(addr, 1)

    # prime cache state identically before timing
    run_baseline()
    run_hooked()

    baseline = _best_of(run_baseline)
    hooked = _best_of(run_hooked)
    return {
        "accesses": ACCESSES,
        "repeats": REPEATS,
        "baseline_us": baseline * 1e6,
        "hooked_us": hooked * 1e6,
        "ratio": hooked / baseline,
        "ceiling": OVERHEAD_CEILING,
        "measure": "best-of-%d wall time of %d interpreter "
                   "loads/stores, race hooks present but detector "
                   "detached, vs the pre-detector bodies"
                   % (REPEATS, ACCESSES),
    }


# -- pytest entry ---------------------------------------------------------------


def test_disabled_mode_overhead_under_5_percent(results_dir):
    report = measure()
    write_result(results_dir, "race_overhead.txt",
                 "disabled-mode load/store: baseline %.1f us, "
                 "hooked %.1f us, ratio %.3f"
                 % (report["baseline_us"], report["hooked_us"],
                    report["ratio"]))
    assert report["ratio"] <= OVERHEAD_CEILING, (
        "disabled-mode race-hook overhead %.1f%% exceeds 5%%"
        % ((report["ratio"] - 1.0) * 100.0))


def test_both_paths_charge_identical_cycles():
    """The replica and the hooked path must agree on simulated cycles
    — otherwise the timing comparison compares different work."""
    baseline_interp = _fresh_interp()
    hooked_interp = _fresh_interp()
    baseline_load, baseline_store = _pre_race_paths(baseline_interp)
    for addr, kind in _workload(baseline_interp.chip):
        if kind == "read":
            baseline_load(addr)
        else:
            baseline_store(addr, 1)
    for addr, kind in _workload(hooked_interp.chip):
        if kind == "read":
            hooked_interp.load(addr)
        else:
            hooked_interp.store(addr, 1)
    assert hooked_interp.cycles == baseline_interp.cycles


# -- script entry ----------------------------------------------------------------


def main(argv=None):
    report = measure()
    with open(DEFAULT_OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("disabled-mode ratio %.3f (ceiling %.2f) -> %s"
          % (report["ratio"], OVERHEAD_CEILING, DEFAULT_OUTPUT))
    return 0 if report["ratio"] <= OVERHEAD_CEILING else 1


if __name__ == "__main__":
    sys.exit(main())
