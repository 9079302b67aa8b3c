"""Pinned simulation goldens: the simulator's behaviour contract.

Every case runs one program and records what the simulation produced:
simulated cycles, per-core cycles, stdout and the chip's metrics
snapshot (every series in it is a simulated quantity, so it is
deterministic), or the error a run ends with.  Checkpointing cases also
record the snapshot's replay-comparable state.

``tests/golden/sim.json`` holds the values the reference tree-walking
interpreter produced at commit 93e68345d20b1d13c40bad6002ae15db3e057f27,
the last commit that carried it.  The closure-compiled engine, now the
only one, must reproduce every entry exactly.

The file records the command that wrote it.  Run from the repository
root, that command regenerates the goldens against whichever ``src``
tree comes first on ``PYTHONPATH``; a tree whose runners still take an
``engine`` argument is run with its tree-walker selected::

    PYTHONPATH=src python -m tests.sim.goldens --write
"""

import copy
import functools
import inspect
import json
import os
import subprocess
import sys
import tempfile

from repro.bench.harness import SCALED_ON_CHIP_CAPACITY, ExperimentHarness
from repro.bench.programs import benchmark_source
from repro.bench.workloads import Workload, scaled_config
from repro.cfront import c_ast
from repro.cfront.frontend import parse_program
from repro.core.framework import TranslationFramework
from repro.recovery import RecoveryOptions, load_snapshot
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim.interpreter import Interpreter
from repro.sim.machine import Memory
from repro.sim.runner import (
    run_pthread_single_core,
    run_rcce,
    run_rcce_supervised,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "golden", "sim.json")
COMMAND = "PYTHONPATH=src python -m tests.sim.goldens --write"

TINY_CONFIG = dict(num_cores=4, mesh_columns=2, mesh_rows=1,
                   cores_per_tile=2, num_memory_controllers=1)


def tiny_chip():
    return SCCChip(SCCConfig(**TINY_CONFIG))


def _reference(fn):
    """Keyword arguments that select the tree-walking engine, for a
    ``src`` tree whose ``fn`` still offers a choice of engine."""
    if "engine" in inspect.signature(fn).parameters:
        return {"engine": "tree"}
    return {}


def jsonable(value):
    return json.loads(json.dumps(value, sort_keys=True))


def signature(result):
    """The recorded outcome of one finished run."""
    return jsonable({
        "cycles": result.cycles,
        "per_core": {str(core): cycles for core, cycles
                     in sorted(result.per_core_cycles.items())},
        "stdout": result.stdout(),
        "metrics": result.metrics,
    })


def _error(exc):
    return {"error": type(exc).__name__, "message": str(exc)}


def _snapshot_state(path):
    return jsonable(load_snapshot(path).state())


# -- programs ----------------------------------------------------------------

FEATURE_KERNELS = {
    "arith_and_casts": """
        int main(void) {
            int a = 7, b = -3;
            long big = 100000;
            double x = 2.5;
            int c = (int)(x * a) + b / 2 - b % 2;
            float f = (float)c / 4;
            return c + (int)f + (int)(big % 97);
        }
    """,
    "control_flow": """
        int classify(int n) {
            switch (n % 4) {
            case 0: return 10;
            case 1:
            case 2: return 20;
            default: break;
            }
            return 30;
        }
        int main(void) {
            int total = 0, i = 0;
            for (i = 0; i < 20; i++) {
                if (i == 3) continue;
                if (i == 17) break;
                total += classify(i);
            }
            do { total++; } while (total < 0);
            while (total > 500) total -= 7;
            return total;
        }
    """,
    "pointers_and_arrays": """
        int sum(int *p, int n) {
            int total = 0;
            int *end = p + n;
            while (p < end) total += *p++;
            return total;
        }
        int main(void) {
            int data[16];
            int i;
            for (i = 0; i < 16; i++) data[i] = i * i;
            data[3] = -data[3];
            return sum(data, 16) + *(data + 5);
        }
    """,
    "globals_and_recursion": """
        int calls = 0;
        int fib(int n) {
            calls++;
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main(void) {
            int f = fib(10);
            return f + calls;
        }
    """,
    "float_kernels": """
        double dot(double *a, double *b, int n) {
            double acc = 0.0;
            int i;
            for (i = 0; i < n; i++) acc += a[i] * b[i];
            return acc;
        }
        int main(void) {
            double xs[8], ys[8];
            int i;
            for (i = 0; i < 8; i++) { xs[i] = i * 0.5; ys[i] = 8 - i; }
            return (int)dot(xs, ys, 8);
        }
    """,
}

# the benchmark corpus, scaled for test speed
SMALL_WORKLOADS = {
    "pi": Workload("pi", {"steps": 512}, 32 * 8),
    "sum35": Workload("sum35", {"limit": 512}, 32 * 8),
    "primes": Workload("primes", {"limit": 256}, 32 * 4),
    "stream": Workload("stream", {"n": 128}, 3 * 128 * 8 + 32 * 8),
    "dot": Workload("dot", {"n": 192}, 2 * 192 * 8 + 32 * 8),
    "lu": Workload("lu", {"batch": 4, "dim": 8},
                   4 * 8 * 8 * 8 + 32 * 8),
}
CONFIGURATIONS = ("pthread", "rcce-off", "rcce-on")

GOTO_SOURCE = """
    int main(void) {
        int n = 0;
        goto out;
    out:
        return n;
    }
"""

SWITCH_SOURCE = """
    int main(void) {
        int x = 2, r = 0;
        switch (x) {
        case 1: r = 10; break;
        case 2: r = 20; break;
        default: r = 30;
        }
        return r;
    }
"""

# chip-level fault campaigns (see repro.faults for the spec syntax)
DELAY_FLIP = "mesh_delay:p=0.02,seed=3;dram_flip:p=0.004,seed=5"
MPB_DROP_STALL = ("mpb_flip:p=0.01,seed=3;mesh_drop:p=0.05,seed=4;"
                  "core_stall:core=1,at=3000,cycles=5000")
CRASH = "core_crash:core=1,at=2000"
PTHREAD_FAULTS = ("mesh_delay:p=0.02,seed=3;dram_flip:p=0.002,seed=7;"
                  "core_stall:core=0,at=5000,cycles=3000")

@functools.lru_cache(maxsize=None)
def translated(name, **sizes):
    """A benchmark translated for 4 UEs: ``(unit, source)``.  ``sizes``
    default to the scaled workload's."""
    framework = TranslationFramework(
        on_chip_capacity=SCALED_ON_CHIP_CAPACITY, partition_policy="size")
    result = framework.translate(benchmark_source(
        name, 4, **(sizes or SMALL_WORKLOADS[name].sizes)))
    return result.unit, result.rcce_source


# -- cases -------------------------------------------------------------------

def _feature(name):
    def run(tmpdir):
        return signature(run_pthread_single_core(
            FEATURE_KERNELS[name], chip=tiny_chip(), max_steps=50_000_000,
            **_reference(run_pthread_single_core)))
    return run


def _corpus(configuration, name):
    def run(tmpdir):
        harness = ExperimentHarness(
            num_ues=4, workloads=dict(SMALL_WORKLOADS),
            config_factory=scaled_config,
            **_reference(ExperimentHarness))
        outcome = harness.run(name, configuration)
        return jsonable({
            "cycles": outcome.cycles,
            "per_core": {str(core): cycles for core, cycles in sorted(
                outcome.result.per_core_cycles.items())},
            "stdout": outcome.result.stdout(),
            "metrics": outcome.result.metrics,
        })
    return run


def _faulted(name, spec, **options):
    """A translated kernel under ``spec`` with recovery ``options``;
    with a checkpoint path, the last snapshot's state is recorded."""
    def run(tmpdir):
        unit, _ = translated(name)
        path = os.path.join(tmpdir, "%s.ckpt" % name)
        checkpointed = "checkpoint_every" in options
        recovery = RecoveryOptions(
            checkpoint_path=path if checkpointed else None, **options)
        config = scaled_config()
        try:
            result = run_rcce(unit, 4, config, SCCChip(config),
                              faults=spec, recovery=recovery,
                              **_reference(run_rcce))
        except Exception as exc:  # noqa: BLE001 - the error is pinned
            return _error(exc)
        record = signature(result)
        if checkpointed:
            record["snapshot"] = _snapshot_state(path)
        return record
    return run


def _supervised(name):
    def run(tmpdir):
        unit, _ = translated(name)
        config = scaled_config()
        result = run_rcce_supervised(
            unit, 4, config=config, faults=CRASH,
            recovery=RecoveryOptions(
                checkpoint_path=os.path.join(tmpdir, "sup.ckpt"),
                checkpoint_every=1),
            max_restarts=1, chip_factory=lambda: SCCChip(config),
            **_reference(run_rcce_supervised))
        record = signature(result)
        record["restarts"] = result.recovery.restarts
        record["restored_from_round"] = \
            result.recovery.failures[0]["restored_from_round"]
        return record
    return run


def _crash(name):
    def run(tmpdir):
        unit, _ = translated(name)
        config = scaled_config()
        try:
            run_rcce(unit, 4, config, SCCChip(config), faults=CRASH,
                     **_reference(run_rcce))
        except Exception as exc:  # noqa: BLE001 - the error is pinned
            return _error(exc)
        raise AssertionError("the injected crash never fired")
    return run


def _restore(name):
    """Checkpoint every second round, then restore from the last one."""
    def run(tmpdir):
        _, source = translated(name)
        path = os.path.join(tmpdir, "restore.ckpt")
        config = scaled_config()
        first = run_rcce(source, 4, config, SCCChip(config),
                         recovery=RecoveryOptions(checkpoint_path=path,
                                                  checkpoint_every=2),
                         **_reference(run_rcce))
        restored = run_rcce(source, 4, config, SCCChip(config),
                            recovery=RecoveryOptions(restore=path),
                            **_reference(run_rcce))
        return {"checkpointed": signature(first),
                "snapshot": _snapshot_state(path),
                "restored": signature(restored)}
    return run


def _pthread_faulted(name):
    def run(tmpdir):
        source = benchmark_source(name, 4, **SMALL_WORKLOADS[name].sizes)
        try:
            result = run_pthread_single_core(
                source, scaled_config(), faults=PTHREAD_FAULTS,
                **_reference(run_pthread_single_core))
        except Exception as exc:  # noqa: BLE001 - the error is pinned
            return _error(exc)
        return signature(result)
    return run


def _recovery_kernels():
    from tests.sim.test_recovery import (
        CAMPAIGN_KERNEL,
        MPB_KERNEL,
        SEND_KERNEL,
    )

    def mpb_ecc(tmpdir):
        return signature(run_rcce(
            MPB_KERNEL, 2, faults="mpb_flip:p=0.05,seed=11",
            recovery=RecoveryOptions(ecc=True), **_reference(run_rcce)))

    def send_retry(tmpdir):
        return signature(run_rcce(
            SEND_KERNEL, 2, faults="mesh_drop:p=0.4,seed=5",
            recovery=RecoveryOptions(retry=True), **_reference(run_rcce)))

    def campaign(tmpdir):
        result = run_rcce_supervised(
            CAMPAIGN_KERNEL, 2,
            faults=("mpb_flip:p=0.02,seed=3;mesh_drop:p=0.3,seed=4;"
                    "core_crash:core=1,at=11000"),
            recovery=RecoveryOptions(
                ecc=True, retry=True,
                checkpoint_path=os.path.join(tmpdir, "campaign.ckpt"),
                checkpoint_every=1),
            max_restarts=2, **_reference(run_rcce_supervised))
        record = signature(result)
        record["restarts"] = result.recovery.restarts
        return record

    return {"recovery/mpb_ecc": mpb_ecc,
            "recovery/send_retry": send_retry,
            "recovery/campaign": campaign}


def _plain_pthread_pi(tmpdir):
    return signature(run_pthread_single_core(
        benchmark_source("pi", 4, steps=256), chip=tiny_chip(),
        max_steps=50_000_000, **_reference(run_pthread_single_core)))


def _plain_rcce_dot(tmpdir):
    unit, _ = translated("dot", n=64)
    chip = tiny_chip()
    return signature(run_rcce(unit, 4, chip.config, chip,
                              max_steps=50_000_000,
                              **_reference(run_rcce)))


def _attributed_rcce_dot(tmpdir):
    unit, _ = translated("dot", n=64)
    chip = tiny_chip()
    result = run_rcce(unit, 4, chip.config, chip, max_steps=50_000_000,
                      attribution=True, **_reference(run_rcce))
    report = result.attribution
    return jsonable({
        "per_core": {str(core): classes for core, classes
                     in sorted(report.per_core.items())},
        "mem_ops": {str(core): ops for core, ops
                    in sorted(report.mem_ops.items())},
        "critical_path": report.critical_path.as_dict(),
    })


def _producer_consumer(tmpdir):
    from tests.sim.test_pthread_cond import PRODUCER_CONSUMER
    return signature(run_pthread_single_core(
        PRODUCER_CONSUMER, **_reference(run_pthread_single_core)))


def _goto(tmpdir):
    interp = Interpreter(parse_program(GOTO_SOURCE), tiny_chip(), 0,
                         Memory(), **_reference(Interpreter))
    try:
        interp.run_main()
    except Exception as exc:  # noqa: BLE001 - the error is pinned
        record = _error(exc)
        record.update(cycles=interp.cycles, steps=interp.steps)
        return record
    raise AssertionError("goto ran")


def _switch_dead_item(tmpdir):
    """SWITCH_SOURCE with an unlabeled statement ahead of its first
    case: dead code in C, which the parser never produces itself."""
    unit = parse_program(SWITCH_SOURCE)
    switch = unit.find_function("main").body.items[1]
    assert isinstance(switch, c_ast.Switch)
    switch.body.items.insert(0, c_ast.EmptyStmt())
    interp = Interpreter(unit, tiny_chip(), 0, Memory(),
                         **_reference(Interpreter))
    value = interp.run_main()
    return {"value": value, "cycles": interp.cycles,
            "steps": interp.steps}


def _build_cases():
    cases = {}
    for name in sorted(FEATURE_KERNELS):
        cases["feature/" + name] = _feature(name)
    for configuration in CONFIGURATIONS:
        for name in sorted(SMALL_WORKLOADS):
            cases["corpus/%s/%s" % (configuration, name)] = \
                _corpus(configuration, name)
    for name in ("pi", "sum35", "primes", "stream", "dot"):
        cases["faults/delay_flip/" + name] = _faulted(
            name, DELAY_FLIP, ecc=True, retry=True, checkpoint_every=1)
    for name in ("dot", "lu"):
        cases["faults/mpb_drop_stall/" + name] = _faulted(
            name, MPB_DROP_STALL, ecc=True, retry=True)
    cases["faults/crash/pi"] = _crash("pi")
    for name in ("pi", "primes"):
        cases["supervised/" + name] = _supervised(name)
    for name in ("sum35", "stream"):
        cases["restore/" + name] = _restore(name)
    for name in ("pi", "primes", "lu"):
        cases["pthread_faults/" + name] = _pthread_faulted(name)
    cases.update(_recovery_kernels())
    cases["plain/pthread_pi"] = _plain_pthread_pi
    cases["plain/rcce_dot"] = _plain_rcce_dot
    cases["attribution/rcce_dot"] = _attributed_rcce_dot
    cases["cond/producer_consumer"] = _producer_consumer
    cases["error/goto"] = _goto
    cases["switch/dead_item"] = _switch_dead_item
    return cases


CASES = _build_cases()


def run_case(name):
    with tempfile.TemporaryDirectory() as tmpdir:
        return CASES[name](tmpdir)


@functools.lru_cache(maxsize=None)
def _pinned():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["cases"]


def golden(name):
    """A fresh copy of the pinned record for case ``name``."""
    return copy.deepcopy(_pinned()[name])


def _commit():
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        check=True).stdout.strip()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--write"]:
        print("usage: %s" % COMMAND, file=sys.stderr)
        return 2
    doc = {"commit": _commit(), "command": COMMAND,
           "cases": {name: run_case(name) for name in CASES}}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d cases to %s" % (len(doc["cases"]), GOLDEN_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
