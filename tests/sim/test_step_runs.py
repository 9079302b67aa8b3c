"""Straight-line runs of steps under one prologue.

``_Shape.source`` renders a run of k steps as one prologue that counts
all k, then either the run's copy with a prologue per step (when the
run would reach the next step event: a tick, the budget or a halt) or
its copy without them.  The per-step copy is the code as it was before
runs, so forcing every run onto it gives the reference each test here
compares with: the budget overruns, the errors raised inside a run and
their step and cycle counts must not move.
"""

import pytest

from repro.bench.programs import benchmark_source
from repro.cfront.frontend import parse_program
from repro.core.framework import TranslationFramework
from repro.faults import FaultInjector
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig, Table61Config
from repro.sim import compile as sim_compile
from repro.sim import runner
from repro.sim.interpreter import Interpreter, InterpreterError
from repro.sim.watchdog import SimulationTimeout


class _PerStep(Interpreter):
    """Every straight-line run takes its copy with a prologue per
    step: ``_run_stop`` reads 0 and ignores what is stored in it."""

    _run_stop = property(lambda self: 0, lambda self, value: None)


@pytest.fixture
def per_step(monkeypatch):
    """Within the test, runner-built interpreters are _PerStep."""
    def use(on):
        monkeypatch.setattr(runner, "Interpreter",
                            _PerStep if on else Interpreter)
    return use


def _outcome(run):
    """What a run ends with: its result's cycles, or the overrun's
    per-core steps and cycles (sorted by core: when two cores overrun
    on one step, host order picks the core the message names)."""
    try:
        result = run()
    except SimulationTimeout as exc:
        return "timeout", sorted((dump["core"], dump["steps"],
                                  dump["cycles"]) for dump in exc.dumps)
    return "done", result.cycles, result.per_core_cycles, result.stdout()


# budgets at every few steps through the start-up code and the first
# ticks, then sparser ones through the loops, past each run's end
_BUDGETS = list(range(1, 300, 6)) + list(range(300, 3000, 127))

_PROGRAMS = {
    "pi": benchmark_source("pi", 2, steps=32),
    "primes": benchmark_source("primes", 2, limit=24),
    "dot": benchmark_source("dot", 2, n=32),
}


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_budget_overruns_land_where_the_per_step_code_puts_them(
        name, per_step):
    source = _PROGRAMS[name]
    unit = TranslationFramework().translate(source).unit
    outcomes = {}
    for on in (False, True):
        per_step(on)
        outcomes[on] = [
            (_outcome(lambda: runner.run_pthread_single_core(
                source, max_steps=budget)),
             _outcome(lambda: runner.run_rcce(unit, 2, max_steps=budget)))
            for budget in _BUDGETS]
    assert outcomes[False] == outcomes[True]
    # the sweep overran inside the programs and also ran some to the end
    kinds = {outcome[0] for pair in outcomes[False] for outcome in pair}
    assert kinds == {"timeout", "done"}


def test_overrun_dumps_match_the_per_step_code():
    """The overruns CI checks on ``repro run``, pinned: pi on 4 UEs
    (every core stops at step 1001) and on one core."""
    source = benchmark_source("pi", 4, steps=256)
    unit = TranslationFramework().translate(source).unit
    assert _outcome(lambda: runner.run_rcce(unit, 4, max_steps=1000)) == (
        "timeout", [(0, 1001, 8031), (1, 1001, 8031), (2, 1001, 8047),
                    (3, 1001, 8047)])
    assert _outcome(lambda: runner.run_pthread_single_core(
        source, max_steps=1000)) == ("timeout", [(0, 1001, 28615)])


# a local whose declaration the switch skipped: reading it raises
_SKIPPED = """
int main(void) {
    %s
    switch (x) {
    case 0:
        int y;
    case 1:
        %s
    }
    return x;
}
"""


@pytest.mark.parametrize("decls, body, steps, cycles", [
    # y read after the run's last step
    ("int x = 1;", "x = x + y;", 10, 59),
    ("int x = 1;\n    int z = 0;", "for (z = 0; z < y; z++) { }", 15, 62),
    # y read inside the run: the unreached step goes back first
    ("int x = 1;", "x = y % x;", 9, 58),
])
def test_an_undefined_local_inside_a_run_raises_at_its_step(
        decls, body, steps, cycles):
    unit = parse_program(_SKIPPED % (decls, body))
    for cls in (Interpreter, _PerStep):
        interp = cls(unit, SCCChip(Table61Config()), 0)
        with pytest.raises(InterpreterError,
                           match="undefined identifier 'y'"):
            interp.run_main()
        assert (interp.steps, interp.cycles) == (steps, cycles)


def test_a_loop_condition_is_one_run():
    """``i < n`` of a ``for`` is the iteration's step, the operator's
    and its two operands': four steps under one prologue.  ``i``'s
    address follows the third, so in the copy without prologues an
    unallocated ``i`` gives the fourth back before the error."""
    unit = parse_program("""
        int main(void) {
            int i;
            int n = 3;
            int s = 0;
            for (i = 0; i < n; i++) { s += i; }
            return s;
        }""")
    assert Interpreter(unit, SCCChip(SCCConfig()), 0).run_main() == 3
    shape = next(make.source for (name, _), make
                 in sim_compile._SHAPES.items()
                 if name == "for_lt_ll_post_incdec_l")
    assert "s = I.steps + 4\n" in shape
    assert "I.steps -= 1\n" in shape
    assert shape.count("if s >= I._run_stop:") == 1


def test_a_fault_attached_core_runs_every_step_on_its_own():
    """With a fault injector attached, loads may raise or read
    ``steps`` mid-run, so ``_run_stop`` stays 0 through every step
    event and every run takes its per-step copy."""
    chip = SCCChip(SCCConfig())
    FaultInjector("dram_flip:p=0,seed=1").attach(chip)
    unit = parse_program("""
        int main(void) {
            int i;
            int s = 0;
            for (i = 0; i < 300; i++) { s += i; }
            return s;
        }""")
    interp = Interpreter(unit, chip, 0)
    assert interp._run_stop == 0
    assert interp.run_main() == 44850
    assert interp.steps > 2 * 256
    assert interp._run_stop == 0
    plain = Interpreter(unit, SCCChip(SCCConfig()), 0)
    assert plain.run_main() == 44850
    assert plain._run_stop == plain._stop
    assert (plain.steps, plain.cycles) == (interp.steps, interp.cycles)
