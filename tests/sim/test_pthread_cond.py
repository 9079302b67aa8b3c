"""Condition variables in the single-core pthread baseline.

The serial model (see the pthread_rt module docstring): signals are
counted deposits, a wait that finds none runs other not-yet-started
threads in creation order until one deposits, and a wait that can never
be satisfied raises DeadlockError instead of hanging the host.
"""

import os

import pytest

from repro.sim.pthread_rt import COND_WAIT_COST
from repro.sim.runner import run_pthread_single_core
from repro.sim.watchdog import DeadlockError
from tests.sim.goldens import golden, signature

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

PRODUCER_CONSUMER = """
#include <stdio.h>
#include <pthread.h>

pthread_mutex_t lock;
pthread_cond_t cond;
int ready = 0;
int value = 0;

void *producer(void *arg)
{
    pthread_mutex_lock(&lock);
    value = 42;
    ready = 1;
    pthread_cond_signal(&cond);
    pthread_mutex_unlock(&lock);
    return (void *)0;
}

int main(int argc, char **argv)
{
    pthread_t tid;
    pthread_mutex_init(&lock, 0);
    pthread_cond_init(&cond, 0);
    pthread_create(&tid, 0, producer, (void *)0);
    pthread_mutex_lock(&lock);
    while (!ready)
    {
        pthread_cond_wait(&cond, &lock);
    }
    pthread_mutex_unlock(&lock);
    pthread_join(tid, 0);
    printf("got %d\\n", value);
    return 0;
}
"""

BROADCAST = """
#include <stdio.h>
#include <pthread.h>

pthread_mutex_t lock;
pthread_cond_t cond;
int go = 0;
int woken = 0;

void *waiter(void *arg)
{
    pthread_mutex_lock(&lock);
    while (!go)
    {
        pthread_cond_wait(&cond, &lock);
    }
    woken = woken + 1;
    pthread_mutex_unlock(&lock);
    return (void *)0;
}

void *opener(void *arg)
{
    pthread_mutex_lock(&lock);
    go = 1;
    pthread_cond_broadcast(&cond);
    pthread_mutex_unlock(&lock);
    return (void *)0;
}

int main(int argc, char **argv)
{
    pthread_t w1;
    pthread_t w2;
    pthread_t w3;
    pthread_t op;
    pthread_mutex_init(&lock, 0);
    pthread_cond_init(&cond, 0);
    pthread_create(&w1, 0, waiter, (void *)0);
    pthread_create(&w2, 0, waiter, (void *)0);
    pthread_create(&w3, 0, waiter, (void *)0);
    pthread_create(&op, 0, opener, (void *)0);
    pthread_join(w1, 0);
    pthread_join(w2, 0);
    pthread_join(w3, 0);
    pthread_join(op, 0);
    printf("woken %d\\n", woken);
    return 0;
}
"""


class TestCondvars:
    # ``baseline`` names the reference: "compiled" the expected answer,
    # "tree" the tree-walker's pinned result (tests/golden/sim.json)
    @pytest.mark.parametrize("baseline", ["tree", "compiled"])
    def test_producer_consumer(self, baseline):
        result = run_pthread_single_core(PRODUCER_CONSUMER)
        if baseline == "tree":
            assert signature(result) == golden("cond/producer_consumer")
        else:
            assert result.stdout() == "got 42\n"

    def test_engines_agree_on_cycles(self):
        result = run_pthread_single_core(PRODUCER_CONSUMER)
        assert result.cycles == golden("cond/producer_consumer")["cycles"]

    def test_broadcast_wakes_every_waiter(self):
        result = run_pthread_single_core(BROADCAST)
        assert result.stdout() == "woken 3\n"

    def test_wait_charges_cycles(self):
        without = run_pthread_single_core(
            PRODUCER_CONSUMER.replace(
                "    while (!ready)\n"
                "    {\n"
                "        pthread_cond_wait(&cond, &lock);\n"
                "    }\n", ""))
        with_wait = run_pthread_single_core(PRODUCER_CONSUMER)
        assert with_wait.cycles >= without.cycles + COND_WAIT_COST

    def test_signal_before_wait_is_not_lost(self):
        """Deliberate divergence from the POSIX lost-wakeup race: a
        deposit made before the wait still satisfies it (serial
        execution cannot reproduce the racing interleaving)."""
        source = PRODUCER_CONSUMER.replace(
            "pthread_create(&tid, 0, producer, (void *)0);\n"
            "    pthread_mutex_lock(&lock);",
            "pthread_create(&tid, 0, producer, (void *)0);\n"
            "    pthread_join(tid, 0);\n"
            "    pthread_mutex_lock(&lock);")
        result = run_pthread_single_core(source)
        assert result.stdout() == "got 42\n"


class TestMissedSignal:
    def _fixture(self):
        with open(os.path.join(FIXTURES,
                               "cond_missed_signal.c")) as handle:
            return handle.read()

    def test_missed_signal_raises_deadlock(self):
        with pytest.raises(DeadlockError) as excinfo:
            run_pthread_single_core(self._fixture())
        message = str(excinfo.value)
        assert "condvar wait-for graph" in message
        assert "no runnable thread left to signal it" in message
        assert excinfo.value.cycle

    def test_missed_signal_raises_under_compiled_engine(self):
        with pytest.raises(DeadlockError):
            run_pthread_single_core(self._fixture())


class TestRaceEdges:
    def test_signal_wait_is_a_sync_edge(self):
        """The signal->wakeup edge orders the producer's writes before
        the consumer's reads: the audit must come back clean."""
        result = run_pthread_single_core(PRODUCER_CONSUMER, race=True)
        assert result.race is not None
        assert result.race.ok, result.race.render()
        assert result.race.sync_edges > 0

    def test_broadcast_audit_clean(self):
        result = run_pthread_single_core(BROADCAST, race=True)
        assert result.race.ok, result.race.render()

    def test_race_detector_is_cycle_invisible(self):
        off = run_pthread_single_core(PRODUCER_CONSUMER)
        on = run_pthread_single_core(PRODUCER_CONSUMER, race=True)
        assert on.cycles == off.cycles
        assert on.stdout() == off.stdout()


class TestStateDump:
    def test_blocked_waiter_reported_in_dump(self):
        from repro.cfront.frontend import parse_program
        from repro.scc.chip import SCCChip
        from repro.scc.config import SCCConfig
        from repro.sim.interpreter import Interpreter
        from repro.sim.machine import Memory
        from repro.sim.pthread_rt import PthreadRuntime

        runtime = PthreadRuntime()
        chip = SCCChip(SCCConfig(num_cores=4, mesh_columns=2,
                                 mesh_rows=1, cores_per_tile=2,
                                 num_memory_controllers=1))
        interp = Interpreter(parse_program(self_dumping_source()),
                             chip, 0, Memory(), runtime)
        with pytest.raises(DeadlockError):
            interp.run_main()
        rows = {row["tid"]: row for row in runtime.state_dump()}
        assert any(row["blocked_on"] for row in rows.values())


def self_dumping_source():
    with open(os.path.join(FIXTURES,
                           "cond_missed_signal.c")) as handle:
        return handle.read()
