"""Pthread runtime (single-core baseline) tests."""

import pytest

from repro.obs.metrics import series_value
from repro.scc.config import SCCConfig
from repro.sim.runner import run_pthread_single_core

PROGRAM = """
#include <stdio.h>
#include <pthread.h>

int results[4];

void *worker(void *tid) {
    int id = (int)tid;
    results[id] = id * 10;
    pthread_exit(NULL);
}

int main(void) {
    pthread_t th[4];
    int total = 0;
    for (int i = 0; i < 4; i++)
        pthread_create(&th[i], NULL, worker, (void *)i);
    for (int i = 0; i < 4; i++)
        pthread_join(th[i], NULL);
    for (int i = 0; i < 4; i++)
        total += results[i];
    printf("total=%d\\n", total);
    return 0;
}
"""


class TestExecution:
    def test_threads_produce_results(self):
        result = run_pthread_single_core(PROGRAM)
        assert result.stdout() == "total=60\n"

    def test_thread_count_in_stats(self):
        result = run_pthread_single_core(PROGRAM)
        assert result.stats["threads"] == 4

    def test_unjoined_threads_still_run(self):
        source = PROGRAM.replace(
            "    for (int i = 0; i < 4; i++)\n"
            "        pthread_join(th[i], NULL);\n", "")
        result = run_pthread_single_core(source)
        # detached threads execute before the process ends, but the
        # total was computed before they ran (main saw zeroes or some)
        assert result.stats["threads"] == 4

    def test_pthread_self_distinct_ids(self):
        source = """
        #include <pthread.h>
        int ids[2];
        void *tf(void *slot) {
            ids[(int)slot] = (int)pthread_self();
            return 0;
        }
        int main(void) {
            pthread_t a, b;
            pthread_create(&a, 0, tf, (void *)0);
            pthread_create(&b, 0, tf, (void *)1);
            pthread_join(a, 0);
            pthread_join(b, 0);
            return ids[0] != ids[1];
        }
        """
        result = run_pthread_single_core(source)
        assert result.exit_value == 1

    def test_mutex_program_correct(self):
        source = """
        #include <pthread.h>
        #include <stdio.h>
        int counter;
        pthread_mutex_t m;
        void *inc(void *a) {
            for (int i = 0; i < 100; i++) {
                pthread_mutex_lock(&m);
                counter = counter + 1;
                pthread_mutex_unlock(&m);
            }
            return 0;
        }
        int main(void) {
            pthread_t th[4];
            pthread_mutex_init(&m, 0);
            for (int i = 0; i < 4; i++)
                pthread_create(&th[i], 0, inc, (void *)i);
            for (int i = 0; i < 4; i++)
                pthread_join(th[i], 0);
            printf("%d", counter);
            return 0;
        }
        """
        result = run_pthread_single_core(source)
        assert result.stdout() == "400"

    def test_launch_by_address(self):
        source = PROGRAM.replace("worker, (void *)i", "&worker, (void *)i")
        result = run_pthread_single_core(source)
        assert result.stdout() == "total=60\n"


class TestTiming:
    def test_overhead_grows_with_thread_count(self):
        def total_for(n):
            source = PROGRAM.replace("4", str(n))
            return run_pthread_single_core(source).stats[
                "scheduling_overhead_cycles"]

        assert total_for(8) > total_for(2)

    def test_all_cycles_on_one_core(self):
        result = run_pthread_single_core(PROGRAM)
        assert list(result.per_core_cycles) == [0]

    def test_seconds_conversion(self):
        config = SCCConfig(core_freq_mhz=800)
        result = run_pthread_single_core(PROGRAM, config)
        assert result.seconds == pytest.approx(
            result.cycles / 800e6)

    def test_total_includes_overhead(self):
        result = run_pthread_single_core(PROGRAM)
        compute = series_value(result.metrics["counters"], "sim_cycles",
                               core=0)
        assert result.cycles == compute + \
            result.stats["scheduling_overhead_cycles"]
