"""The paper's central soundness claim, checked empirically:

    Stage 1-3 identifies "a conservative superset of all the shared
    data" — everything threads actually share at runtime must be in
    the static set.

A dynamic detector (the related-work approach: the race detector's
variable map) observes real sharing under the interpreter; the static
set must cover it on every benchmark and on targeted corner cases.
"""

import os

import pytest

from repro.bench.programs import BENCHMARKS, EXAMPLE_4_1, \
    benchmark_source
from repro.core.dynamic import compare_static_dynamic

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

TINY = {
    "pi": {"steps": 64},
    "sum35": {"limit": 64},
    "primes": {"limit": 48},
    "stream": {"n": 32},
    "dot": {"n": 32},
    "lu": {"batch": 4, "dim": 4},
}


class TestConservativeSuperset:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmarks(self, name):
        source = benchmark_source(name, nthreads=4, **TINY[name])
        comparison = compare_static_dynamic(source)
        assert comparison.is_conservative_superset, \
            "missed: %r" % comparison.missed
        assert comparison.dynamic_shared  # the workers do share data

    def test_running_example(self):
        comparison = compare_static_dynamic(EXAMPLE_4_1)
        assert comparison.is_conservative_superset
        # sum is written by threads and read by main: observably shared
        assert (None, "sum") in comparison.dynamic_shared
        # tmp is reached by threads only through *ptr: the dynamic
        # detector sees it, Stage 3 covered it
        assert ("main", "tmp") in comparison.dynamic_shared
        assert ("main", "tmp") in comparison.static_shared

    def test_pointer_laundered_sharing_detected_both_ways(self):
        source = """
        #include <pthread.h>
        int *p;
        void *tf(void *t) { *p = (int)t; return 0; }
        int main(void) {
            int hidden = 0;
            p = &hidden;
            pthread_t a;
            pthread_create(&a, 0, tf, (void *)7);
            pthread_join(a, 0);
            return hidden;
        }
        """
        comparison = compare_static_dynamic(source)
        assert ("main", "hidden") in comparison.dynamic_shared
        assert comparison.is_conservative_superset

    def test_pointer_thread_argument_not_missed(self):
        """Threads reaching main's local through their argument share
        it; Stage 3 must mark it shared (Stage 5 rejects the call)."""
        with open(os.path.join(FIXTURES, "thread_arg_local.c")) as handle:
            comparison = compare_static_dynamic(handle.read())
        assert ("main", "local") in comparison.dynamic_shared
        assert comparison.is_conservative_superset, \
            "missed: %r" % comparison.missed

    def test_overapproximation_is_the_expected_direction(self):
        """A global only main touches: statically shared (conservative),
        dynamically private — static may overapproximate, never miss."""
        source = """
        #include <pthread.h>
        int main_only;
        int worked[2];
        void *tf(void *t) { worked[(int)t] = 1; return 0; }
        int main(void) {
            pthread_t a, b;
            main_only = 5;
            pthread_create(&a, 0, tf, (void *)0);
            pthread_create(&b, 0, tf, (void *)1);
            pthread_join(a, 0);
            pthread_join(b, 0);
            return main_only;
        }
        """
        comparison = compare_static_dynamic(source)
        assert comparison.is_conservative_superset
        assert (None, "main_only") in comparison.overapproximation

    def test_tightness_bounded(self):
        source = benchmark_source("dot", nthreads=4, n=32)
        comparison = compare_static_dynamic(source)
        assert 0.0 <= comparison.tightness <= 1.0


class TestDynamicDetector:
    def test_private_locals_not_flagged(self):
        source = benchmark_source("pi", nthreads=4, steps=64)
        comparison = compare_static_dynamic(source)
        worker_locals = {key for key in comparison.dynamic_shared
                         if key[0] == "pi_worker"}
        assert worker_locals == set()

    def test_thread_ids_count_as_distinct_accessors(self):
        source = """
        #include <pthread.h>
        int touched;
        void *tf(void *t) { touched = touched + 1; return 0; }
        int main(void) {
            pthread_t a, b;
            pthread_create(&a, 0, tf, 0);
            pthread_create(&b, 0, tf, 0);
            pthread_join(a, 0);
            pthread_join(b, 0);
            return 0;
        }
        """
        comparison = compare_static_dynamic(source)
        assert (None, "touched") in comparison.dynamic_shared

    def test_block_builtins_are_observed(self):
        """memset records its whole span through the race detector's
        ``record_range``: two threads that touch ``buf`` only through
        it share ``buf``."""
        source = """
        #include <pthread.h>
        #include <string.h>
        int buf[4];
        void *tf(void *t) { memset(buf, 0, sizeof(buf)); return 0; }
        int main(void) {
            pthread_t a, b;
            pthread_create(&a, 0, tf, 0);
            pthread_create(&b, 0, tf, 0);
            pthread_join(a, 0);
            pthread_join(b, 0);
            return 0;
        }
        """
        comparison = compare_static_dynamic(source)
        assert (None, "buf") in comparison.dynamic_shared
        assert comparison.is_conservative_superset

    def test_single_thread_global_not_dynamically_shared(self):
        source = """
        #include <pthread.h>
        int only_one;
        void *tf(void *t) { only_one = 1; return 0; }
        int main(void) {
            pthread_t a;
            pthread_create(&a, 0, tf, 0);
            pthread_join(a, 0);
            return 0;
        }
        """
        comparison = compare_static_dynamic(source)
        assert (None, "only_one") not in comparison.dynamic_shared
        # ...but the static analysis keeps it shared: conservative
        assert (None, "only_one") in comparison.static_shared
