"""The interval abstract interpreter's checks, one behaviour each."""

from repro.static import analyze_source
from repro.static.domain import Interval
from repro.static.report import (
    DEFINITE,
    DIV_BY_ZERO,
    OUT_OF_BOUNDS,
    OVERFLOW,
    POSSIBLE,
    UNINIT_READ,
)


def rte(source):
    """Analyze and return the run-time-error findings only."""
    return analyze_source(source).rte_findings()


def exit_intervals(source, function="main"):
    report = analyze_source(source)
    return report.interval_engine.exit_intervals(function)


class TestOutOfBounds:
    def test_definite_constant_index(self):
        findings = rte("""
        int main() {
            int a[4];
            a[7] = 1;
            return 0;
        }
        """)
        assert [f.check for f in findings] == [OUT_OF_BOUNDS]
        assert findings[0].severity == DEFINITE
        assert findings[0].line == 4

    def test_off_by_one_loop(self):
        findings = rte("""
        int main() {
            int a[4];
            int i;
            for (i = 0; i <= 4; i++) { a[i] = i; }
            return 0;
        }
        """)
        assert [f.check for f in findings] == [OUT_OF_BOUNDS]
        assert findings[0].severity == POSSIBLE

    def test_exact_loop_is_clean(self):
        assert rte("""
        int main() {
            int a[4];
            int i;
            for (i = 0; i < 4; i++) { a[i] = i; }
            return 0;
        }
        """) == []

    def test_pointer_into_array_slice(self):
        # the lu benchmark's idiom: a pointer offset into a big array
        assert rte("""
        int mats[24];
        int main() {
            int *mat = &mats[12];
            int i;
            for (i = 0; i < 12; i++) { mat[i] = i; }
            return 0;
        }
        """) == []


class TestDivByZero:
    def test_definite(self):
        findings = rte("""
        int main() {
            int d = 0;
            int x = 5 / d;
            return x;
        }
        """)
        assert [f.check for f in findings] == [DIV_BY_ZERO]
        assert findings[0].severity == DEFINITE

    def test_possible_range_straddles_zero(self):
        findings = rte("""
        int main() {
            int x = 0;
            int d;
            for (d = -1; d <= 1; d++) { x = 10 / d; }
            return x;
        }
        """)
        assert [f.check for f in findings] == [DIV_BY_ZERO]
        assert findings[0].severity == POSSIBLE

    def test_refined_divisor_is_clean(self):
        # primes' trial division: j starts at 2, so i % j is safe
        assert rte("""
        int main() {
            int hits = 0;
            int i;
            int j;
            for (i = 2; i < 50; i++) {
                for (j = 2; j < i; j++) {
                    if (i % j == 0) { hits = hits + 1; }
                }
            }
            return hits;
        }
        """) == []

    def test_float_division_not_flagged(self):
        # IEEE division by zero is defined (inf/nan), not an RTE
        assert rte("""
        int main() {
            double w = 0.0;
            double y = 1.0 / w;
            return 0;
        }
        """) == []


class TestIntegerDivision:
    """C's integer ``/`` truncates toward zero; so does ``>>`` on a
    non-negative left operand."""

    def test_truncated_quotient_indexes_in_bounds(self):
        assert rte("""
        int main() {
            int arr[4];
            int a = 7;
            arr[a / 2] = 1;
            return 0;
        }
        """) == []

    def test_shift_exits_truncated(self):
        boxes = exit_intervals("""
        int main() {
            int a = 7;
            int b = a >> 1;
            return b;
        }
        """)
        assert boxes["b"] == Interval.const(3)

    def test_negative_quotient_truncates_toward_zero(self):
        boxes = exit_intervals("""
        int main() {
            int a = -7;
            int b = a / 2;
            int c = 7 / -2;
            return b + c;
        }
        """)
        assert boxes["b"] == Interval.const(-3)
        assert boxes["c"] == Interval.const(-3)

    def test_floating_division_decided_by_type(self):
        # x holds int bounds, but x / 2 is a double division
        boxes = exit_intervals("""
        int main() {
            double x = 7;
            double y = x / 2;
            return 0;
        }
        """)
        assert boxes["y"] == Interval.const(3.5)


class TestOverflow:
    def test_definite_in_loop(self):
        findings = rte("""
        int main() {
            int i;
            int acc = 0;
            for (i = 100000; i < 100100; i++) { acc = i * i; }
            return 0;
        }
        """)
        assert all(f.check == OVERFLOW for f in findings)
        assert any(f.severity == DEFINITE for f in findings)

    def test_widened_accumulator_not_flagged(self):
        # the accumulator widens to +inf; an infinite bound is the
        # abstraction talking, not the program, so no finding
        assert rte("""
        int main() {
            int acc = 0;
            int i;
            for (i = 0; i < 100000; i++) { acc = acc + 1000; }
            return acc;
        }
        """) == []

    def test_unsigned_wrap_is_defined(self):
        assert rte("""
        int main() {
            unsigned int x = 3000000000;
            x = x * 2;
            return 0;
        }
        """) == []


class TestUninitRead:
    def test_read_before_any_store(self):
        findings = rte("""
        int main() {
            int x;
            int y;
            y = x + 1;
            return y;
        }
        """)
        assert [f.check for f in findings] == [UNINIT_READ]
        assert findings[0].variable == "x"

    def test_initialized_on_both_branches_clean(self):
        assert rte("""
        int main() {
            int flag = 1;
            int x;
            if (flag) { x = 1; } else { x = 2; }
            return x;
        }
        """) == []

    def test_address_taken_escapes(self):
        # &x hands the storage to somebody else; reads stop being
        # provably uninitialized
        assert rte("""
        void fill(int *slot) { *slot = 4; }
        int main() {
            int x;
            fill(&x);
            return x + 1;
        }
        """) == []


class TestPrecision:
    def test_constants_propagate(self):
        boxes = exit_intervals("""
        int main() {
            int a = 3;
            int b = a * 4 + 2;
            return b;
        }
        """)
        assert boxes["b"] == Interval.const(14)

    def test_branch_refinement(self):
        boxes = exit_intervals("""
        int main() {
            int n = 0;
            int i;
            for (i = 0; i < 10; i++) { n = i; }
            return n;
        }
        """)
        # the loop head widens; the exit edge's !(i < 10) refinement
        # recovers the lower bound (no narrowing pass, so hi stays inf
        # — the in-bounds array tests above pin the body-edge
        # refinement that matters for the checks)
        assert boxes["i"].lo == 10
        assert boxes["n"].lo == 0
        assert boxes["n"].contains(9)

    def test_interprocedural_return_summary(self):
        boxes = exit_intervals("""
        int half(int n) { return n / 2; }
        int main() {
            int r = half(10);
            return r;
        }
        """)
        assert boxes["r"] == Interval.const(5)

    def test_thread_argument_seeding(self):
        # pthread_create's arg seeds the thread function's parameter,
        # which is what keeps sum[tLocal] in bounds for EXAMPLE_4_1
        assert rte("""
        #include <pthread.h>
        int sum[3];
        void *tf(void *tid) {
            int tLocal = (int)tid;
            sum[tLocal] = tLocal;
            return 0;
        }
        int main() {
            pthread_t th[3];
            int i;
            for (i = 0; i < 3; i++)
                pthread_create(&th[i], 0, tf, (void *)i);
            for (i = 0; i < 3; i++)
                pthread_join(th[i], 0);
            return 0;
        }
        """) == []
