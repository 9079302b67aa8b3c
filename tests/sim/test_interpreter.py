"""Interpreter tests: C semantics and cycle accounting."""

import pytest

from repro.cfront.frontend import parse_program
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim.interpreter import (
    Interpreter,
    InterpreterError,
    StepLimitExceeded,
)
from repro.sim.machine import Memory


def run(source, entry="main", args=(), max_steps=2_000_000):
    unit = parse_program(source)
    chip = SCCChip(SCCConfig())
    interp = Interpreter(unit, chip, 0, Memory(), max_steps=max_steps)
    value = interp.call_function(entry, args)
    return value, interp


def result_of(body, decls=""):
    source = "%s\nint main(void) { %s }" % (decls, body)
    return run(source)[0]


class TestArithmetic:
    def test_integer_ops(self):
        assert result_of("return 2 + 3 * 4;") == 14

    def test_division_truncates_toward_zero(self):
        assert result_of("return -7 / 2;") == -3
        assert result_of("return 7 / -2;") == -3

    def test_modulo_sign_follows_dividend(self):
        assert result_of("return -7 % 3;") == -1
        assert result_of("return 7 % -3;") == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpreterError):
            result_of("int z = 0; return 1 / z;")

    def test_float_arithmetic(self):
        value = result_of("double x = 1.5; double y = 2.0; "
                          "return (int)(x * y * 10.0);")
        assert value == 30

    def test_comparisons_give_zero_one(self):
        assert result_of("return 3 < 4;") == 1
        assert result_of("return 3 > 4;") == 0

    def test_bitwise(self):
        assert result_of("return (12 & 10) | (1 << 4) | (5 ^ 1);") == \
            ((12 & 10) | (1 << 4) | (5 ^ 1))

    def test_shifts(self):
        assert result_of("return 1 << 10;") == 1024
        assert result_of("return 1024 >> 3;") == 128

    def test_unary(self):
        assert result_of("return -(5) + !0 + ~0;") == -5

    def test_logical_short_circuit(self):
        # the right side would divide by zero if evaluated
        assert result_of("int z = 0; return 0 && (1 / z);") == 0
        assert result_of("int z = 0; return 1 || (1 / z);") == 1

    def test_ternary(self):
        assert result_of("int x = 5; return x > 3 ? 10 : 20;") == 10

    def test_int_overflow_wraps_on_store(self):
        assert result_of(
            "int x = 2147483647; x = x + 1; return x < 0;") == 1


class TestControlFlow:
    def test_while_loop(self):
        assert result_of(
            "int i = 0; int s = 0; while (i < 5) { s += i; i++; } "
            "return s;") == 10

    def test_for_loop(self):
        assert result_of(
            "int s = 0; for (int i = 1; i <= 4; i++) s *= 2, s += i; "
            "return s;") == 26

    def test_do_while_runs_once(self):
        assert result_of(
            "int i = 10; int n = 0; do { n++; } while (i < 5); "
            "return n;") == 1

    def test_break_and_continue(self):
        assert result_of("""
            int s = 0;
            for (int i = 0; i < 10; i++) {
                if (i == 3) continue;
                if (i == 6) break;
                s += i;
            }
            return s;""") == 0 + 1 + 2 + 4 + 5

    def test_nested_loop_break_inner_only(self):
        assert result_of("""
            int n = 0;
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 10; j++) {
                    if (j == 2) break;
                    n++;
                }
            }
            return n;""") == 6

    def test_switch_with_fallthrough(self):
        assert result_of("""
            int x = 2; int r = 0;
            switch (x) {
                case 1: r += 1;
                case 2: r += 10;
                case 3: r += 100; break;
                default: r += 1000;
            }
            return r;""") == 110

    def test_switch_default(self):
        assert result_of("""
            int x = 9; int r = 0;
            switch (x) { case 1: r = 1; break; default: r = 42; }
            return r;""") == 42

    def test_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            run("int main(void) { while (1) { } return 0; }",
                max_steps=1000)


class TestPointersAndArrays:
    def test_address_of_and_deref(self):
        assert result_of(
            "int x = 5; int *p = &x; *p = 9; return x;") == 9

    def test_array_indexing(self):
        assert result_of("""
            int a[4];
            for (int i = 0; i < 4; i++) a[i] = i * i;
            return a[3];""") == 9

    def test_array_decay_to_pointer(self):
        assert result_of("""
            int a[3];
            int *p = a;
            p[1] = 7;
            return a[1];""") == 7

    def test_pointer_arithmetic_strides(self):
        assert result_of("""
            double d[3];
            double *p = d;
            *(p + 2) = 2.5;
            return (int)(d[2] * 2.0);""") == 5

    def test_pointer_difference(self):
        assert result_of("""
            int a[8];
            int *p = &a[1];
            int *q = &a[6];
            return q - p;""") == 5

    def test_null_deref_raises(self):
        with pytest.raises(InterpreterError):
            result_of("int *p = 0; return *p;")

    def test_2d_array_via_flat_indexing(self):
        assert result_of("""
            int m[12];
            m[2 * 4 + 3] = 99;
            return m[11];""") == 99

    def test_global_array_initializer(self):
        assert result_of("return g[0] + g[1] + g[2];",
                         decls="int g[3] = {5, 6, 7};") == 18

    def test_global_zero_initialized(self):
        assert result_of("return g[7];", decls="int g[16];") == 0

    def test_struct_member_access(self):
        assert result_of("""
            struct point { int x; int y; };
            struct point p;
            p.x = 3;
            p.y = 4;
            return p.x * p.x + p.y * p.y;""") == 25

    def test_struct_pointer_arrow(self):
        assert result_of("""
            struct pair { int a; int b; };
            struct pair v;
            struct pair *p = &v;
            p->b = 12;
            return v.b;""") == 12


class TestFunctions:
    def test_call_and_return(self):
        source = """
        int square(int x) { return x * x; }
        int main(void) { return square(6); }
        """
        assert run(source)[0] == 36

    def test_recursion(self):
        source = """
        int fib(int n) { if (n < 2) return n;
                         return fib(n - 1) + fib(n - 2); }
        int main(void) { return fib(10); }
        """
        assert run(source)[0] == 55

    def test_pointer_argument_mutation(self):
        source = """
        void setit(int *p) { *p = 77; }
        int main(void) { int x = 0; setit(&x); return x; }
        """
        assert run(source)[0] == 77

    def test_function_pointer_call(self):
        source = """
        int twice(int x) { return 2 * x; }
        int main(void) { int (*f)(int) = twice; return f(21); }
        """
        assert run(source)[0] == 42

    def test_stack_frames_restore(self):
        source = """
        int helper(void) { int big[100]; big[0] = 1; return big[0]; }
        int main(void) {
            int total = 0;
            for (int i = 0; i < 50; i++) total += helper();
            return total;
        }
        """
        value, interp = run(source)
        assert value == 50
        # the stack pointer must have been restored every call
        assert interp.stack.used < 100 * 4 * 50
        # an early return from inside nested loops unwinds through the
        # call's frame restore too
        source = """
        int find(int target) {
            int big[100];
            for (int i = 0; i < 10; i++) {
                for (int j = 0; j < 10; j++) {
                    big[i * 10 + j] = i * 10 + j;
                    if (big[i * 10 + j] == target) return i;
                }
            }
            return -1;
        }
        int main(void) {
            int total = 0;
            for (int k = 0; k < 50; k++) total += find(42);
            return total;
        }
        """
        value, interp = run(source)
        assert value == 4 * 50
        assert interp.stack.used < 100 * 4 * 50

    def test_undefined_function_raises(self):
        with pytest.raises(InterpreterError):
            result_of("return mystery();")

    def test_undefined_identifier_raises(self):
        with pytest.raises(InterpreterError):
            result_of("return nonexistent;")


class TestCycleAccounting:
    def test_cycles_strictly_increase(self):
        _, interp = run("int main(void) { int x = 1 + 2; return x; }")
        assert interp.cycles > 0

    def test_div_costs_more_than_add(self):
        _, add_interp = run(
            "int main(void) { int s = 0; "
            "for (int i = 0; i < 100; i++) s = s + 3; return s; }")
        _, div_interp = run(
            "int main(void) { int s = 1000000; "
            "for (int i = 0; i < 100; i++) s = s / 3; return s; }")
        assert div_interp.cycles > add_interp.cycles

    def test_work_scales_cycles(self):
        def cycles_for(n):
            _, interp = run(
                "int main(void) { int s = 0; "
                "for (int i = 0; i < %d; i++) s += i; return s; }" % n)
            return interp.cycles

        assert cycles_for(1000) > 5 * cycles_for(100)

    def test_deterministic(self):
        source = """
        int main(void) {
            double s = 0.0;
            for (int i = 0; i < 50; i++) s = s + 1.0 / (i + 1);
            return (int)s;
        }
        """
        assert run(source)[1].cycles == run(source)[1].cycles
