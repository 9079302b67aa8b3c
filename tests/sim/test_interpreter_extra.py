"""Additional interpreter coverage: 2-D arrays, struct arrays, string
handling, corner semantics."""

import pytest

from repro.cfront.frontend import parse_program
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim.interpreter import Interpreter, InterpreterError
from repro.sim.machine import Memory


def run(source):
    unit = parse_program(source)
    chip = SCCChip(SCCConfig())
    interp = Interpreter(unit, chip, 0, Memory())
    return interp.call_function("main", []), interp


def result_of(body, decls=""):
    return run("%s\nint main(void) { %s }" % (decls, body))[0]


class TestMultiDimensionalArrays:
    def test_2d_local_array(self):
        assert result_of("""
            int m[3][4];
            for (int i = 0; i < 3; i++)
                for (int j = 0; j < 4; j++)
                    m[i][j] = i * 10 + j;
            return m[2][3];""") == 23

    def test_2d_global_array(self):
        assert result_of("g[1][2] = 7; return g[1][2];",
                         decls="int g[2][5];") == 7

    def test_row_decay_to_pointer(self):
        assert result_of("""
            int m[2][3];
            int *row = m[1];
            row[2] = 42;
            return m[1][2];""") == 42

    def test_rows_are_disjoint(self):
        assert result_of("""
            int m[2][3];
            m[0][2] = 5;
            m[1][0] = 9;
            return m[0][2] * 10 + m[1][0];""") == 59

    def test_3d_array(self):
        assert result_of("""
            int cube[2][2][2];
            cube[1][0][1] = 8;
            return cube[1][0][1];""") == 8


class TestStructs:
    def test_array_of_structs(self):
        assert result_of("""
            struct point { int x; int y; };
            struct point pts[3];
            pts[1].x = 4;
            pts[1].y = 5;
            pts[2].x = 6;
            return pts[1].x + pts[1].y + pts[2].x;""") == 15

    def test_struct_with_array_member(self):
        assert result_of("""
            struct buf { int len; int data[4]; };
            struct buf b;
            b.len = 2;
            b.data[1] = 30;
            return b.len + b.data[1];""") == 32

    def test_mixed_field_types(self):
        assert result_of("""
            struct rec { char tag; double value; };
            struct rec r;
            r.tag = 65;
            r.value = 2.5;
            return r.tag + (int)(r.value * 2.0);""") == 70


class TestStringsAndChars:
    def test_char_constant_arithmetic(self):
        assert result_of("return 'A' + 1;") == 66

    def test_char_variable(self):
        assert result_of("char c = 'z'; return c;") == ord("z")

    def test_string_through_printf(self):
        _, interp = run("""
        int main(void) {
            char *msg = "hi there";
            printf("%s!", msg);
            return 0;
        }""")
        assert interp.output == ["hi there!"]


class TestCornerSemantics:
    def test_assignment_value(self):
        assert result_of("int a; int b; b = (a = 6) + 1; "
                         "return a + b;") == 13

    def test_compound_assign_on_array_element(self):
        assert result_of("""
            int a[2];
            a[0] = 10;
            a[0] *= 3;
            a[0] -= 5;
            return a[0];""") == 25

    def test_nested_ternary(self):
        assert result_of("int x = 5; return x > 9 ? 1 : x > 4 ? 2 : 3;"
                         ) == 2

    def test_comma_in_for(self):
        assert result_of("""
            int i; int j; int s = 0;
            for (i = 0, j = 10; i < j; i++, j--) s++;
            return s;""") == 5

    def test_sizeof_variable(self):
        assert result_of("double d[4]; return sizeof d;") == 32

    def test_negative_array_math(self):
        assert result_of("""
            int a[5];
            int *p = &a[4];
            p[-2] = 77;
            return a[2];""") == 77

    def test_while_with_side_effect_condition(self):
        assert result_of("""
            int n = 5; int c = 0;
            while (n--) c++;
            return c;""") == 5

    def test_chained_relational_is_c_not_math(self):
        # (1 < 2) < 0 == 1 < 0 == 0, like C, unlike math
        assert result_of("return 1 < 2 < 0;") == 0

    def test_void_function_returns_none(self):
        value, _ = run("""
        int g;
        void setter(void) { g = 3; }
        int main(void) { setter(); return g; }
        """)
        assert value == 3

    def test_early_return_skips_rest(self):
        assert result_of("return 1; return 2;") == 1


class TestTypedefArithmetic:
    """A typedef'd arithmetic type converts, divides and is sized as
    the type it names."""

    DECLS = "typedef double real; typedef unsigned char byte;"

    def test_initializer_converts_to_double(self):
        value = result_of("real x = 7; return x / 2 == 3.5;",
                          decls=self.DECLS)
        assert value == 1

    def test_global_array_element_is_double(self):
        value = result_of("part[1] = 7; return part[1] / 2 * 2;",
                          decls=self.DECLS + " real part[2];")
        assert value == 7

    def test_zeroed_global_reads_as_double(self):
        # an integer 0 would make (z + 1) / 2 truncate to 0
        assert result_of("return (z + 1) / 2 * 2;",
                         decls=self.DECLS + " real z;") == 1

    def test_pointer_stride_and_cast(self):
        assert result_of("""
            real pair[2];
            real *p = pair;
            p[1] = (real)5 / 2;
            return (int)(pair[1] * 2) + sizeof(real);""",
            decls=self.DECLS) == 13

    def test_integral_typedef_wraps(self):
        assert result_of("byte b = 250; b = b + 10; return b;",
                         decls=self.DECLS) == 4
