"""Differential check of the generated closures.

``repro.sim.compile`` generates every statement and expression from
source templates that take a constant, a local scalar or a global
scalar inline.  Hypothesis generates functions whose expressions,
conditions and updates mix constant, local and global operands of
``int``, ``long``, ``double`` and pointer type: binary, unary,
logical and conditional operators, casts, pointer and array loads,
loads, stores and updates of ``p[i]`` for local and global pointers
(typed at compile time) and of an ``int **`` element, calls of a unit
function, ``if``, ``for``, ``while``, ``do``-``while``,
``switch``, ``break``, ``continue`` and ``return``, with zero
divisors, reads of a local whose declaration was skipped, pointer
comparisons against non-pointers, operators the C subset rejects on
pointers, and ints stored into a double's memory.  Each program runs
twice: compiled as it always is, and with the operand classifier
answering "any compiled child" for every operand, so that every node
runs behind a closure of its own and every variable loads through an
lvalue closure.  Both runs must give the same stdout, cycles,
per-core cycles, steps and chip metrics, or fail with the same
exception, message and step count.  Hand-written cases add a
subscript of a NULL global pointer and a pointer written through a
differently typed alias, where the typed subscript's guard misses.
"""

import contextlib
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.frontend import parse_program
from repro.sim import compile as sim_compile
from repro.sim.runner import run_pthread_single_core
from tests.sim.goldens import signature, tiny_chip

PROGRAM = """
#include <stdio.h>

int gi = 7;
long gl = -5;
double gd = 2.5;
int garr[8];
int *gp;
int **gq;

long u(int a, long b, double c) {
    gi = gi + a;
    return a * 3 - b + (long)c;
}

int f(int n, long m, double x, int *q) {
    int li = n;
    int lj = 3;
    long ll = m;
    double ld = x;
    int *lp = q;
    int k;
    if (n & 1)
        *(int *)&gd = n;
    switch (n & 3) {
    case 0:
        lj = 4;
        int lu = lj + n;
    default:
%s
    }
    printf("%%d %%d %%ld %%f %%d %%ld %%f\\n", li, lj, ll, ld, gi, gl, gd);
    return li;
}

int main(void) {
    int r;
    gp = garr;
    gq = &gp;
    for (r = 0; r < 8; r++)
        garr[r] = r - 3;
    for (r = 0; r < 4; r++)
        printf("%%d\\n", f(r - 1, 3 * r - 2, r * 0.75, garr + r));
    return 0;
}
"""

# ``lu`` is declared only when ``f`` enters its switch at case 0
_LEAVES = ("0", "1", "2", "3", "(-2)", "7", "0.5", "2.0", "0.0",
           "li", "lj", "k", "ll", "ld", "lp",
           "gi", "gl", "gd", "gp", "garr[2]", "lu", "gp[1]", "gq[0]")
_ARGS = ("0", "3", "0.5", "li", "ll", "ld", "k", "gi", "gl", "gd",
         "lu")
_OPS = ("+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=",
        "&", "|", "^", "<<", ">>", "&&", "||")
_UNARY = ("-", "!", "~", "(int)", "(double)", "(long)")
_UPDATES = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
            "<<=", ">>=")
# an int stored through an alias of a double reads back converted
_TARGETS = ("li", "lj", "ll", "ld", "lp", "gi", "gl", "gd", "gp",
            "garr[1]", "*lp", "lp[1]", "lu", "(*(int *)&ld)",
            "(*(int *)&gd)", "gp[2]", "gq[0][1]")
_STEPS = ("++", "--")


@st.composite
def _expr(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        return draw(st.sampled_from(_LEAVES))
    kind = draw(st.integers(0, 9))
    if kind == 6:
        return "%s(%s)" % (draw(st.sampled_from(_UNARY)),
                           draw(_expr(depth=depth + 1)))
    if kind == 7:
        return "(%s ? %s : %s)" % (draw(_expr(depth=depth + 1)),
                                   draw(_expr(depth=depth + 1)),
                                   draw(_expr(depth=depth + 1)))
    if kind == 8:
        index = draw(_expr(depth=depth + 1))
        return draw(st.sampled_from(("*lp", "lp[(%s) & 3]" % index,
                                     "gp[(%s) & 3]" % index,
                                     "garr[(%s) & 7]" % index)))
    if kind == 9:
        return "u(%s, %s, %s)" % tuple(draw(st.sampled_from(_ARGS))
                                       for _ in range(3))
    op = draw(st.sampled_from(_OPS))
    left = draw(_expr(depth=depth + 1))
    right = draw(_expr(depth=depth + 1))
    if op in ("<<", ">>"):
        right = "(%s & 7)" % right      # shift counts stay small
    return "(%s %s %s)" % (left, op, right)


@st.composite
def _update(draw):
    target = draw(st.sampled_from(_TARGETS))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        op = draw(st.sampled_from(_UPDATES))
        value = draw(_expr())
        if op in ("<<=", ">>="):
            value = "(%s & 7)" % value
        return "%s %s %s" % (target, op, value)
    step = draw(st.sampled_from(_STEPS))
    return target + step if kind == 1 else step + target


@st.composite
def _stmt(draw, depth=0, loop=False):
    kind = draw(st.integers(0, 9 if depth < 2 else 2))
    if kind <= 1:
        return draw(_update()) + ";"
    if kind == 2:
        return "li = %s;" % draw(st.one_of(_expr(), _update()))
    if kind == 9:
        if loop and draw(st.booleans()):
            return "if (%s) %s;" % (draw(_expr()), draw(
                st.sampled_from(("break", "continue"))))
        return "if (%s) return %s;" % (draw(_expr()), draw(_expr()))
    inner = loop or kind in (4, 5, 6)
    body = " ".join(draw(st.lists(_stmt(depth=depth + 1, loop=inner),
                                  min_size=1, max_size=3)))
    cond = draw(st.one_of(_expr(), _update()))
    bound = draw(st.sampled_from(("3", "lj", "(li & 3)")))
    if kind == 3:
        if draw(st.booleans()):
            other = draw(_stmt(depth=depth + 1, loop=loop))
            return "if (%s) { %s } else { %s }" % (cond, body, other)
        return "if (%s) { %s }" % (cond, body)
    if kind == 4:
        step = draw(st.sampled_from(("k++", "++k", "k += 1", "k = k + 1")))
        init = draw(st.sampled_from(("k = 0", "")))
        return "for (%s; k < %s; %s) { %s }" % (init, bound, step, body)
    # the loop counter steps first, so ``continue`` cannot skip it
    if kind == 5:
        return "while (k < %s && (%s)) { k++; %s }" % (bound, cond, body) \
            if draw(st.booleans()) else \
            "while (k < %s) { k++; %s }" % (bound, body)
    if kind == 6:
        return "k = 0; do { k++; %s } while (k < %s);" % (body, bound)
    if kind == 7:
        return ("switch (%s) { case 0: %s break; case 1: li++; "
                "default: %s }" % (draw(_expr()), body,
                                   draw(_stmt(depth=depth + 1,
                                              loop=loop))))
    return "%s;" % draw(_expr())


_bodies = st.lists(_stmt(), min_size=1, max_size=6)


def _generic():
    """Every operand, lvalue and statement expression a compiled
    child: the closure tree the templates stand in for."""
    return mock.patch.object(sim_compile, "_operand_mode",
                             lambda fc, expr: "c")


def _run(source, generic, max_steps):
    """The outcome of one run: its signature, or the exception with
    the chip's metrics (which hold each core's steps and cycles)."""
    unit = parse_program(source)    # a fresh unit: a fresh compile
    with _generic() if generic else contextlib.nullcontext():
        sim_compile.compile_unit(unit)
    chip = tiny_chip()
    try:
        result = run_pthread_single_core(unit, chip=chip,
                                         max_steps=max_steps)
    except Exception as exc:  # noqa: BLE001 - compared below
        return ("error", type(exc), str(exc), chip.metrics.snapshot())
    return ("ok", signature(result))


@given(body=_bodies, max_steps=st.sampled_from((50_000, 700, 333)))
@settings(max_examples=60, deadline=None)
def test_specialized_matches_generic(body, max_steps):
    source = PROGRAM % "\n".join("        " + line for line in body)
    assert _run(source, False, max_steps) == _run(source, True, max_steps)


def test_generic_mode_takes_no_operand_inline():
    """The classifier patch reaches every template, so the property
    above compares two different closure trees."""
    source = """
        #include <stdio.h>
        int g = 10;
        int main(void) {
            int i;
            int s = 0;
            for (i = 0; i < 10; i++) s += i;
            while (i > 0) { i--; if (i < 3) break; }
            do s = s - g; while (s > 40);
            printf("%d\\n", g);
            return s + g;
        }
    """
    real_build = sim_compile._Shape.build
    built = {}
    for generic in (False, True):
        names = built[generic] = []

        def build(shape, name, names=names):
            names.append(name)
            return real_build(shape, name)

        unit = parse_program(source)
        with mock.patch.object(sim_compile._Shape, "build", build), \
                _generic() if generic else contextlib.nullcontext():
            sim_compile.compile_unit(unit)
        result = run_pthread_single_core(unit, chip=tiny_chip())
        assert (result.exit_value, result.stdout()) == (45, "10\n")
    for name in ("for_lt_lk_post_incdec_l", "stmt_add_set_ll",
                 "for_gt_lk", "if_lt_lk", "do_gt_lk", "ret_c", "add_lg",
                 "decl_k", "load_g", "brk", "seq"):
        assert name in built[False], name
    assert "load_l" not in built[True] and "load_g" not in built[True]
    for name in ("for_c_c", "for_c", "do_c", "ret_c", "decl_c", "load_v",
                 "load_k", "post_incdec_v", "add_set_vc"):
        assert name in built[True], name
    for name in built[True]:
        # a name ends in one letter per operand: k constant, l/f local,
        # g global, c child, v/d lvalue; only a leaf (a constant, or an
        # array's address) takes a constant or a variable
        kind, _, tags = name.rpartition("_")
        assert not kind or name.startswith(("load_", "addr_")) \
            or not set(tags) & set("klfg"), name


# ``p[i]`` where ``p`` is a local or global pointer scalar is typed at
# compile time behind a guard on the pointer's pointee; the generic
# run takes the run-time-typed lvalue for every subscript
TYPED_SUBSCRIPTS = {
    "stores_and_updates": """
        #include <stdio.h>
        double *gd;
        int main(void) {
            double buf[4];
            int ibuf[4];
            char cbuf[4];
            int *ip = ibuf;
            char *cp = cbuf;
            int i;
            gd = buf;
            for (i = 0; i < 4; i++) {
                gd[i] = i * 0.5;
                ip[i] = i;
                cp[i] = 120 + i;
            }
            gd[1] += 2;
            ip[2] *= 7;
            cp[3] += 10;
            gd[2]++;
            --ip[1];
            i = ip[3]++;
            printf("%f %f %d %d %d %d %d\\n", gd[1], gd[2], ip[1], ip[2],
                   ip[3], cp[3], i);
            return ip[2] + cp[0];
        }
    """,
    "pointer_elements": """
        #include <stdio.h>
        int g[3];
        int *gp;
        int **gq;
        int main(void) {
            int *row[2];
            int **q = row;
            gp = g;
            gq = &gp;
            q[0] = g;
            q[1] = g + 1;
            q[1][1] = 5;
            gq[0][0] = 4;
            gq[0]++;
            printf("%d %d %d\\n", g[0], g[2], gp[0]);
            return q[0][2] + gq[0][1];
        }
    """,
    # static init leaves a NULL: the guard misses, and the subscript
    # fails as the run-time-typed one does, at the same step
    "null_global_load": """
        int *gn;
        int main(void) {
            int x = 1;
            x = x + gn[3];
            return x;
        }
    """,
    "null_global_store": """
        double *gn;
        int main(void) {
            int x = 2;
            gn[x] = 1.5;
            return x;
        }
    """,
    # a pointer written through a differently typed alias carries the
    # alias's pointee: the guard misses and the element is a double
    "alias_written_pointer": """
        #include <stdio.h>
        double d[4];
        int *p;
        int main(void) {
            *(double **)&p = d;
            p[1] = 7;
            p[1] = p[1] / 2;
            p[2] += 1;
            p[3]++;
            printf("%f %f %f\\n", d[1], d[2], d[3]);
            return 0;
        }
    """,
}

# a typed subscript's mode letter leads a load's or a target's tags
_TYPED_SHAPE = re.compile(r"(?:^load|set|incdec)_s")

TYPED_OUTCOMES = {
    "stores_and_updates": ("ok", "2.500000 2.000000 0 14 4 -123 3\n"),
    "pointer_elements": ("ok", "4 5 0\n"),
    "null_global_load": ("error", "address 0x3 is outside every segment"),
    "null_global_store": ("error", "address 0x2 is outside every segment"),
    "alias_written_pointer": ("ok", "3.500000 1.000000 1.000000\n"),
}


def _typed_run(source, generic):
    names = []
    real_build = sim_compile._Shape.build

    def build(shape, name):
        names.append(name)
        return real_build(shape, name)

    with mock.patch.object(sim_compile._Shape, "build", build):
        outcome = _run(source, generic, 50_000)
    return outcome, names


def _summary(outcome):
    if outcome[0] == "ok":
        return "ok", outcome[1]["stdout"]
    return "error", outcome[2]


@pytest.mark.parametrize("case", sorted(TYPED_SUBSCRIPTS))
def test_typed_subscripts_match_generic(case):
    typed, names = _typed_run(TYPED_SUBSCRIPTS[case], False)
    generic, generic_names = _typed_run(TYPED_SUBSCRIPTS[case], True)
    assert typed == generic
    assert _summary(typed) == TYPED_OUTCOMES[case]
    # the specialized run took the typed shapes, the generic run none
    assert [name for name in names if _TYPED_SHAPE.search(name)]
    assert not [name for name in generic_names
                if _TYPED_SHAPE.search(name)]
