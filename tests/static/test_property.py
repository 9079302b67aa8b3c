"""Soundness property: concrete execution lands inside the intervals.

The domain's contract (repro.static.domain) is that the concrete
result of any C expression lies inside the abstract interval.  These
tests generate small integer kernels — straight-line assignment
sequences and bounded accumulation loops — run them concretely in
Python (the engine models mathematical integers, so Python arithmetic
*is* the reference semantics, with ``/`` and ``%`` following C), and
require every final variable value to be contained in the engine's
exit interval."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.static import analyze_source

VARS = ("a", "b", "c")

const = st.integers(min_value=-50, max_value=50)
var = st.sampled_from(VARS)
op = st.sampled_from(("+", "-", "*"))

# x = y op (z | constant), or x = y / c and x = y % c for a nonzero
# constant c
assignment = st.one_of(
    st.tuples(var, var, op, st.one_of(var, const)),
    st.tuples(var, var, st.sampled_from(("/", "%")),
              const.filter(lambda value: value != 0)))


def build_straight_line(inits, statements):
    lines = ["int %s = %d;" % (name, value)
             for name, value in zip(VARS, inits)]
    for target, left, operator, right in statements:
        lines.append("%s = %s %s %s;" % (target, left, operator,
                                         right))
    return "int main() {\n    %s\n    return 0;\n}\n" \
        % "\n    ".join(lines)


def assume_fits_int(value):
    """Skip kernels that overflow a C int: the audit rightly reports
    those as run-time errors, which is not what these tests check."""
    assume(-2 ** 31 <= value < 2 ** 31)


def c_divide(lhs, rhs):
    """C's quotient truncates toward zero; Python's ``//`` floors."""
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs < 0) == (rhs < 0) else -quotient


def run_concrete(inits, statements):
    env = dict(zip(VARS, inits))
    for target, left, operator, right in statements:
        rhs = env[right] if isinstance(right, str) else right
        lhs = env[left]
        if operator == "+":
            env[target] = lhs + rhs
        elif operator == "-":
            env[target] = lhs - rhs
        elif operator == "/":
            env[target] = c_divide(lhs, rhs)
        elif operator == "%":
            # C's remainder takes the dividend's sign; Python's % takes
            # the divisor's
            env[target] = lhs - rhs * c_divide(lhs, rhs)
        else:
            env[target] = lhs * rhs
        assume_fits_int(env[target])
    return env


def exit_intervals(source):
    report = analyze_source(source)
    assert report.rte_findings() == [], report.render()
    return report.interval_engine.exit_intervals("main")


@settings(max_examples=40, deadline=None)
@given(inits=st.tuples(const, const, const),
       statements=st.lists(assignment, min_size=1, max_size=6))
def test_straight_line_kernels_are_contained(inits, statements):
    source = build_straight_line(inits, statements)
    concrete = run_concrete(inits, statements)
    boxes = exit_intervals(source)
    for name in VARS:
        assert name in boxes, source
        assert boxes[name].contains(concrete[name]), \
            "%s = %d outside %r in\n%s" % (name, concrete[name],
                                           boxes[name], source)


@settings(max_examples=40, deadline=None)
@given(start=const, step=const, trips=st.integers(min_value=0,
                                                  max_value=8),
       operator=op)
def test_loop_kernels_are_contained(start, step, trips, operator):
    source = """
int main() {
    int acc = %d;
    int i;
    for (i = 0; i < %d; i++) { acc = acc %s %d; }
    return acc;
}
""" % (start, trips, operator, step)
    acc = start
    for _ in range(trips):
        if operator == "+":
            acc = acc + step
        elif operator == "-":
            acc = acc - step
        else:
            acc = acc * step
        assume_fits_int(acc)
    boxes = exit_intervals(source)
    assert boxes["acc"].contains(acc), \
        "acc = %d outside %r in\n%s" % (acc, boxes["acc"], source)
    assert boxes["i"].contains(trips)
