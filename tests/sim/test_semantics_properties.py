"""Property-based check: the interpreter implements C expression
semantics.  Random integer expressions are rendered to C, run through
the interpreter, and compared against a Python oracle implementing the
C rules (truncating division, sign-following modulo, in-range shifts).
The main property also routes each result through pointer stores."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cfront.frontend import parse_program
from repro.scc.chip import SCCChip
from repro.scc.config import SCCConfig
from repro.sim.interpreter import Interpreter
from repro.sim.machine import Memory


_TINY_CONFIG = SCCConfig(num_cores=2, mesh_columns=1, mesh_rows=1,
                         cores_per_tile=2, num_memory_controllers=1)


def _run_main(bindings, body):
    decls = "".join("int %s = %d;\n" % (name, value)
                    for name, value in bindings.items())
    source = "%sint out[2];\nint main(void) { %s }" % (decls, body)
    unit = parse_program(source)
    interp = Interpreter(unit, SCCChip(_TINY_CONFIG), 0, Memory())
    return interp.call_function("main", [])


def interpret(expr_text, bindings):
    return _run_main(bindings, "return %s;" % expr_text)


def interpret_stored(expr_text, bindings):
    """The value of ``expr_text`` after an indexed and a dereferenced
    pointer store, read back from the array."""
    return _run_main(bindings, "int *p = out; p[0] = %s; "
                     "*(p + 1) = p[0]; return out[1];" % expr_text)


def c_div(a, b):
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def c_mod(a, b):
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


class _Node:
    """Oracle expression tree."""

    def __init__(self, op, left=None, right=None, leaf=None):
        self.op = op
        self.left = left
        self.right = right
        self.leaf = leaf

    def render(self):
        if self.op == "leaf":
            if isinstance(self.leaf, int) and self.leaf < 0:
                return "(%d)" % self.leaf  # keep -(-1) from lexing as --
            return str(self.leaf)
        if self.right is None:
            return "(%s%s)" % (self.op, self.left.render())
        return "(%s %s %s)" % (self.left.render(), self.op,
                               self.right.render())

    def evaluate(self, env):
        if self.op == "leaf":
            if isinstance(self.leaf, str):
                return env[self.leaf]
            return self.leaf
        if self.right is None:
            value = self.left.evaluate(env)
            if self.op == "-":
                return -value
            if self.op == "!":
                return 0 if value else 1
            if self.op == "~":
                return ~value
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if self.op in ("/", "%") and right == 0:
            raise ZeroDivisionError
        table = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: c_div(left, right),
            "%": lambda: c_mod(left, right),
            "<": lambda: int(left < right),
            ">": lambda: int(left > right),
            "<=": lambda: int(left <= right),
            ">=": lambda: int(left >= right),
            "==": lambda: int(left == right),
            "!=": lambda: int(left != right),
            "&": lambda: left & right,
            "|": lambda: left | right,
            "^": lambda: left ^ right,
            "<<": lambda: left << right,
            ">>": lambda: left >> right,
        }
        return table[self.op]()


_leaves = st.one_of(
    st.integers(min_value=-50, max_value=50).map(
        lambda v: _Node("leaf", leaf=v)),
    st.sampled_from(["a", "b", "c"]).map(
        lambda n: _Node("leaf", leaf=n)),
)

_binops = st.sampled_from(["+", "-", "*", "/", "%", "<", ">", "<=",
                           ">=", "==", "!=", "&", "|", "^"])
_shifts = st.sampled_from(["<<", ">>"])


def _shift(op, left, right):
    """``left op (right & 7)``: shift counts stay in range."""
    return _Node(op, left, _Node("&", right, _Node("leaf", leaf=7)))


_unops = st.sampled_from(["-", "!", "~"])

_exprs = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.tuples(_binops, children, children).map(
            lambda t: _Node(t[0], t[1], t[2])),
        st.tuples(_shifts, children, children).map(
            lambda t: _shift(*t)),
        st.tuples(_unops, children).map(
            lambda t: _Node(t[0], t[1])),
    ),
    max_leaves=10,
)

_env = st.fixed_dictionaries({
    "a": st.integers(min_value=-100, max_value=100),
    "b": st.integers(min_value=-100, max_value=100),
    "c": st.integers(min_value=-100, max_value=100),
})


class TestExpressionSemantics:
    @settings(max_examples=200, deadline=None)
    @given(_exprs, _env)
    def test_interpreter_matches_c_oracle(self, tree, env):
        try:
            expected = tree.evaluate(env)
        except ZeroDivisionError:
            assume(False)  # skip expressions that divide by zero
            return
        assume(-2 ** 31 <= expected < 2 ** 31)  # stay in int range
        # leaf constants render negatives with parens via unary minus
        text = tree.render()
        result = interpret_stored(text, env)
        assert result == expected, text

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=-99, max_value=99),
           st.integers(min_value=-99, max_value=99))
    def test_division_identity(self, a, b):
        """C guarantees (a/b)*b + a%b == a."""
        assume(b != 0)
        quotient = interpret("a / b", {"a": a, "b": b})
        remainder = interpret("a % b", {"a": a, "b": b})
        assert quotient * b + remainder == a

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=30))
    def test_shift_powers(self, n):
        assert interpret("1 << a", {"a": n}) == 2 ** n
