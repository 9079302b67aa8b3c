"""Property: random binary-expression trees over all ten precedence
levels, rendered by codegen with minimal parentheses, parse back to
the same tree, and every BinaryOp's coord is the first token of its
left operand."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront import c_ast
from repro.cfront import parser as parser_module
from repro.cfront.codegen import _PRECEDENCE, generate
from repro.cfront.parser import parse

_BINARY_OPS = ["||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=",
               ">=", "<<", ">>", "+", "-", "*", "/", "%"]

_leaves = st.one_of(
    st.sampled_from("abcxyz").map(c_ast.Id),
    st.integers(min_value=0, max_value=99).map(
        lambda value: c_ast.Constant("int", value, str(value))),
)

_trees = st.recursive(
    _leaves,
    lambda children: st.tuples(st.sampled_from(_BINARY_OPS), children,
                               children).map(
        lambda parts: c_ast.BinaryOp(*parts)),
    max_leaves=12,
)


def _shape(node):
    if isinstance(node, c_ast.BinaryOp):
        return (node.op, _shape(node.left), _shape(node.right))
    if isinstance(node, c_ast.Id):
        return node.name
    return node.value


def _check_coords(node):
    """A BinaryOp starts where its left operand's text starts: at the
    operand's own coord, or one column before it when codegen wrapped
    the operand in parentheses."""
    if not isinstance(node, c_ast.BinaryOp):
        return
    left = node.left
    wrapped = isinstance(left, c_ast.BinaryOp) and \
        _PRECEDENCE[left.op] < _PRECEDENCE[node.op]
    assert node.coord.line == left.coord.line == 1
    assert node.coord.column == left.coord.column - (1 if wrapped else 0)
    _check_coords(left)
    _check_coords(node.right)


class TestBinaryExpressionRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_trees)
    def test_minimal_parentheses_parse_back(self, tree):
        text = generate(tree)
        parsed = parse("int v = %s;" % text).decls[0].init
        assert _shape(parsed) == _shape(tree), text
        _check_coords(parsed)

    def test_generator_covers_the_parser_table(self):
        table = parser_module._BINARY_OPS.values()
        assert {op for _, op in table} == set(_BINARY_OPS)
        assert {level for level, _ in table} == set(range(10))
