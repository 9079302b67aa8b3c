"""Visitor / transformer / search helper tests."""

from repro.bench.programs import benchmark_source
from repro.cfront import c_ast
from repro.cfront.frontend import parse_program
from repro.cfront.parser import parse
from repro.cfront.visitor import (
    NodeTransformer,
    NodeVisitor,
    enclosing,
    find_all,
    find_calls,
    find_first,
    is_inside_loop,
)


SOURCE = """
int g;
void f(void) {
    int i;
    for (i = 0; i < 3; i++) {
        g = g + helper(i);
    }
    helper(9);
}
int helper(int x) { return x * 2; }
"""


class TestNodeVisitor:
    def test_visit_counts_nodes(self):
        unit = parse(SOURCE)

        class Counter(NodeVisitor):
            def __init__(self):
                self.ids = 0

            def visit_Id(self, node):
                self.ids += 1

        counter = Counter()
        counter.visit(unit)
        assert counter.ids > 5

    def test_generic_visit_recurses(self):
        unit = parse(SOURCE)

        class CallCollector(NodeVisitor):
            def __init__(self):
                self.calls = []

            def visit_FuncCall(self, node):
                self.calls.append(node.callee_name)
                self.generic_visit(node)

        collector = CallCollector()
        collector.visit(unit)
        assert collector.calls == ["helper", "helper"]


class TestNodeTransformer:
    def test_delete_statement(self):
        unit = parse("void f(void) { a = 1; b = 2; }")

        class DropFirst(NodeTransformer):
            def visit_ExprStmt(self, node):
                if isinstance(node.expr, c_ast.Assignment) and \
                        node.expr.lvalue.name == "a":
                    return None
                return node

        DropFirst().visit(unit)
        body = unit.functions()[0].body
        assert len(body.items) == 1
        assert body.items[0].expr.lvalue.name == "b"

    def test_splice_list(self):
        unit = parse("void f(void) { a = 1; }")

        class Duplicate(NodeTransformer):
            def visit_ExprStmt(self, node):
                return [node, c_ast.ExprStmt(c_ast.Assignment(
                    "=", c_ast.Id("c"), c_ast.Constant("int", 3, "3")))]

        Duplicate().visit(unit)
        assert len(unit.functions()[0].body.items) == 2

    def test_replace_node(self):
        unit = parse("void f(void) { x = old_name; }")

        class Rename(NodeTransformer):
            def visit_Id(self, node):
                if node.name == "old_name":
                    node.name = "new_name"
                return node

        Rename().visit(unit)
        stmt = unit.functions()[0].body.items[0]
        assert stmt.expr.rvalue.name == "new_name"


class TestSearchHelpers:
    def test_find_all(self):
        unit = parse(SOURCE)
        loops = find_all(unit, c_ast.For)
        assert len(loops) == 1

    def test_find_first(self):
        unit = parse(SOURCE)
        call = find_first(unit, c_ast.FuncCall)
        assert call.callee_name == "helper"

    def test_find_first_none(self):
        unit = parse("int x;")
        assert find_first(unit, c_ast.For) is None

    def test_find_calls(self):
        unit = parse(SOURCE)
        assert len(find_calls(unit, "helper")) == 2
        assert find_calls(unit, "missing") == []

    def test_enclosing(self):
        unit = parse(SOURCE)
        call = find_first(unit, c_ast.FuncCall)
        loop = enclosing(call, c_ast.For)
        assert isinstance(loop, c_ast.For)
        func = enclosing(call, c_ast.FuncDef)
        assert func.name == "f"

    def test_is_inside_loop(self):
        unit = parse(SOURCE)
        calls = find_calls(unit, "helper")
        assert is_inside_loop(calls[0])
        assert not is_inside_loop(calls[1])

    def test_walk_preorder(self):
        unit = parse("int a; int b;")
        nodes = list(c_ast.walk(unit))
        assert nodes[0] is unit

        def preorder(node):
            yield node
            for field in node._fields:
                value = getattr(node, field, None)
                items = value if isinstance(value, list) else [value]
                for item in items:
                    if isinstance(item, c_ast.Node):
                        yield from preorder(item)

        kernel = parse_program(benchmark_source("lu", 4))
        walked = list(c_ast.walk(kernel))
        assert len(walked) > 200
        assert [id(n) for n in walked] == \
            [id(n) for n in preorder(kernel)]

    def test_walk_reads_fields_after_yield(self):
        # rewriting a node's fields when it is yielded redirects the
        # walk into the new children, as MutexConversion relies on
        unit = parse("void f(void) { lock(&m); g(); }")
        seen = []
        for node in c_ast.walk(unit):
            if isinstance(node, c_ast.Id):
                seen.append(node.name)
            if isinstance(node, c_ast.FuncCall) and \
                    node.callee_name == "lock":
                node.func = c_ast.Id("acquire")
                node.args = [c_ast.Constant("int", 0, "0")]
        assert seen == ["acquire", "g"]
        call = unit.functions()[0].body.items[0].expr
        assert call.callee_name == "acquire"

    def test_link_parents_preorder(self):
        # a node reached twice keeps the parent that reaches it last in
        # pre-order, as a recursive walk would leave it
        shared = c_ast.Id("x")
        inner = c_ast.ExprStmt(shared)
        block = c_ast.Compound([inner, shared])
        assert c_ast.link_parents(block) is None
        assert inner.parent is block
        assert shared.parent is block

        block = c_ast.Compound([c_ast.ExprStmt(c_ast.Id("y")), None])
        assert c_ast.link_parents(block) == ("items", block)
        assert block.items[0].expr.parent is block.items[0]
