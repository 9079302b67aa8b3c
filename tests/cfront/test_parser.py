"""Parser unit tests."""

import pytest

from repro.cfront import c_ast, ctypes
from repro.cfront.errors import ParseError
from repro.cfront.parser import parse


def parse_expr(text):
    """Parse an expression by wrapping it in a function body."""
    unit = parse("void f(void) { %s; }" % text)
    stmt = unit.functions()[0].body.items[0]
    assert isinstance(stmt, c_ast.ExprStmt)
    return stmt.expr


def parse_stmt(text):
    unit = parse("void f(void) { %s }" % text)
    return unit.functions()[0].body.items[0]


class TestDeclarations:
    def test_global_scalar(self):
        unit = parse("int x;")
        decl = unit.decls[0]
        assert decl.name == "x"
        assert decl.ctype == ctypes.INT

    def test_pointer(self):
        unit = parse("int *p;")
        assert unit.decls[0].ctype == ctypes.PointerType(ctypes.INT)

    def test_pointer_to_pointer(self):
        unit = parse("char **argv;")
        ctype = unit.decls[0].ctype
        assert isinstance(ctype, ctypes.PointerType)
        assert isinstance(ctype.base, ctypes.PointerType)

    def test_array(self):
        unit = parse("double a[10];")
        ctype = unit.decls[0].ctype
        assert isinstance(ctype, ctypes.ArrayType)
        assert ctype.length == 10
        assert ctype.base == ctypes.DOUBLE

    def test_two_dimensional_array(self):
        unit = parse("int m[3][4];")
        ctype = unit.decls[0].ctype
        assert ctype.length == 3
        assert ctype.base.length == 4

    def test_array_length_constant_expression(self):
        unit = parse("int a[4 * 8];")
        assert unit.decls[0].ctype.length == 32

    def test_array_sized_by_its_brace_list(self):
        """C11 6.7.9p22: the initializer completes the array type, at
        file scope and in a block."""
        unit = parse("int a[] = {3, 5, 7};\n"
                     "void f(void) { int b[] = {4, 6}; int c[] = {1}; }")
        assert unit.decls[0].ctype == ctypes.ArrayType(ctypes.INT, 3)
        body = unit.functions()[0].body.items
        assert body[0].decls[0].ctype == ctypes.ArrayType(ctypes.INT, 2)
        assert body[1].decls[0].ctype.length == 1
        assert unit.decls[0].ctype.sizeof() == 12

    def test_array_sized_by_a_string_literal_counts_its_nul(self):
        unit = parse('char s[] = "a\\tb";')
        assert unit.decls[0].ctype == ctypes.ArrayType(ctypes.CHAR, 4)

    def test_sized_and_uninitialized_arrays_keep_their_types(self):
        unit = parse("int a[4] = {1}; int b[];")
        assert unit.decls[0].ctype.length == 4
        assert unit.decls[1].ctype.length is None

    def test_multiple_declarators(self):
        unit = parse("int a, *b, c[2];")
        names = [d.name for d in unit.decls]
        assert names == ["a", "b", "c"]
        assert isinstance(unit.decls[1].ctype, ctypes.PointerType)
        assert isinstance(unit.decls[2].ctype, ctypes.ArrayType)

    def test_initializer(self):
        unit = parse("int x = 5;")
        assert isinstance(unit.decls[0].init, c_ast.Constant)
        assert unit.decls[0].init.value == 5

    def test_init_list(self):
        unit = parse("int a[3] = {1, 2, 3};")
        init = unit.decls[0].init
        assert isinstance(init, c_ast.InitList)
        assert [e.value for e in init.exprs] == [1, 2, 3]

    def test_storage_classes(self):
        unit = parse("static int s; extern int e;")
        assert unit.decls[0].storage == "static"
        assert unit.decls[1].storage == "extern"

    def test_qualifiers(self):
        unit = parse("const int c = 1;")
        assert "const" in unit.decls[0].quals

    def test_unsigned_combinations(self):
        unit = parse("unsigned int a; unsigned long b; "
                     "long long c; unsigned d;")
        names = [d.ctype.name for d in unit.decls]
        assert names == ["unsigned int", "unsigned long", "long long",
                         "unsigned int"]

    def test_typedef_introduces_type_name(self):
        unit = parse("typedef int myint; myint x;")
        assert unit.decls[1].ctype.name == "myint"

    def test_typedef_records_underlying_type(self):
        unit = parse("typedef double real; real x; real part[2];")
        ctype = unit.decls[1].ctype
        assert ctype.underlying == ctypes.DOUBLE
        assert ctype.is_floating and not ctype.is_integral
        assert ctype.sizeof() == 8
        assert unit.decls[2].ctype.sizeof() == 16

    def test_typedef_of_typedef_resolves(self):
        unit = parse("typedef unsigned char byte; typedef byte octet;"
                     "octet b;")
        ctype = unit.decls[2].ctype
        assert ctypes.resolve(ctype) == ctypes.PrimitiveType(
            "unsigned char")
        assert ctype.is_integral and ctype.sizeof() == 1

    def test_typedef_name_in_cast_sizeof_and_prototype(self):
        unit = parse("typedef double real;"
                     "real f(real, int);"
                     "int g(int i) { return sizeof(real) + (real)i; }")
        proto = unit.decls[1].ctype
        assert [p.name for p in proto.params[:1]] == ["real"]
        assert proto.params[0].underlying == ctypes.DOUBLE
        ret = unit.functions()[0].body.items[0].expr
        assert isinstance(ret.left, c_ast.SizeofType)
        assert ret.left.ctype.name == "real"
        assert isinstance(ret.right, c_ast.Cast)
        assert ret.right.ctype.underlying == ctypes.DOUBLE

    def test_pthread_t_known(self):
        unit = parse("pthread_t threads[3];")
        ctype = unit.decls[0].ctype
        assert isinstance(ctype, ctypes.ArrayType)
        assert ctype.base.name == "pthread_t"
        # the environment's opaque types name no underlying type
        assert ctype.base.underlying is None

    def test_struct_definition(self):
        unit = parse("struct point { int x; int y; };")
        struct = unit.decls[0].struct_type
        assert struct.name == "point"
        assert [f[0] for f in struct.fields] == ["x", "y"]

    def test_struct_variable(self):
        unit = parse("struct point { int x; int y; } ;"
                     "struct point p;")
        decl = unit.decls[1]
        assert isinstance(decl.ctype, ctypes.StructType)
        assert decl.ctype.fields is not None

    def test_function_pointer_declarator(self):
        unit = parse("void (*handler)(int);")
        ctype = unit.decls[0].ctype
        assert isinstance(ctype, ctypes.PointerType)
        assert isinstance(ctype.base, ctypes.FunctionType)


class TestFunctions:
    def test_simple_function(self):
        unit = parse("int add(int a, int b) { return a + b; }")
        func = unit.functions()[0]
        assert func.name == "add"
        assert func.return_type == ctypes.INT
        assert [p.name for p in func.params] == ["a", "b"]

    def test_void_params(self):
        unit = parse("int f(void) { return 0; }")
        assert unit.functions()[0].params == []

    def test_pointer_return(self):
        unit = parse("void *tf(void *arg) { return arg; }")
        func = unit.functions()[0]
        assert isinstance(func.return_type, ctypes.PointerType)

    def test_prototype_is_decl_not_funcdef(self):
        unit = parse("int f(int x);")
        assert unit.functions() == []
        assert unit.decls[0].ctype.is_function

    def test_array_param_decays(self):
        unit = parse("int f(int a[]) { return a[0]; }")
        param = unit.functions()[0].params[0]
        assert isinstance(param.ctype, ctypes.PointerType)

    def test_varargs(self):
        unit = parse("int my_printf(char *fmt, ...);")
        assert unit.decls[0].ctype.varargs


class TestStatements:
    def test_if_else(self):
        stmt = parse_stmt("if (x) { y = 1; } else { y = 2; }")
        assert isinstance(stmt, c_ast.If)
        assert stmt.els is not None

    def test_dangling_else(self):
        stmt = parse_stmt("if (a) if (b) x = 1; else x = 2;")
        assert stmt.els is None
        assert stmt.then.els is not None

    def test_while(self):
        stmt = parse_stmt("while (i < 10) i++;")
        assert isinstance(stmt, c_ast.While)

    def test_do_while(self):
        stmt = parse_stmt("do { i++; } while (i < 10);")
        assert isinstance(stmt, c_ast.DoWhile)

    def test_for_with_decl(self):
        stmt = parse_stmt("for (int i = 0; i < 10; i++) ;")
        assert isinstance(stmt.init, c_ast.DeclStmt)

    def test_for_with_expr_init(self):
        stmt = parse_stmt("for (i = 0; i < 10; i++) ;")
        assert isinstance(stmt.init, c_ast.ExprStmt)

    def test_for_empty_clauses(self):
        stmt = parse_stmt("for (;;) break;")
        assert stmt.init is None
        assert stmt.cond is None
        assert stmt.step is None

    def test_break_continue_return(self):
        unit = parse("void f(void) { for(;;) { break; continue; } "
                     "return; }")
        body = unit.functions()[0].body.items[0].body
        assert isinstance(body.items[0], c_ast.Break)
        assert isinstance(body.items[1], c_ast.Continue)

    def test_switch_cases(self):
        stmt = parse_stmt(
            "switch (x) { case 1: y = 1; break; default: y = 0; }")
        assert isinstance(stmt, c_ast.Switch)
        assert isinstance(stmt.body.items[0], c_ast.Case)
        assert isinstance(stmt.body.items[1], c_ast.Default)

    def test_goto_and_label(self):
        stmt = parse_stmt("top: x = 1;")
        assert isinstance(stmt, c_ast.Label)
        assert stmt.name == "top"

    def test_nested_blocks(self):
        stmt = parse_stmt("{ { int x; } }")
        assert isinstance(stmt, c_ast.Compound)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("a + b * c")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_left_associativity(self):
        expr = parse_expr("a - b - c")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_assignment_right_associative(self):
        expr = parse_expr("a = b = c")
        assert isinstance(expr.rvalue, c_ast.Assignment)

    def test_compound_assignment(self):
        expr = parse_expr("x += 2")
        assert expr.op == "+="

    def test_ternary(self):
        expr = parse_expr("a ? b : c")
        assert isinstance(expr, c_ast.TernaryOp)

    def test_logical_short_circuit_structure(self):
        expr = parse_expr("a && b || c")
        assert expr.op == "||"
        assert expr.left.op == "&&"

    def test_unary_operators(self):
        for op in ("-", "!", "~", "*", "&"):
            expr = parse_expr("%sx" % op)
            assert isinstance(expr, c_ast.UnaryOp)
            assert expr.op == op

    def test_prefix_and_postfix_increments(self):
        assert parse_expr("++i").op == "++"
        assert parse_expr("i++").op == "p++"
        assert parse_expr("i--").op == "p--"

    def test_cast(self):
        expr = parse_expr("(int)x")
        assert isinstance(expr, c_ast.Cast)
        assert expr.ctype == ctypes.INT

    def test_cast_to_pointer(self):
        expr = parse_expr("(void *)t")
        assert isinstance(expr, c_ast.Cast)
        assert isinstance(expr.ctype, ctypes.PointerType)

    def test_parenthesized_expr_not_cast(self):
        expr = parse_expr("(x) + 1")
        assert isinstance(expr, c_ast.BinaryOp)

    def test_sizeof_type(self):
        expr = parse_expr("sizeof(double)")
        assert isinstance(expr, c_ast.SizeofType)
        assert expr.ctype == ctypes.DOUBLE

    def test_sizeof_expr(self):
        expr = parse_expr("sizeof x")
        assert isinstance(expr, c_ast.UnaryOp)
        assert expr.op == "sizeof"

    def test_function_call_args(self):
        expr = parse_expr("f(1, a, b + c)")
        assert isinstance(expr, c_ast.FuncCall)
        assert expr.callee_name == "f"
        assert len(expr.args) == 3

    def test_array_subscript_chain(self):
        expr = parse_expr("m[i][j]")
        assert isinstance(expr, c_ast.ArrayRef)
        assert isinstance(expr.base, c_ast.ArrayRef)

    def test_member_access(self):
        dot = parse_expr("p.x")
        arrow = parse_expr("p->x")
        assert not dot.arrow
        assert arrow.arrow

    def test_comma_expression(self):
        expr = parse_expr("a = 1, b = 2")
        assert isinstance(expr, c_ast.Comma)
        assert len(expr.exprs) == 2

    def test_string_concatenation(self):
        expr = parse_expr('"ab" "cd"')
        assert isinstance(expr, c_ast.StringLiteral)
        assert expr.value == "abcd"

    def test_pthread_create_call_shape(self):
        expr = parse_expr(
            "pthread_create(&threads[i], NULL, tf, (void *)i)")
        assert expr.callee_name == "pthread_create"
        assert len(expr.args) == 4
        assert isinstance(expr.args[0], c_ast.UnaryOp)
        assert isinstance(expr.args[3], c_ast.Cast)


class TestIntegerConstants:
    def test_value_by_base(self):
        for text, value in (("017", 15), ("00", 0), ("0x1F", 31),
                            ("42", 42)):
            init = parse("int x = %s;" % text).decls[0].init
            assert (init.value, init.text) == (value, text)

    def test_octal_suffix_dropped_from_text(self):
        init = parse("long x = 017L;").decls[0].init
        assert (init.value, init.text) == (15, "017")


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int x")

    def test_unbalanced_brace(self):
        with pytest.raises(ParseError):
            parse("void f(void) { if (x) {")

    def test_garbage_expression(self):
        with pytest.raises(ParseError):
            parse("void f(void) { x = ; }")

    def test_error_has_location(self):
        with pytest.raises(ParseError) as info:
            parse("int x;\nint = 4;")
        assert info.value.line == 2


class TestParentLinks:
    def test_parents_linked(self):
        unit = parse("void f(void) { int x; x = 1; }")
        func = unit.functions()[0]
        assert func.parent is unit
        assert func.body.parent is func

    def test_walk_covers_all(self):
        unit = parse("int a; void f(void) { a = 1 + 2; }")
        names = [type(n).__name__ for n in c_ast.walk(unit)]
        assert "TranslationUnit" in names
        assert "Assignment" in names
        assert "BinaryOp" in names
