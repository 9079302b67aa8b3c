"""Read/write access classification for expressions.

The counting rules (documented here because Table 4.1 of the paper was
produced by hand and is not perfectly self-consistent — see
EXPERIMENTS.md):

* a local declaration with an initializer writes the declared variable
  once (``int tmp = 1`` — paper counts tmp Wr=1);
* a *global* initializer is static initialization, not a runtime write
  (paper: ``int sum[3] = {0}`` contributes nothing to sum's Def In);
* plain assignment writes the lvalue's base variable;
* compound assignment (``+=`` etc.) reads and writes the base variable;
* ``++``/``--`` read and write their operand's base;
* taking an address (``&threads[local]``) reads the array/variable;
* dereferencing reads the pointer variable (the pointee is only known
  after Stage 3);
* every other appearance of a name in an expression is a read;
* array subscripts inside an lvalue are reads of the index variables.
"""

from repro.cfront import c_ast


class Access:
    """One classified access to a named variable."""

    __slots__ = ("name", "kind", "function", "node", "weight")

    READ = "read"
    WRITE = "write"

    def __init__(self, name, kind, function, node, weight=1):
        self.name = name
        self.kind = kind
        self.function = function
        self.node = node
        self.weight = weight

    def __repr__(self):
        return "Access(%s %s in %s x%d)" % (
            self.kind, self.name, self.function, self.weight)


def base_variable(expr):
    """The named variable an lvalue expression ultimately designates,
    or None (e.g. writes through a dereference hit an unknown pointee)."""
    while True:
        if isinstance(expr, c_ast.Id):
            return expr.name
        if isinstance(expr, c_ast.ArrayRef):
            expr = expr.base
        elif isinstance(expr, c_ast.MemberRef):
            expr = expr.base
        elif isinstance(expr, c_ast.Cast):
            expr = expr.expr
        else:
            return None


def classify_expr(expr, function, weight=1, out=None):
    """Classify every variable access in ``expr``.

    Returns a list of :class:`Access`.  ``weight`` is the loop-trip
    multiplier used for the frequency-weighted counts Stage 4 consumes.
    """
    if out is None:
        out = []
    _walk_expr(expr, function, weight, out, context="read")
    return out


def _emit(out, name, kind, function, node, weight):
    if name is not None:
        out.append(Access(name, kind, function, node, weight))


def _walk_expr(expr, function, weight, out, context):
    if expr is None:
        return
    if isinstance(expr, c_ast.Id):
        kind = Access.WRITE if context == "write" else Access.READ
        _emit(out, expr.name, kind, function, expr, weight)
        return
    if isinstance(expr, c_ast.Constant) or \
            isinstance(expr, c_ast.StringLiteral) or \
            isinstance(expr, c_ast.SizeofType):
        return
    if isinstance(expr, c_ast.Assignment):
        base = base_variable(expr.lvalue)
        if expr.op == "=":
            _emit(out, base, Access.WRITE, function, expr, weight)
        else:
            _emit(out, base, Access.READ, function, expr, weight)
            _emit(out, base, Access.WRITE, function, expr, weight)
        # subscripts / pointer bases inside the lvalue are reads
        _lvalue_internals(expr.lvalue, function, weight, out)
        _walk_expr(expr.rvalue, function, weight, out, "read")
        return
    if isinstance(expr, c_ast.UnaryOp):
        if expr.op in ("++", "--", "p++", "p--"):
            base = base_variable(expr.operand)
            _emit(out, base, Access.READ, function, expr, weight)
            _emit(out, base, Access.WRITE, function, expr, weight)
            _lvalue_internals(expr.operand, function, weight, out)
            return
        if expr.op == "sizeof":
            return  # unevaluated operand
        # '&', '*', arithmetic/logical unaries: operand is read
        _walk_expr(expr.operand, function, weight, out, "read")
        return
    if isinstance(expr, c_ast.BinaryOp):
        _walk_expr(expr.left, function, weight, out, "read")
        _walk_expr(expr.right, function, weight, out, "read")
        return
    if isinstance(expr, c_ast.TernaryOp):
        _walk_expr(expr.cond, function, weight, out, "read")
        _walk_expr(expr.then, function, weight, out, "read")
        _walk_expr(expr.els, function, weight, out, "read")
        return
    if isinstance(expr, c_ast.FuncCall):
        # the callee name is a function designator, not a data access
        if not isinstance(expr.func, c_ast.Id):
            _walk_expr(expr.func, function, weight, out, "read")
        for arg in expr.args:
            _walk_expr(arg, function, weight, out, "read")
        return
    if isinstance(expr, c_ast.ArrayRef):
        _walk_expr(expr.base, function, weight, out, "read")
        _walk_expr(expr.index, function, weight, out, "read")
        return
    if isinstance(expr, c_ast.MemberRef):
        _walk_expr(expr.base, function, weight, out, "read")
        return
    if isinstance(expr, c_ast.Cast):
        _walk_expr(expr.expr, function, weight, out, context)
        return
    if isinstance(expr, (c_ast.Comma, c_ast.InitList)):
        for item in expr.exprs:
            _walk_expr(item, function, weight, out, "read")
        return
    # fall back to generic traversal for anything new
    for child in expr.children():
        if isinstance(child, c_ast.Expression):
            _walk_expr(child, function, weight, out, "read")


def _lvalue_internals(lvalue, function, weight, out):
    """Reads performed while *locating* an lvalue (indexes, pointer
    bases), excluding the base variable itself."""
    if isinstance(lvalue, c_ast.Id):
        return
    if isinstance(lvalue, c_ast.ArrayRef):
        _lvalue_internals(lvalue.base, function, weight, out)
        _walk_expr(lvalue.index, function, weight, out, "read")
        return
    if isinstance(lvalue, c_ast.MemberRef):
        _lvalue_internals(lvalue.base, function, weight, out)
        return
    if isinstance(lvalue, c_ast.UnaryOp) and lvalue.op == "*":
        # writing through *p reads the pointer p
        _walk_expr(lvalue.operand, function, weight, out, "read")
        return
    if isinstance(lvalue, c_ast.Cast):
        _lvalue_internals(lvalue.expr, function, weight, out)
        return
    _walk_expr(lvalue, function, weight, out, "read")
