"""Loop structure helpers: nesting depth and static trip-count estimation.

Stage 1 weights read/write counts by estimated loop trip counts so Stage 4
can map the *frequently accessed* shared data to on-chip memory (paper
§4.4).  For loops whose bounds are not compile-time constants we fall back
to a default trip count, the same conservative move profile-free embedded
partitioners (Panda et al. [21]) make.
"""

from repro.cfront import c_ast

DEFAULT_TRIP_COUNT = 16

_LOOP_TYPES = (c_ast.For, c_ast.While, c_ast.DoWhile)


class LoopInfo:
    """Static facts about one loop."""

    __slots__ = ("node", "depth", "trip_count", "is_constant")

    def __init__(self, node, depth, trip_count, is_constant):
        self.node = node
        self.depth = depth
        self.trip_count = trip_count
        self.is_constant = is_constant

    def __repr__(self):
        return "LoopInfo(depth=%d, trips=%s%s)" % (
            self.depth, self.trip_count,
            "" if self.is_constant else "~")


def loop_depth_map(func):
    """Map each AST node in ``func`` to its loop nesting depth."""
    depths = {}

    def visit(node, depth):
        depths[id(node)] = depth
        next_depth = depth + 1 if isinstance(node, _LOOP_TYPES) else depth
        for child in node.children():
            visit(child, next_depth)

    visit(func.body, 0)
    return depths


def find_loops(func):
    """All loops in ``func`` with nesting depth and trip estimates."""
    loops = []

    def visit(node, depth):
        if isinstance(node, _LOOP_TYPES):
            trips, constant = estimate_trip_count(node)
            loops.append(LoopInfo(node, depth, trips, constant))
            depth += 1
        for child in node.children():
            visit(child, depth)

    visit(func.body, 0)
    return loops


def estimate_trip_count(loop):
    """Return ``(trip_count, is_constant)`` for a loop node.

    Recognizes the canonical ``for (i = lo; i < hi; i++)`` family with
    constant bounds (also ``<=``, ``>``, ``>=``, ``+= step``).  Anything
    else gets :data:`DEFAULT_TRIP_COUNT`.
    """
    if not isinstance(loop, c_ast.For):
        return DEFAULT_TRIP_COUNT, False
    bounds = _canonical_for_bounds(loop)
    if bounds is None:
        return DEFAULT_TRIP_COUNT, False
    low, high, step, inclusive = bounds
    if step == 0:
        return DEFAULT_TRIP_COUNT, False
    span = high - low + (1 if inclusive else 0)
    if step < 0:
        span = -span
        step = -step
    if span <= 0:
        return 0, True
    return (span + step - 1) // step, True


def _canonical_for_bounds(loop):
    """Extract (low, high, step, inclusive) if all parts are constant."""
    var, low = _init_var_and_value(loop.init)
    if var is None:
        return None
    cond = loop.cond
    if not isinstance(cond, c_ast.BinaryOp):
        return None
    if not (isinstance(cond.left, c_ast.Id) and cond.left.name == var):
        return None
    high = _const_value(cond.right)
    if high is None:
        return None
    step = _step_value(loop.step, var)
    if step is None:
        return None
    if cond.op == "<":
        return low, high, step, False
    if cond.op == "<=":
        return low, high, step, True
    # descending loops: flip the bounds and count with a positive step
    if cond.op == ">":
        return high, low, abs(step), False
    if cond.op == ">=":
        return high, low, abs(step), True
    return None


def _init_var_and_value(init):
    if isinstance(init, c_ast.DeclStmt) and len(init.decls) == 1:
        decl = init.decls[0]
        value = _const_value(decl.init)
        if value is not None:
            return decl.name, value
        return None, None
    if isinstance(init, c_ast.ExprStmt) and \
            isinstance(init.expr, c_ast.Assignment) and init.expr.op == "=" \
            and isinstance(init.expr.lvalue, c_ast.Id):
        value = _const_value(init.expr.rvalue)
        if value is not None:
            return init.expr.lvalue.name, value
    return None, None


def _step_value(step, var):
    if step is None:
        return None
    if isinstance(step, c_ast.UnaryOp) and \
            isinstance(step.operand, c_ast.Id) and step.operand.name == var:
        if step.op in ("++", "p++"):
            return 1
        if step.op in ("--", "p--"):
            return -1
    if isinstance(step, c_ast.Assignment) and \
            isinstance(step.lvalue, c_ast.Id) and step.lvalue.name == var:
        amount = _const_value(step.rvalue)
        if amount is None:
            return None
        if step.op == "+=":
            return amount
        if step.op == "-=":
            return -amount
    return None


def _const_value(expr):
    if isinstance(expr, c_ast.Constant) and expr.kind == "int":
        return expr.value
    if isinstance(expr, c_ast.UnaryOp) and expr.op == "-":
        inner = _const_value(expr.operand)
        if inner is not None:
            return -inner
    return None
