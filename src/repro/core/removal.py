"""Code removal passes (paper Appendix A, Algorithms 5-8).

Each pass follows the paper's implementation sketch: a prepopulated hash
set of names, one traversal of the IR, O(1) membership tests, and removal
of matches with everything else preserved.
"""

from repro.cfront import c_ast, ctypes
from repro.cfront.visitor import NodeTransformer
from repro.ir.passes import TransformPass

# Algorithm 7's hash set: every pthread data type.
PTHREAD_DATA_TYPES = {
    "pthread_t", "pthread_attr_t", "pthread_mutex_t",
    "pthread_mutexattr_t", "pthread_cond_t", "pthread_condattr_t",
    "pthread_barrier_t", "pthread_barrierattr_t", "pthread_key_t",
    "pthread_once_t", "pthread_rwlock_t", "pthread_spinlock_t",
}

# Algorithm 8's hash set: pthread API calls that have no RCCE
# counterpart and are simply deleted (join/self/mutex lock-unlock are
# handled by their own dedicated passes first).
PTHREAD_API_CALLS = {
    "pthread_exit", "pthread_attr_init", "pthread_attr_destroy",
    "pthread_attr_setdetachstate", "pthread_mutex_init",
    "pthread_mutex_destroy", "pthread_mutexattr_init",
    "pthread_mutexattr_destroy", "pthread_cond_init",
    "pthread_cond_destroy", "pthread_detach", "pthread_cancel",
    "pthread_setconcurrency", "pthread_yield",
    "pthread_barrier_init", "pthread_barrier_destroy",
}


def _base_typedef_name(ctype):
    """The typedef name at the root of a type, if any."""
    ctype = ctypes.strip_arrays(ctype)
    while isinstance(ctype, ctypes.PointerType):
        ctype = ctype.base
    if isinstance(ctype, ctypes.NamedType):
        return ctype.name
    return None


class _CallRemover(NodeTransformer):
    """Removes expression-statements whose expression is (or assigns
    from) a call to a name in ``names``."""

    def __init__(self, names):
        self.names = names
        self.removed = 0

    def _is_target_call(self, expr):
        if isinstance(expr, c_ast.FuncCall):
            return expr.callee_name in self.names
        if isinstance(expr, c_ast.Assignment):
            return self._is_target_call(expr.rvalue)
        if isinstance(expr, c_ast.Cast):
            return self._is_target_call(expr.expr)
        return False

    def visit_ExprStmt(self, node):
        if self._is_target_call(node.expr):
            self.removed += 1
            return None
        return self.generic_visit(node)


class RemovePthreadJoinCalls(TransformPass):
    """Algorithm 5 — remove leftover pthread_join calls.

    The thread-to-process pass already converts join loops into
    ``RCCE_barrier`` synchronization; this pass mops up any join call
    that survived (e.g. a join on a detached path)."""

    name = "remove-pthread-join-calls"

    def run(self, context):
        remover = _CallRemover({"pthread_join"})
        remover.visit(context.unit)
        return remover.removed


class RemovePthreadSelfCalls(TransformPass):
    """Algorithm 6 — replace ``pthread_self()`` with ``RCCE_ue()``."""

    name = "remove-pthread-self-calls"

    def run(self, context):
        replaced = 0
        for node in c_ast.walk(context.unit):
            if isinstance(node, c_ast.FuncCall) and \
                    node.callee_name == "pthread_self":
                node.func = c_ast.Id("RCCE_ue", node.func.coord)
                replaced += 1
        return replaced


class RemovePthreadDataTypes(TransformPass):
    """Algorithm 7 — remove declarations whose specifier is a pthread
    data type (``pthread_t threads[3];`` etc.)."""

    name = "remove-pthread-data-types"

    def run(self, context):
        transformer = _DataTypeRemover(PTHREAD_DATA_TYPES)
        transformer.visit(context.unit)
        return transformer.removed


class _DataTypeRemover(NodeTransformer):
    def __init__(self, type_names):
        self.type_names = type_names
        self.removed = 0

    def visit_DeclStmt(self, node):
        kept = []
        for decl in node.decls:
            if _base_typedef_name(decl.ctype) in self.type_names:
                self.removed += 1
            else:
                kept.append(decl)
        if not kept:
            return None
        node.decls = kept
        return node

    def visit_TranslationUnit(self, node):
        kept = []
        for decl in node.decls:
            if isinstance(decl, c_ast.Decl) and \
                    _base_typedef_name(decl.ctype) in self.type_names:
                self.removed += 1
                continue
            kept.append(self.visit(decl) or decl)
        node.decls = kept
        return node


class RemovePthreadAPICalls(TransformPass):
    """Algorithm 8 — remove remaining pthread API call statements."""

    name = "remove-pthread-api-calls"

    def run(self, context):
        remover = _CallRemover(PTHREAD_API_CALLS)
        remover.visit(context.unit)
        return remover.removed


class RemoveUnusedPrivates(TransformPass):
    """Cleanup: drop locals that are never referenced after translation
    (``rc``, ``local`` in the running example) and globals demoted to
    private that are entirely unused (``global``).

    Only removes declarations whose initializers are side-effect-free,
    so a ``int x = f();`` survives even if ``x`` is dead.
    """

    name = "remove-unused-privates"

    def run(self, context):
        unit = context.unit
        removed = 0
        # iterate: removing one dead variable can kill another's last use
        while True:
            used = _referenced_names(unit)
            transformer = _UnusedDeclRemover(used)
            transformer.visit(unit)
            if transformer.removed == 0:
                break
            removed += transformer.removed
        return removed


def _referenced_names(unit):
    used = set()
    for node in c_ast.walk(unit):
        if isinstance(node, c_ast.Id):
            used.add(node.name)
    return used


def _has_side_effects(expr):
    if expr is None:
        return False
    for node in c_ast.walk(expr):
        if isinstance(node, (c_ast.FuncCall, c_ast.Assignment)):
            return True
        if isinstance(node, c_ast.UnaryOp) and node.op in (
                "++", "--", "p++", "p--"):
            return True
    return False


class _UnusedDeclRemover(NodeTransformer):
    def __init__(self, used_names):
        self.used_names = used_names
        self.removed = 0

    def _keep(self, decl):
        if decl.is_typedef or decl.ctype.is_function:
            return True
        if decl.name in self.used_names:
            return True
        if _has_side_effects(decl.init):
            return True
        self.removed += 1
        return False

    def visit_DeclStmt(self, node):
        node.decls = [d for d in node.decls if self._keep(d)]
        if not node.decls:
            return None
        return node

    def visit_TranslationUnit(self, node):
        kept = []
        for decl in node.decls:
            if isinstance(decl, c_ast.Decl) and not self._keep(decl):
                continue
            kept.append(self.visit(decl) or decl)
        node.decls = kept
        return node

    def visit_FuncDef(self, node):
        # never remove parameters; only recurse into the body
        self.visit(node.body)
        return node
