"""Stage 5 — Translation Framework (paper §4.5, Algorithm 4).

Converts the multithreaded program into the multiprocess RCCE program:

* ``main`` becomes ``RCCE_APP(int argc, char **argv)`` and gains
  ``int myID; myID = RCCE_ue();`` (the unit-of-execution rank that
  replaces thread IDs);
* every ``pthread_create`` becomes a direct call to the thread function
  — launches inside a loop collapse to one call with ``(void *)myID``
  as the argument, standalone launches are wrapped in
  ``if (myID == k)`` so the task runs only on its designated core;
* ``pthread_join`` loops become a single ``RCCE_barrier`` with the rest
  of the loop body hoisted out (thread index renamed to ``myID``);
* shared variables get explicit ``RCCE_shmalloc`` (off-chip) or
  ``RCCE_malloc`` (on-chip MPB) allocations per the Stage 4 plan;
* mutexes map onto the SCC's per-core test-and-set registers via
  ``RCCE_acquire_lock`` / ``RCCE_release_lock``;
* condition variables have no RCCE translation: every wait, signal
  and broadcast is an error diagnostic, never passed through; so is a
  ``pthread_create`` whose thread argument is a pointer (Stage 3
  reports what it points at), since each UE would receive only its
  own copy of the pointee, and a ``pthread_join`` that asks for the
  thread's return value, since the join becomes a barrier.
"""

from repro.cfront import c_ast, ctypes
from repro.cfront.visitor import NodeTransformer, find_all, find_calls
from repro.ir.loops import estimate_trip_count
from repro.ir.passes import TransformPass
from repro.core.insertion import RCCE_ENTRY, make_call
from repro.core.stage2_interthread import thread_function_name
from repro.core.stage4_partition import MemoryBank

CORE_ID_VAR = "myID"

_LOOP_TYPES = (c_ast.For, c_ast.While, c_ast.DoWhile)


def _loop_induction_var(loop):
    if not isinstance(loop, c_ast.For):
        return None
    init = loop.init
    if isinstance(init, c_ast.DeclStmt) and len(init.decls) == 1:
        return init.decls[0].name
    if isinstance(init, c_ast.ExprStmt) and \
            isinstance(init.expr, c_ast.Assignment) and \
            isinstance(init.expr.lvalue, c_ast.Id):
        return init.expr.lvalue.name
    return None


def _contains_call(node, name):
    return bool(find_all(node, c_ast.FuncCall,
                         lambda call: call.callee_name == name))


def _references(expr, name):
    if expr is None:
        return False
    return any(isinstance(n, c_ast.Id) and n.name == name
               for n in c_ast.walk(expr))


class _Renamer(NodeTransformer):
    """Rename every ``Id(old)`` to ``Id(new)``."""

    def __init__(self, old, new):
        self.old = old
        self.new = new

    def visit_Id(self, node):
        if node.name == self.old:
            node.name = self.new
        return node


def rename_in(node, old, new):
    return _Renamer(old, new).visit(node)


def _variable_name(arg):
    """The variable an argument names: ``v`` for ``&v``, ``v``,
    ``&v[i]`` or ``v[i]``; ``"<anonymous>"`` for any other
    expression."""
    if isinstance(arg, c_ast.UnaryOp) and arg.op == "&":
        arg = arg.operand
    if isinstance(arg, c_ast.ArrayRef):
        arg = arg.base
    if isinstance(arg, c_ast.Id):
        return arg.name
    return "<anonymous>"


def mutex_name(call):
    """The mutex a ``pthread_mutex_*`` call names (see
    :func:`_variable_name`); ``"<none>"`` for a call without
    arguments.  Stage 5 assigns test-and-set registers by this name
    and the static lockset audit reads locks by it, so the two agree
    on which calls share a register."""
    if not call.args:
        return "<none>"
    return _variable_name(call.args[0])


def _is_null(expr):
    """``NULL``, ``0``, or either one cast."""
    while isinstance(expr, c_ast.Cast):
        expr = expr.expr
    if isinstance(expr, c_ast.Id):
        return expr.name == "NULL"
    return isinstance(expr, c_ast.Constant) and expr.value == 0


def make_barrier(coord=None):
    return make_call("RCCE_barrier", [
        c_ast.UnaryOp("&", c_ast.Id("RCCE_COMM_WORLD"))], coord)


class ThreadsToProcesses(TransformPass):
    """Algorithm 4 plus the join-loop conversion of §4.5.

    With ``fold_threads=True`` the pass implements the paper's §7.2
    extension (after Cichowski et al. [6]): a create loop launching T
    threads becomes a *loop over thread indices*, striding by the UE
    count, so a program with more threads than cores still converts —
    each core runs several thread instances::

        for (tIdx = myID; tIdx < T; tIdx += RCCE_num_ues())
            tf((void *)tIdx);
    """

    name = "stage5-threads-to-processes"
    requires = ("thread_launches", "thread_pointer_args")
    provides = ("ues_needed",)

    FOLD_INDEX_VAR = "tIdx"

    def __init__(self, thread_id_args=None, fold_threads=False):
        # Algorithm 4's user-supplied set T of thread-ID argument names;
        # arguments referencing a launch loop's induction variable are
        # detected automatically.
        self.thread_id_args = set(thread_id_args or [])
        self.fold_threads = fold_threads
        self.launch_order = {}   # function name -> order of appearance
        # the 1:1 mapping runs thread k on UE k, so a run on fewer UEs
        # drops threads: the UEs it needs, for the caller to check
        self.ues_needed = 0

    def run(self, context):
        unit = context.unit
        launches = context.require("thread_launches")
        for coord, names in context.require("thread_pointer_args"):
            context.diagnose(
                self.name, "error",
                "pthread_create passes a pointer to %s as the thread "
                "argument: pointer thread arguments have no RCCE "
                "translation; pass an integer id instead" % names,
                coord)
        # every join becomes (part of) a barrier or is removed, so a
        # join that asks for the thread's return value has no source
        for join in find_calls(unit, "pthread_join"):
            if len(join.args) > 1 and not _is_null(join.args[1]):
                context.diagnose(
                    self.name, "error",
                    "pthread_join stores the thread's return value in "
                    "%r: join results have no RCCE translation (the "
                    "join becomes a barrier); pass NULL instead"
                    % _variable_name(join.args[1]), join.coord)
        if not launches:
            # still a valid single-process RCCE program: convert main
            # so RCCE_init's &argc/&argv resolve on every core
            self._convert_main(unit)
            context.provide("ues_needed", self.ues_needed)
            return self.launch_order
        standalone = [l for l in launches if not l.in_loop]
        for index, launch in enumerate(standalone):
            if launch.function_name is not None:
                self.launch_order.setdefault(launch.function_name, index)
        self.ues_needed = max(self.launch_order.values(), default=-1) + 1
        for func in unit.functions():
            func.body.items = self._transform_block(func.body.items)
            self._collapse_barriers(func.body)
        self._convert_main(unit)
        context.provide("ues_needed", self.ues_needed)
        return self.launch_order

    # -- statement rewriting -----------------------------------------------------

    def _transform_block(self, items):
        out = []
        for stmt in items:
            out.extend(self._transform_stmt(stmt))
        return out

    def _transform_stmt(self, stmt):
        if isinstance(stmt, _LOOP_TYPES):
            if _contains_call(stmt, "pthread_create"):
                return self._convert_create_loop(stmt)
            if _contains_call(stmt, "pthread_join"):
                return self._convert_join_loop(stmt)
            self._recurse(stmt)
            return [stmt]
        if isinstance(stmt, c_ast.ExprStmt):
            converted = self._convert_simple(stmt)
            if converted is not None:
                return converted
            return [stmt]
        if isinstance(stmt, c_ast.Compound):
            stmt.items = self._transform_block(stmt.items)
            return [stmt]
        self._recurse(stmt)
        return [stmt]

    def _recurse(self, stmt):
        for field in stmt._fields:
            value = getattr(stmt, field, None)
            if isinstance(value, c_ast.Compound):
                value.items = self._transform_block(value.items)
            elif isinstance(value, c_ast.Statement):
                replacement = self._transform_stmt(value)
                if len(replacement) == 1:
                    setattr(stmt, field, replacement[0])
                else:
                    setattr(stmt, field,
                            c_ast.Compound(replacement, value.coord))

    def _convert_simple(self, stmt):
        """Standalone pthread_create / pthread_join statements."""
        call = self._extract_call(stmt.expr)
        if call is None:
            return None
        if call.callee_name == "pthread_create":
            return self._standalone_create(call)
        if call.callee_name == "pthread_join":
            return [make_barrier(stmt.coord)]
        return None

    @staticmethod
    def _extract_call(expr):
        if isinstance(expr, c_ast.FuncCall):
            return expr
        if isinstance(expr, c_ast.Assignment) and \
                isinstance(expr.rvalue, c_ast.FuncCall):
            return expr.rvalue
        if isinstance(expr, c_ast.Cast) and \
                isinstance(expr.expr, c_ast.FuncCall):
            return expr.expr
        return None

    def _new_function_call(self, launch_call, use_core_id):
        proc_name = thread_function_name(launch_call.args[2])
        arg = launch_call.args[3] if len(launch_call.args) > 3 else None
        if use_core_id:
            arg = c_ast.Cast(ctypes.VOID_PTR, c_ast.Id(CORE_ID_VAR))
        args = [arg] if arg is not None else []
        return make_call(proc_name, args, launch_call.coord)

    def _standalone_create(self, call):
        proc_name = thread_function_name(call.args[2])
        arg = call.args[3] if len(call.args) > 3 else None
        use_core_id = self._arg_is_thread_id(arg, None)
        new_call = self._new_function_call(call, use_core_id)
        order = self.launch_order.get(proc_name, 0)
        guard = c_ast.BinaryOp("==", c_ast.Id(CORE_ID_VAR),
                               c_ast.Constant("int", order, str(order)))
        return [c_ast.If(guard, c_ast.Compound([new_call]), None,
                         call.coord)]

    def _arg_is_thread_id(self, arg, loop_var):
        if arg is None:
            return False
        if loop_var is not None and _references(arg, loop_var):
            return True
        return any(_references(arg, name) for name in self.thread_id_args)

    def _convert_create_loop(self, loop):
        loop_var = _loop_induction_var(loop)
        trips, constant = estimate_trip_count(loop)
        if not constant or trips <= 0:
            trips = None  # unknown thread count: no fold, no UE check
        creates = find_all(loop, c_ast.FuncCall,
                           lambda c: c.callee_name == "pthread_create")
        out = []
        for call in creates:
            arg = call.args[3] if len(call.args) > 3 else None
            use_core_id = self._arg_is_thread_id(arg, loop_var)
            if self.fold_threads and use_core_id and trips is not None:
                out.append(self._folded_call(call, trips))
                continue
            if trips is not None:
                self.ues_needed = max(self.ues_needed, trips)
            out.append(self._new_function_call(call, use_core_id))
        remnant = self._strip_calls(loop.body, {"pthread_create"})
        if remnant:
            hoisted = c_ast.Compound(remnant, loop.coord)
            if loop_var is not None:
                rename_in(hoisted, loop_var, CORE_ID_VAR)
            out.extend(hoisted.items)
        return out

    def _folded_call(self, launch_call, trips):
        """§7.2: one call per thread index assigned to this core."""
        proc_name = thread_function_name(launch_call.args[2])
        index = self.FOLD_INDEX_VAR
        call = make_call(proc_name,
                         [c_ast.Cast(ctypes.VOID_PTR, c_ast.Id(index))],
                         launch_call.coord)
        fold_loop = c_ast.For(
            init=c_ast.ExprStmt(c_ast.Assignment(
                "=", c_ast.Id(index), c_ast.Id(CORE_ID_VAR))),
            cond=c_ast.BinaryOp("<", c_ast.Id(index),
                                c_ast.Constant("int", trips, str(trips))),
            step=c_ast.Assignment(
                "+=", c_ast.Id(index),
                c_ast.FuncCall(c_ast.Id("RCCE_num_ues"), [])),
            body=c_ast.Compound([call]),
            coord=launch_call.coord)
        decl = c_ast.DeclStmt([c_ast.Decl(index, ctypes.INT)])
        return c_ast.Compound([decl, fold_loop], launch_call.coord)

    def _convert_join_loop(self, loop):
        loop_var = _loop_induction_var(loop)
        out = [make_barrier(loop.coord)]
        remnant = self._strip_calls(loop.body, {"pthread_join"})
        if remnant:
            hoisted = c_ast.Compound(remnant, loop.coord)
            if loop_var is not None:
                rename_in(hoisted, loop_var, CORE_ID_VAR)
            out.extend(hoisted.items)
        return out

    def _strip_calls(self, body, names):
        """Loop body statements that are not calls in ``names``."""
        items = body.items if isinstance(body, c_ast.Compound) else [body]
        kept = []
        for stmt in items:
            if isinstance(stmt, c_ast.ExprStmt):
                call = self._extract_call(stmt.expr)
                if call is not None and call.callee_name in names:
                    continue
            kept.append(stmt)
        return kept

    @staticmethod
    def _collapse_barriers(body):
        """Merge consecutive RCCE_barrier statements into one."""
        items = []
        for stmt in body.items:
            is_barrier = (isinstance(stmt, c_ast.ExprStmt)
                          and isinstance(stmt.expr, c_ast.FuncCall)
                          and stmt.expr.callee_name == "RCCE_barrier")
            if is_barrier and items:
                prev = items[-1]
                if isinstance(prev, c_ast.ExprStmt) and \
                        isinstance(prev.expr, c_ast.FuncCall) and \
                        prev.expr.callee_name == "RCCE_barrier":
                    continue
            items.append(stmt)
        body.items = items

    # -- main conversion -----------------------------------------------------------

    def _convert_main(self, unit):
        main = unit.find_function("main")
        if main is None:
            return
        main.name = RCCE_ENTRY
        main.return_type = ctypes.INT
        main.params = [
            c_ast.Decl("argc", ctypes.INT),
            c_ast.Decl("argv",
                       ctypes.PointerType(ctypes.PointerType(ctypes.CHAR))),
        ]
        decl = c_ast.DeclStmt([c_ast.Decl(CORE_ID_VAR, ctypes.INT)])
        assign = c_ast.ExprStmt(c_ast.Assignment(
            "=", c_ast.Id(CORE_ID_VAR),
            c_ast.FuncCall(c_ast.Id("RCCE_ue"), [])))
        main.body.items[0:0] = [decl, assign]


class _ScalarPromoter(NodeTransformer):
    """Rewrite uses of promoted shared scalars: each ``name`` in
    ``names`` becomes ``(*name)`` and ``&name`` becomes ``name``."""

    def __init__(self, names):
        self.names = names

    def visit_UnaryOp(self, node):
        if node.op == "&" and isinstance(node.operand, c_ast.Id) and \
                node.operand.name in self.names:
            return node.operand  # &x -> x (the pointer itself)
        return self.generic_visit(node)

    def visit_Id(self, node):
        if node.name in self.names:
            return c_ast.UnaryOp("*", node, node.coord)
        return node

    def visit_Decl(self, node):
        # don't rewrite the declaration itself; do rewrite initializers
        if node.init is not None:
            node.init = self.visit(node.init)
        return node

    def visit_DeclStmt(self, node):
        node.decls = [self.visit(d) for d in node.decls]
        return node


class MutexConversion(TransformPass):
    """Convert mutex lock/unlock to the SCC's test-and-set lock API.

    Every distinct mutex variable is assigned (in order of first use)
    the test-and-set register of a core; ``pthread_mutex_lock(&m)``
    becomes ``RCCE_acquire_lock(k)`` and unlock ``RCCE_release_lock(k)``.
    ``pthread_barrier_wait`` maps to ``RCCE_barrier``.  Condition
    variable calls have no translation and are reported as errors.
    """

    name = "stage5-mutex-conversion"

    CONDVAR_CALLS = ("pthread_cond_wait", "pthread_cond_timedwait",
                     "pthread_cond_signal", "pthread_cond_broadcast")

    def __init__(self, num_cores=48):
        self.num_cores = num_cores
        self.lock_ids = {}

    def run(self, context):
        for node in c_ast.walk(context.unit):
            if not isinstance(node, c_ast.FuncCall):
                continue
            callee = node.callee_name
            if callee in ("pthread_mutex_lock", "pthread_mutex_trylock"):
                self._rewrite_lock(context, node, "RCCE_acquire_lock")
            elif callee == "pthread_mutex_unlock":
                self._rewrite_lock(context, node, "RCCE_release_lock")
            elif callee == "pthread_barrier_wait":
                node.func = c_ast.Id("RCCE_barrier")
                node.args = [c_ast.UnaryOp("&", c_ast.Id("RCCE_COMM_WORLD"))]
            elif callee in self.CONDVAR_CALLS:
                context.diagnose(
                    self.name, "error",
                    "%s has no RCCE translation: condition variables "
                    "are not supported" % callee,
                    getattr(node, "coord", None))
        return dict(self.lock_ids)

    def _rewrite_lock(self, context, call, rcce_name):
        mutex = mutex_name(call)
        coord = getattr(call, "coord", None)
        if mutex == "<anonymous>":
            context.diagnose(
                self.name, "warning",
                "mutex expression is not a simple variable; all such "
                "expressions share one test-and-set register", coord)
        if mutex not in self.lock_ids:
            self.lock_ids[mutex] = len(self.lock_ids) % self.num_cores
            if len(self.lock_ids) > self.num_cores:
                context.diagnose(
                    self.name, "warning",
                    "mutex %r is the %dth distinct mutex but the chip "
                    "has only %d test-and-set registers; register %d is "
                    "now shared between unrelated mutexes (may "
                    "serialize, cannot deadlock-free alias)" % (
                        mutex, len(self.lock_ids), self.num_cores,
                        self.lock_ids[mutex]), coord)
        lock_id = self.lock_ids[mutex]
        call.func = c_ast.Id(rcce_name)
        call.args = [c_ast.Constant("int", lock_id, str(lock_id))]


class SharedVariableConversion(TransformPass):
    """Make implicitly shared variables explicitly shared (Stage 4's
    transformation half): globals become pointers backed by
    ``RCCE_shmalloc`` / ``RCCE_malloc`` allocations inserted at the top
    of the main procedure, and pre-existing ``malloc`` calls for shared
    pointers are renamed to the RCCE allocator (Algorithm 3: "If
    previous malloc call B for s exists in P, Remove B").

    Shared *scalars* are promoted to pointers and every use rewritten
    to a dereference; pthread-typed globals (mutexes etc.) are skipped
    because the mutex conversion replaces them with test-and-set
    registers and the type-removal pass deletes their declarations.
    """

    name = "stage5-shared-variable-conversion"
    requires = ("variables", "partition_plan")

    def run(self, context):
        from repro.core.removal import PTHREAD_DATA_TYPES, \
            _base_typedef_name

        unit = context.unit
        table = context.require("variables")
        plan = context.require("partition_plan")
        main = unit.find_function(RCCE_ENTRY) or unit.find_function("main")
        if main is None:
            return 0

        converted = 0
        alloc_stmts = []
        promoted = set()
        mallocs = self._existing_mallocs(unit)
        for decl in unit.global_decls():
            info = table.get_exact(decl.name, None)
            if info is None or not info.is_shared:
                continue
            if _base_typedef_name(decl.ctype) in PTHREAD_DATA_TYPES:
                continue  # replaced by test-and-set registers
            bank = plan.bank_of(decl.name) or MemoryBank.OFF_CHIP
            if bank is MemoryBank.OFF_CHIP:
                allocator = "RCCE_shmalloc"
            elif bank is MemoryBank.SPLIT:
                allocator = "RCCE_shmalloc_split"
            else:
                allocator = "RCCE_malloc"
            is_scalar = not (decl.ctype.is_array or decl.ctype.is_pointer)
            calls = mallocs.pop(decl.name, None)
            if calls:
                self._rename_malloc(calls, allocator)
                converted += 1
                if decl.ctype.is_array:
                    decl.ctype = ctypes.PointerType(
                        ctypes.strip_arrays(decl.ctype))
                decl.init = None
                continue
            if is_scalar:
                promoted.add(decl.name)
            element_type, count = self._element_shape(decl.ctype)
            split_bytes = None
            if bank is MemoryBank.SPLIT:
                placement = plan.placements.get((None, decl.name))
                split_bytes = placement.on_chip_bytes if placement else 0
            alloc_stmts.append(self._make_alloc(
                decl.name, element_type, count, allocator,
                split_bytes))
            if decl.ctype.is_array:
                decl.ctype = ctypes.PointerType(
                    ctypes.strip_arrays(decl.ctype))
            elif is_scalar:
                decl.ctype = ctypes.PointerType(decl.ctype)
            decl.init = None
            converted += 1

        if promoted:
            _ScalarPromoter(promoted).visit(unit)
        main.body.items[0:0] = alloc_stmts
        return converted

    @staticmethod
    def _element_shape(ctype):
        if ctype.is_array:
            return ctypes.strip_arrays(ctype), ctype.element_count()
        if ctype.is_pointer:
            return ctype.base, 1
        return ctype, 1

    @staticmethod
    def _make_alloc(name, element_type, count, allocator,
                    split_bytes=None):
        size_expr = c_ast.BinaryOp(
            "*", c_ast.SizeofType(element_type),
            c_ast.Constant("int", count, str(count)))
        args = [size_expr]
        if split_bytes is not None:
            args.append(c_ast.Constant("int", split_bytes,
                                       str(split_bytes)))
        call = c_ast.FuncCall(c_ast.Id(allocator), args)
        cast = c_ast.Cast(ctypes.PointerType(element_type), call)
        return c_ast.ExprStmt(c_ast.Assignment("=", c_ast.Id(name), cast))

    @staticmethod
    def _existing_mallocs(unit):
        """``{name: [call]}`` for every ``name = malloc/calloc(...)``
        assignment (possibly cast) in the program, in one walk."""
        mallocs = {}
        for node in c_ast.walk(unit):
            if isinstance(node, c_ast.Assignment) and node.op == "=" and \
                    isinstance(node.lvalue, c_ast.Id):
                call = node.rvalue
                if isinstance(call, c_ast.Cast):
                    call = call.expr
                if isinstance(call, c_ast.FuncCall) and \
                        call.callee_name in ("malloc", "calloc"):
                    mallocs.setdefault(node.lvalue.name, []).append(call)
        return mallocs

    @staticmethod
    def _rename_malloc(calls, allocator):
        """The program already mallocs the variable: keep each call's
        size expression and just swap the allocator name."""
        for call in calls:
            if call.callee_name == "calloc" and len(call.args) == 2:
                call.args = [c_ast.BinaryOp("*", call.args[0],
                                            call.args[1])]
            call.func = c_ast.Id(allocator)
