"""Interval abstract interpretation over the per-function CFGs.

One :class:`IntervalEngine` analyzes a whole translation unit in two
phases, the AstréeA recipe scaled to the paper's benchmark subset of C:

1. **fixpoint** — every function is solved with a worklist over its
   CFG (branch-condition refinement on the ``true``/``false`` edges,
   widening at loop heads after a short delay), and the functions are
   iterated in interprocedural rounds that grow three monotone
   summaries: flow-insensitive global values, per-parameter seeds
   (including the value ``pthread_create`` passes to a thread
   function's argument), and per-function return intervals;
2. **reporting** — the converged block in-states are replayed once
   with a checker attached, counting every check and recording
   findings for the four run-time-error categories (out-of-bounds,
   division by zero, signed overflow at the declared width, reads of
   uninitialized locals).

Integer arithmetic is modeled over the mathematical integers: overflow
is *reported*, not simulated, so a value that has escaped its declared
range keeps its interval (and the property test in
``tests/static/test_property.py`` can compare against Python's
unbounded ints directly).
"""

from repro.cfront import c_ast, ctypes
from repro.core.stage2_interthread import thread_function_name
from repro.ir.cfg import build_cfg
from repro.static import report as rep
from repro.static.domain import (
    INF, INIT, MAYBE_UNINIT, UNINIT, AbstractEnv, Interval, PtrVal,
    VarState, int_type_range,
)

_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")
_TOP_SEED = object()   # a summary slot explicitly widened to top


class _Checker:
    """Reporting-phase sink: counts every evaluated check, dedupes
    findings by source position, and appends to a StaticReport."""

    def __init__(self, report, filename):
        self.report = report
        self.filename = filename
        self._seen = set()

    def count(self, check):
        self.report.count_check(check)

    def finding(self, check, severity, variable, function, message,
                node):
        coord = getattr(node, "coord", None)
        line = coord.line if coord else None
        column = coord.column if coord else None
        key = (check, variable, line, column, message)
        if key in self._seen:
            return
        self._seen.add(key)
        filename = coord.filename if coord and coord.filename \
            else self.filename
        self.report.add(rep.StaticFinding(
            check, severity, variable, function, message,
            filename=filename, line=line, column=column))


class IntervalEngine:
    """Whole-unit interval analysis (see module docstring)."""

    WIDEN_DELAY = 2     # loop-head visits before widening kicks in
    MAX_ROUNDS = 8      # interprocedural summary rounds
    MAX_VISITS = 64     # per-block safety valve inside one solve

    def __init__(self, unit, variables, filename="<source>"):
        self.unit = unit
        self.variables = variables
        self.filename = filename
        self.functions = list(unit.functions())
        self.defined = {f.name: f for f in self.functions}
        self.cfgs = {f.name: build_cfg(f) for f in self.functions}
        self.heads = {name: cfg.loop_heads()
                      for name, cfg in self.cfgs.items()}
        self.globals = {}       # var key -> VarState (flow-insensitive)
        self.seeds = {}         # (func, param) -> value | _TOP_SEED
        self.returns = {}       # func -> value | _TOP_SEED
        self.solutions = {}     # func -> {block index: in env}
        self.havoc = False      # an unknown store may clobber anything
        self._refinable = {}    # branch condition -> free of side effects
        self._round = 0
        self._checker = None
        self._current = None    # function being interpreted
        self._init_globals()

    # -- interprocedural driver -------------------------------------------

    def analyze(self):
        # main first: its pthread_create sites seed the thread
        # functions' parameters before the workers are first solved
        ordered = sorted(self.functions,
                         key=lambda f: f.name != "main")
        for self._round in range(self.MAX_ROUNDS):
            before = self._snapshot()
            for func in ordered:
                self.solutions[func.name] = self._solve(func)
            if self._snapshot() == before:
                break
        return self

    def report_into(self, static_report):
        """Replay the converged states once with checks enabled."""
        self._checker = _Checker(static_report, self.filename)
        try:
            for func in self.functions:
                in_envs = self.solutions.get(func.name, {})
                cfg = self.cfgs[func.name]
                for block in cfg.reachable_blocks():
                    env = in_envs.get(block.index)
                    if env is None:
                        continue  # unreachable under the abstraction
                    self._transfer(func, block, env.copy())
        finally:
            self._checker = None
        return static_report

    def exit_env(self, function_name):
        """The abstract environment at a function's exit block (for
        the soundness property tests)."""
        cfg = self.cfgs.get(function_name)
        if cfg is None:
            return AbstractEnv()
        env = self.solutions.get(function_name, {}).get(cfg.exit.index)
        return env if env is not None else AbstractEnv()

    def exit_intervals(self, function_name):
        """``{local name: Interval}`` at a function's exit."""
        env = self.exit_env(function_name)
        result = {}
        for (func, name), state in env.states.items():
            if func == function_name and \
                    isinstance(state.value, Interval):
                result[name] = state.value
        return result

    def _snapshot(self):
        freeze = lambda v: repr(v)
        return (sorted((k, freeze(v)) for k, v in self.globals.items()),
                sorted((k, freeze(v)) for k, v in self.seeds.items()),
                sorted((k, freeze(v)) for k, v in self.returns.items()),
                self.havoc)

    # -- summaries ---------------------------------------------------------

    def _init_globals(self):
        for decl in self.unit.global_decls():
            if decl.ctype is None or decl.ctype.is_function or \
                    decl.storage == "typedef":
                continue
            key = (None, decl.name)
            value = None
            if decl.ctype.is_array:
                # zero-initialized contents joined with any initializer
                value = Interval.const(0)
                if isinstance(decl.init, c_ast.InitList):
                    for item in decl.init.exprs:
                        item_val = self._const_value(item)
                        value = value.join(item_val) if item_val \
                            else None
                        if value is None:
                            break
            elif decl.ctype.is_pointer:
                value = None  # NULL: untracked
            elif decl.init is not None:
                value = self._const_value(decl.init)
            else:
                value = Interval.const(0)
            self.globals[key] = VarState(value, INIT)

    @staticmethod
    def _const_value(expr):
        if isinstance(expr, c_ast.Constant) and \
                isinstance(expr.value, (int, float)):
            return Interval.const(expr.value)
        if isinstance(expr, c_ast.UnaryOp) and expr.op == "-" and \
                isinstance(expr.operand, c_ast.Constant) and \
                isinstance(expr.operand.value, (int, float)):
            return Interval.const(-expr.operand.value)
        return None

    def _merge_summary(self, table, key, value):
        """Monotone join into a summary dict; widen once the rounds
        get long so the interprocedural iteration converges."""
        old = table.get(key)
        if value is None:
            table[key] = _TOP_SEED
            return
        if old is None:
            table[key] = value
            return
        if old is _TOP_SEED:
            return
        widen = self._round >= 2
        if isinstance(old, Interval) and isinstance(value, Interval):
            table[key] = old.widen(value) if widen else old.join(value)
        elif isinstance(old, PtrVal):
            joined = old.join(value)
            table[key] = joined if joined is not None else _TOP_SEED
        elif old != value:
            table[key] = _TOP_SEED

    def _summary_value(self, table, key):
        value = table.get(key)
        return None if value is _TOP_SEED else value

    def _merge_global(self, key, value):
        old = self.globals.get(key, VarState(None, INIT))
        if old.value is None and key not in self.globals:
            self.globals[key] = VarState(value, INIT)
            return
        widen = self._round >= 2
        if old.value is None or value is None:
            merged = None
        else:
            merged = VarState(old.value, INIT).join(
                VarState(value, INIT), widen=widen).value
        self.globals[key] = VarState(merged, INIT)

    def _global_value(self, key):
        if self.havoc:
            return None
        state = self.globals.get(key)
        return state.value if state is not None else None

    # -- per-function solver ----------------------------------------------

    def _entry_env(self, func):
        env = AbstractEnv()
        for param in func.params:
            if param.name is None:
                continue
            key = (func.name, param.name)
            seed = self._summary_value(self.seeds, key)
            env.set(key, VarState(seed, INIT))
        return env

    def _solve(self, func):
        cfg = self.cfgs[func.name]
        heads = self.heads[func.name]
        in_envs = {cfg.entry.index: self._entry_env(func)}
        visits = {}
        worklist = [cfg.entry]
        queued = {cfg.entry.index}
        while worklist:
            block = worklist.pop(0)
            queued.discard(block.index)
            env = in_envs.get(block.index)
            if env is None:
                continue
            for succ, refined in self._transfer(func, block,
                                                env.copy()):
                if refined is None:
                    continue  # infeasible edge
                current = in_envs.get(succ.index)
                if current is None:
                    in_envs[succ.index] = refined
                    changed = True
                else:
                    count = visits.get(succ.index, 0) + 1
                    visits[succ.index] = count
                    widen = succ.index in heads and \
                        count > self.WIDEN_DELAY
                    widen = widen or count > self.MAX_VISITS
                    joined = current.join(refined, widen=widen)
                    changed = joined != current
                    if changed:
                        in_envs[succ.index] = joined
                if changed and succ.index not in queued:
                    worklist.append(succ)
                    queued.add(succ.index)
        return in_envs

    def _transfer(self, func, block, env):
        """Interpret one block; returns ``[(successor, env-or-None)]``
        with branch refinement applied per edge."""
        self._current = func
        branch_cond = None
        for stmt in block.statements:
            if isinstance(stmt, tuple):
                branch_cond = stmt[1]
                self._eval(branch_cond, env)
            else:
                self._exec(stmt, env)
        refinable = branch_cond is not None and \
            self._is_refinable(branch_cond)
        results = []
        for succ, label in block.successors:
            if refinable and label in ("true", "false", "back"):
                sense = label != "false"
                results.append((succ, self._refine(env.copy(),
                                                   branch_cond, sense)))
            else:
                results.append((succ, env.copy()))
        return results

    def _is_refinable(self, cond):
        """A branch condition refines its edges unless evaluating it
        has side effects; decided once per condition."""
        refinable = self._refinable.get(cond)
        if refinable is None:
            refinable = self._refinable[cond] = \
                not _has_side_effects(cond)
        return refinable

    # -- statements --------------------------------------------------------

    def _exec(self, stmt, env):
        if isinstance(stmt, c_ast.ExprStmt):
            self._eval(stmt.expr, env)
        elif isinstance(stmt, c_ast.DeclStmt):
            for decl in stmt.decls:
                self._declare(decl, env)
        elif isinstance(stmt, c_ast.Decl):
            self._declare(stmt, env)
        elif isinstance(stmt, c_ast.Return):
            if stmt.expr is not None:
                value = self._eval(stmt.expr, env)
                self._merge_summary(self.returns,
                                    self._current.name, value)
        # Break/Continue/Goto/Label/EmptyStmt: control handled by edges

    def _declare(self, decl, env):
        if decl.name is None or decl.ctype is None or \
                decl.ctype.is_function or decl.storage == "typedef":
            return
        func = self._current
        key = (func.name, decl.name)
        ctype = decl.ctype
        if ctype.is_array:
            if isinstance(decl.init, c_ast.InitList):
                for item in decl.init.exprs:
                    self._eval(item, env)
            env.set(key, VarState(None, INIT))
            return
        if decl.init is not None:
            value = self._eval(decl.init, env)
            if isinstance(decl.init, c_ast.InitList):
                value = None
            self._check_store(value, ctype, decl.name, decl)
            env.set(key, VarState(value, INIT))
            return
        if decl.storage == "static":
            env.set(key, VarState(Interval.const(0), INIT))
            return
        trackable = ctype.is_pointer or ctype.is_integral or \
            ctype.is_floating
        env.set(key, VarState(None, UNINIT if trackable else INIT))

    # -- expressions -------------------------------------------------------

    def _eval(self, node, env):
        if node is None:
            return None
        if isinstance(node, c_ast.Constant):
            if isinstance(node.value, (int, float)):
                return Interval.const(node.value)
            return None
        if isinstance(node, c_ast.Id):
            return self._eval_id(node, env)
        if isinstance(node, c_ast.BinaryOp):
            return self._eval_binop(node, env)
        if isinstance(node, c_ast.UnaryOp):
            return self._eval_unop(node, env)
        if isinstance(node, c_ast.Assignment):
            return self._eval_assignment(node, env)
        if isinstance(node, c_ast.ArrayRef):
            addr = self._address_of(node, env)
            self._check_deref(addr, node, "read")
            return self._load(addr, env)
        if isinstance(node, c_ast.Cast):
            return self._eval_cast(node, env)
        if isinstance(node, c_ast.FuncCall):
            return self._eval_call(node, env)
        if isinstance(node, c_ast.TernaryOp):
            self._eval(node.cond, env)
            then = self._eval(node.then, env)
            other = self._eval(node.els, env)
            if isinstance(then, Interval) and \
                    isinstance(other, Interval):
                return then.join(other)
            if isinstance(then, PtrVal):
                return then.join(other)
            return None
        if isinstance(node, c_ast.Comma):
            value = None
            for item in node.exprs:
                value = self._eval(item, env)
            return value
        if isinstance(node, c_ast.SizeofType):
            try:
                return Interval.const(node.ctype.sizeof())
            except Exception:
                return None
        if isinstance(node, c_ast.InitList):
            for item in node.exprs:
                self._eval(item, env)
            return None
        if isinstance(node, c_ast.MemberRef):
            self._eval(node.base, env)
            return None
        if isinstance(node, c_ast.StringLiteral):
            return None
        return None

    def _eval_id(self, node, env, as_read=True):
        func = self._current
        info = self.variables.get(node.name, func.name)
        if info is None or info.ctype is None or \
                info.ctype.is_function:
            return None
        key = (info.function, info.name)
        if info.ctype.is_array:
            return PtrVal(key)   # array-to-pointer decay
        if info.function is None:
            return self._global_value(key)
        if info.function != func.name:
            return None          # another function's (escaped) local
        state = env.get(key)
        if state is None:
            return None
        if as_read and self._checker is not None and \
                info.scope_kind == "local":
            self._checker.count(rep.UNINIT_READ)
            if state.init == UNINIT:
                self._checker.finding(
                    rep.UNINIT_READ, rep.DEFINITE, info.name,
                    func.name,
                    "'%s' is read before it is initialized"
                    % info.name, node)
            elif state.init == MAYBE_UNINIT:
                self._checker.finding(
                    rep.UNINIT_READ, rep.POSSIBLE, info.name,
                    func.name,
                    "'%s' may be read before it is initialized on "
                    "some path" % info.name, node)
        return state.value

    def _eval_binop(self, node, env):
        op = node.op
        if op in ("&&", "||"):
            self._eval(node.left, env)
            self._eval(node.right, env)
            return Interval(0, 1)
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if op in _COMPARISONS:
            return Interval(0, 1)
        return self._binop_value(op, left, right, node)

    def _binop_value(self, op, left, right, node):
        # pointer arithmetic keeps the base and shifts the offset
        if isinstance(left, PtrVal):
            if isinstance(right, Interval) and op == "+":
                return left.shifted(right)
            if isinstance(right, Interval) and op == "-":
                return left.shifted(right.neg())
            if isinstance(right, PtrVal) and op == "-":
                if right.base == left.base:
                    return left.offset.sub(right.offset)
            return None
        if isinstance(right, PtrVal):
            return right.shifted(left) if op == "+" and \
                isinstance(left, Interval) else None
        if op in ("/", "%"):
            self._check_divide(right, node)
        if not isinstance(left, Interval) or \
                not isinstance(right, Interval):
            return None
        if op == "+":
            value = left.add(right)
        elif op == "-":
            value = left.sub(right)
        elif op == "*":
            value = left.mul(right)
        elif op == "/":
            value = left.divide(right,
                                truncate=not self._is_float_op(node))
        elif op == "%":
            value = left.mod(right)
        elif op == "<<":
            if right.is_const and isinstance(right.lo, int) and \
                    0 <= right.lo < 64:
                value = left.mul(Interval.const(1 << right.lo))
            else:
                value = Interval.top()
        elif op == ">>":
            if left.lo >= 0 and right.is_const and \
                    isinstance(right.lo, int) and 0 <= right.lo < 64:
                value = left.divide(Interval.const(1 << right.lo),
                                    truncate=True)
            else:
                value = Interval.top()
        elif op == "&":
            if left.lo >= 0 and right.lo >= 0:
                value = Interval(0, min(left.hi, right.hi))
            else:
                value = Interval.top()
        elif op in ("|", "^"):
            if left.lo >= 0 and right.lo >= 0:
                # carry-free: a|b and a^b never exceed a+b
                value = Interval(0, _sum_hi(left.hi, right.hi))
            else:
                value = Interval.top()
        else:
            return None
        self._check_overflow(value, node)
        return value

    def _eval_unop(self, node, env):
        op = node.op
        if op == "&":
            return self._take_address(node.operand, env)
        if op == "*":
            ptr = self._eval(node.operand, env)
            addr = ptr if isinstance(ptr, PtrVal) else None
            self._check_deref(addr, node, "read")
            return self._load(addr, env)
        if op in ("++", "--", "p++", "p--"):
            return self._step_lvalue(node, env)
        operand = self._eval(node.operand, env)
        if op == "!":
            return Interval(0, 1)
        if not isinstance(operand, Interval):
            return None
        if op == "-":
            value = operand.neg()
            self._check_overflow(value, node)
            return value
        if op == "+":
            return operand
        if op == "~":
            value = operand.neg().sub(Interval.const(1))
            self._check_overflow(value, node)
            return value
        return None

    def _take_address(self, operand, env):
        operand = _peel_casts(operand)
        if isinstance(operand, c_ast.Id):
            info = self.variables.get(operand.name,
                                      self._current.name)
            if info is None:
                return None
            key = (info.function, info.name)
            if info.function == self._current.name and \
                    not info.ctype.is_array:
                # escaped local: value untracked from here on, and no
                # longer eligible for the uninit check
                env.set(key, VarState(None, INIT))
            return PtrVal(key)
        if isinstance(operand, c_ast.ArrayRef):
            addr = self._address_of(operand, env)
            return addr
        if isinstance(operand, c_ast.UnaryOp) and operand.op == "*":
            value = self._eval(operand.operand, env)
            return value if isinstance(value, PtrVal) else None
        return None

    def _step_lvalue(self, node, env):
        """``++x`` / ``x--`` and friends: read-modify-write."""
        delta = Interval.const(1 if "+" in node.op else -1)
        lvalue = _peel_casts(node.operand)
        current = self._eval(lvalue, env)
        if isinstance(current, PtrVal):
            updated = current.shifted(delta)
        elif isinstance(current, Interval):
            updated = current.add(delta)
            self._check_overflow(updated, node,
                                 ctype=self._lvalue_type(lvalue))
        else:
            updated = None
        self._store_lvalue(lvalue, updated, env, check_store=False)
        prefix = node.op in ("++", "--")
        return updated if prefix else current

    def _eval_cast(self, node, env):
        value = self._eval(node.expr, env)
        target = node.ctype
        if value is None or target is None:
            return None
        if isinstance(value, PtrVal):
            # pointer-to-pointer casts keep the base; pointer-to-int
            # drops to an unknown integer
            return value if target.is_pointer else None
        if target.is_pointer or target.is_floating:
            return value
        rng = int_type_range(target)
        if rng is not None and isinstance(value, Interval):
            if value.within(rng[0], rng[1]):
                return value
            return None  # conversion may wrap: value unknown
        return value

    def _eval_call(self, node, env):
        name = node.callee_name
        args = [self._eval(arg, env) for arg in node.args]
        if name == "pthread_create" and len(node.args) >= 4:
            target = thread_function_name(node.args[2])
            worker = self.defined.get(target)
            if worker is not None and worker.params:
                first = worker.params[0]
                if first.name is not None:
                    self._merge_summary(
                        self.seeds, (target, first.name), args[3])
            return Interval.const(0)
        if name in self.defined:
            callee = self.defined[name]
            for param, value in zip(callee.params, args):
                if param.name is not None:
                    self._merge_summary(
                        self.seeds, (name, param.name), value)
            return self._summary_value(self.returns, name)
        return None

    def _eval_assignment(self, node, env):
        value = self._eval(node.rvalue, env)
        lvalue = _peel_casts(node.lvalue)
        if node.op != "=":
            current = self._eval(lvalue, env)
            value = self._binop_value(
                node.op[:-1], current, value,
                _TypedNode(node, self._lvalue_type(lvalue)))
        self._store_lvalue(lvalue, value, env)
        return value

    def _lvalue_type(self, lvalue):
        func = self._current
        if isinstance(lvalue, c_ast.Id):
            info = self.variables.get(lvalue.name, func.name)
            return info.ctype if info is not None else None
        if isinstance(lvalue, c_ast.ArrayRef):
            base = self._lvalue_type(_peel_casts(lvalue.base))
            return _element_type(base)
        if isinstance(lvalue, c_ast.UnaryOp) and lvalue.op == "*":
            base = self._expr_type(lvalue.operand)
            return _element_type(base)
        return None

    def _store_lvalue(self, lvalue, value, env, check_store=True):
        func = self._current
        if isinstance(lvalue, c_ast.Id):
            info = self.variables.get(lvalue.name, func.name)
            if info is None or info.ctype is None or \
                    info.ctype.is_array:
                return
            if check_store:
                self._check_store(value, info.ctype, info.name,
                                  lvalue)
            key = (info.function, info.name)
            if info.function is None:
                self._merge_global(key, value)
            elif info.function == func.name:
                env.set(key, VarState(value, INIT))
            return
        if isinstance(lvalue, c_ast.ArrayRef) or (
                isinstance(lvalue, c_ast.UnaryOp)
                and lvalue.op == "*"):
            addr = self._address_of(lvalue, env)
            self._check_deref(addr, lvalue, "write")
            if addr is None:
                self.havoc = True   # store through an unknown pointer
                return
            if check_store:
                info = self._info_for_key(addr.base)
                if info is not None and info.ctype is not None:
                    self._check_store(
                        value, _strip_to_element(info.ctype),
                        info.name, lvalue)
            self._store_to(addr.base, value, env)
            return
        if isinstance(lvalue, c_ast.MemberRef):
            self.havoc = True
            return

    def _store_to(self, base_key, value, env):
        """Weak update of the object behind a dereference."""
        func_name, _name = base_key
        if func_name is None:
            self._merge_global(base_key, value)
        # contents of local arrays / other functions' locals are
        # untracked: reads come back as top, which is sound

    def _address_of(self, node, env):
        """The PtrVal a dereferenceable lvalue designates, or None."""
        if isinstance(node, c_ast.ArrayRef):
            base = self._eval(node.base, env)
            index = self._eval(node.index, env)
            if isinstance(base, PtrVal) and isinstance(index,
                                                      Interval):
                return base.shifted(index)
            return None
        if isinstance(node, c_ast.UnaryOp) and node.op == "*":
            value = self._eval(node.operand, env)
            return value if isinstance(value, PtrVal) else None
        return None

    def _load(self, addr, env):
        if addr is None:
            return None
        func_name, name = addr.base
        if func_name is None:
            return self._global_value(addr.base)
        if func_name == self._current.name:
            state = env.get(addr.base)
            info = self._info_for_key(addr.base)
            if info is not None and info.ctype is not None and \
                    not info.ctype.is_array and state is not None and \
                    addr.offset == Interval.const(0):
                return state.value   # *(&x) round trip
        return None

    def _info_for_key(self, key):
        func_name, name = key
        return self.variables.get_exact(name, func_name)

    # -- checks ------------------------------------------------------------

    def _is_float_op(self, node):
        ctype = self._expr_type(node)
        return ctype is not None and ctype.is_floating

    def _check_divide(self, denominator, node):
        if self._checker is None:
            return
        if self._is_float_op(node):
            return   # IEEE division is defined at zero
        self._checker.count(rep.DIV_BY_ZERO)
        if not isinstance(denominator, Interval):
            return   # unknown divisor: not flagged (see docs caveats)
        if denominator == Interval.const(0):
            self._checker.finding(
                rep.DIV_BY_ZERO, rep.DEFINITE, None,
                self._current.name, "division by zero", node)
        elif denominator.contains_zero():
            self._checker.finding(
                rep.DIV_BY_ZERO, rep.POSSIBLE, None,
                self._current.name,
                "divisor range %r includes zero" % denominator, node)

    def _check_overflow(self, value, node, ctype=None):
        if self._checker is None or not isinstance(value, Interval):
            return
        if ctype is None:
            ctype = self._expr_type(node)
        rng = int_type_range(ctype) if ctype is not None else None
        if rng is None:
            return
        self._checker.count(rep.OVERFLOW)
        lo, hi = rng
        if value.lo > hi or value.hi < lo:
            self._checker.finding(
                rep.OVERFLOW, rep.DEFINITE, None, self._current.name,
                "signed overflow: result %r cannot fit %s"
                % (value, _type_name(ctype)), node)
        elif value.hi > hi and value.hi != INF:
            self._checker.finding(
                rep.OVERFLOW, rep.POSSIBLE, None, self._current.name,
                "possible signed overflow: result %r exceeds %s max "
                "%d" % (value, _type_name(ctype), hi), node)
        elif value.lo < lo and value.lo != -INF:
            self._checker.finding(
                rep.OVERFLOW, rep.POSSIBLE, None, self._current.name,
                "possible signed overflow: result %r below %s min %d"
                % (value, _type_name(ctype), lo), node)

    def _check_store(self, value, ctype, name, node):
        if self._checker is None or not isinstance(value, Interval) \
                or ctype is None:
            return
        rng = int_type_range(ctype)
        if rng is None:
            return
        self._checker.count(rep.OVERFLOW)
        lo, hi = rng
        if value.lo > hi or value.hi < lo:
            self._checker.finding(
                rep.OVERFLOW, rep.DEFINITE, name,
                self._current.name,
                "storing %r into '%s' (%s) always overflows"
                % (value, name, _type_name(ctype)), node)

    def _check_deref(self, addr, node, kind):
        if self._checker is None:
            return
        self._checker.count(rep.OUT_OF_BOUNDS)
        if addr is None:
            self._checker.report.dropped += 1
            return
        info = self._info_for_key(addr.base)
        if info is None or info.ctype is None:
            return
        if info.ctype.is_array:
            count = info.ctype.element_count()
        elif info.ctype.is_pointer:
            return   # target object unknown at this level
        else:
            count = 1   # &scalar: only offset 0 is valid
        if not count:
            return
        offset = addr.offset
        valid = Interval(0, count - 1)
        if offset.meet(valid) is None:
            self._checker.finding(
                rep.OUT_OF_BOUNDS, rep.DEFINITE, info.name,
                self._current.name,
                "%s of '%s[%r]' is always outside [0, %d]"
                % (kind, info.name, offset, count - 1), node)
        elif offset.hi > count - 1 and offset.hi != INF:
            self._checker.finding(
                rep.OUT_OF_BOUNDS, rep.POSSIBLE, info.name,
                self._current.name,
                "%s of '%s[%r]' may exceed bound %d"
                % (kind, info.name, offset, count - 1), node)
        elif offset.lo < 0 and offset.lo != -INF:
            self._checker.finding(
                rep.OUT_OF_BOUNDS, rep.POSSIBLE, info.name,
                self._current.name,
                "%s of '%s[%r]' may underrun index 0"
                % (kind, info.name, offset), node)

    # -- static C types (for overflow widths) ------------------------------

    def _expr_type(self, node):
        if isinstance(node, _TypedNode):
            return node.ctype
        if isinstance(node, c_ast.Id):
            info = self.variables.get(node.name, self._current.name)
            return info.ctype if info is not None else None
        if isinstance(node, c_ast.Constant):
            if node.kind == "int" and isinstance(node.value, int):
                if -(2 ** 31) <= node.value < 2 ** 31:
                    return ctypes.INT
                return ctypes.PrimitiveType("long long")
            if node.kind == "char":
                return ctypes.INT   # promoted
            return ctypes.DOUBLE
        if isinstance(node, c_ast.Cast):
            return node.ctype
        if isinstance(node, c_ast.ArrayRef):
            return _element_type(self._expr_type(node.base))
        if isinstance(node, c_ast.UnaryOp):
            if node.op == "*":
                return _element_type(self._expr_type(node.operand))
            if node.op == "&":
                return ctypes.PointerType(
                    self._expr_type(node.operand)
                    or ctypes.PrimitiveType("void"))
            if node.op == "!":
                return ctypes.INT
            return _promote(self._expr_type(node.operand))
        if isinstance(node, c_ast.BinaryOp):
            if node.op in _COMPARISONS or node.op in ("&&", "||"):
                return ctypes.INT
            left = self._expr_type(node.left)
            right = self._expr_type(node.right)
            return _usual_arithmetic(left, right)
        if isinstance(node, c_ast.Assignment):
            return self._lvalue_type(_peel_casts(node.lvalue))
        if isinstance(node, c_ast.TernaryOp):
            left = self._expr_type(node.then)
            right = self._expr_type(node.els)
            return _usual_arithmetic(left, right)
        if isinstance(node, c_ast.FuncCall):
            callee = self.defined.get(node.callee_name)
            return callee.return_type if callee is not None else None
        if isinstance(node, c_ast.Comma):
            return self._expr_type(node.exprs[-1]) if node.exprs \
                else None
        if isinstance(node, c_ast.SizeofType):
            return ctypes.INT
        return None

    # -- branch refinement -------------------------------------------------

    def _refine(self, env, cond, sense):
        """Refine ``env`` assuming ``cond`` evaluates to ``sense``;
        returns None when the edge is infeasible."""
        cond = _peel_casts(cond)
        if isinstance(cond, c_ast.UnaryOp) and cond.op == "!":
            return self._refine(env, cond.operand, not sense)
        if isinstance(cond, c_ast.BinaryOp):
            if cond.op == "&&" and sense:
                env = self._refine(env, cond.left, True)
                return None if env is None else \
                    self._refine(env, cond.right, True)
            if cond.op == "||" and not sense:
                env = self._refine(env, cond.left, False)
                return None if env is None else \
                    self._refine(env, cond.right, False)
            if cond.op in _COMPARISONS:
                return self._refine_compare(env, cond, sense)
            return env
        if isinstance(cond, c_ast.Id):
            # `if (x)`: false means x == 0
            if not sense:
                return self._refine_var(env, cond,
                                        Interval.const(0), "==")
            return self._refine_var(env, cond, Interval.const(0),
                                    "!=")
        return env

    def _refine_compare(self, env, cond, sense):
        op = cond.op
        if not sense:
            op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
                  "==": "!=", "!=": "=="}[op]
        left_val = self._eval(cond.left, env.copy())
        right_val = self._eval(cond.right, env.copy())
        if isinstance(right_val, Interval):
            env = self._refine_var(env, cond.left, right_val, op)
            if env is None:
                return None
        if isinstance(left_val, Interval):
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                       "==": "==", "!=": "!="}[op]
            env = self._refine_var(env, cond.right, left_val,
                                   flipped)
        return env

    def _refine_var(self, env, expr, bound, op):
        """Meet a variable's interval with ``<var> <op> [bound]``."""
        expr = _peel_casts(expr)
        if not isinstance(expr, c_ast.Id):
            return env
        func = self._current
        info = self.variables.get(expr.name, func.name)
        if info is None or info.ctype is None or \
                info.function != func.name or info.ctype.is_array:
            return env
        key = (info.function, info.name)
        state = env.get(key)
        if state is None:
            return env
        value = state.value
        if value is None:
            if not (info.ctype.is_integral or info.ctype.is_floating):
                return env
            value = Interval.top()
        if not isinstance(value, Interval):
            return env
        if op == "<":
            refined = value.clamp_below(bound.hi, strict=True)
        elif op == "<=":
            refined = value.clamp_below(bound.hi, strict=False)
        elif op == ">":
            refined = value.clamp_above(bound.lo, strict=True)
        elif op == ">=":
            refined = value.clamp_above(bound.lo, strict=False)
        elif op == "==":
            refined = value.meet(bound)
        elif op == "!=":
            refined = value
            if bound.is_const:
                if value.is_const and value == bound:
                    refined = None
                elif value.lo == bound.lo:
                    refined = value.clamp_above(bound.lo + 1,
                                                strict=False)
                elif value.hi == bound.hi:
                    refined = value.clamp_below(bound.hi - 1,
                                                strict=False)
        else:
            return env
        if refined is None:
            return None   # comparison cannot hold: edge infeasible
        env.set(key, VarState(refined, state.init))
        return env


class _TypedNode:
    """Wraps a node with a known result type (compound assignments
    compute at the lvalue's type, not the operands')."""

    __slots__ = ("node", "ctype", "coord")

    def __init__(self, node, ctype):
        self.node = node
        self.ctype = ctype
        self.coord = getattr(node, "coord", None)


def _peel_casts(node):
    while isinstance(node, c_ast.Cast):
        node = node.expr
    return node


def _has_side_effects(expr):
    for node in c_ast.walk(expr):
        if isinstance(node, (c_ast.Assignment, c_ast.FuncCall)):
            return True
        if isinstance(node, c_ast.UnaryOp) and \
                node.op in ("++", "--", "p++", "p--"):
            return True
    return False


def _element_type(ctype):
    if ctype is None:
        return None
    if ctype.is_array or ctype.is_pointer:
        return getattr(ctype, "base", None)
    return None


def _strip_to_element(ctype):
    """The element type stored through a dereference of ``ctype``'s
    object (arrays and pointers peel one level; scalars are
    themselves)."""
    element = _element_type(ctype)
    return element if element is not None else ctype


def _promote(ctype):
    if ctype is None:
        return None
    if ctype.is_integral and not ctype.is_pointer:
        try:
            if ctype.sizeof() < 4:
                return ctypes.INT
        except Exception:
            return ctype
    return ctype


def _usual_arithmetic(left, right):
    if left is None or right is None:
        return None
    if left.is_pointer or left.is_array:
        return left
    if right.is_pointer or right.is_array:
        return right
    if left.is_floating or right.is_floating:
        return left if left.is_floating else right
    left = _promote(left)
    right = _promote(right)
    try:
        return left if left.sizeof() >= right.sizeof() else right
    except Exception:
        return None


def _type_name(ctype):
    return getattr(ctype, "name", None) or str(ctype)


def _sum_hi(a, b):
    if a == INF or b == INF:
        return INF
    return a + b
