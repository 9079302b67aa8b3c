"""Stage 3 — Alias and Pointer Analysis (paper §4.3, Algorithm 2).

A dataflow points-to analysis over per-function CFGs: pointer
relationships are gathered from pointer assignments (including through
function-call argument binding), merged to a fixed point, and classified
as *definite* or *possibly* — a relationship that only holds on one arm
of an if-else is merged as "possibly" (the paper calls this out
explicitly).

Algorithm 2 then walks the relationship map: for every **definite**
relationship whose pointer is shared, the pointed-to symbol becomes
shared too.  Finally, globals that are entirely unused are demoted to
private (the paper's post-Stage-3 cleanup of ``global`` in Table 4.2).
"""

from repro.cfront import c_ast
from repro.ir.cfg import build_cfg
from repro.ir.dataflow import ForwardDataflow
from repro.ir.passes import AnalysisPass
from repro.core.varinfo import Sharing

STAGE = 3

_ALLOCATORS = {"malloc", "calloc", "realloc",
               "RCCE_shmalloc", "RCCE_malloc"}


class PointsToState:
    """Lattice value: ``{pointer_key: {target_key: definite_bool}}``.

    Keys are ``(function_or_None, name)`` for variables and
    ``('heap', site)`` for allocation sites.
    """

    def __init__(self, relations=None):
        self.relations = {key: dict(targets)
                          for key, targets in (relations or {}).items()}

    def copy(self):
        return PointsToState(self.relations)

    def assign(self, pointer, targets):
        """Strong update: ``pointer`` now points exactly at ``targets``."""
        self.relations[pointer] = dict(targets)

    def targets_of(self, pointer):
        return dict(self.relations.get(pointer, {}))

    def merge(self, other):
        """Join: union of targets; definite only if definite on *all*
        paths that constrain the pointer."""
        merged = {}
        keys = set(self.relations) | set(other.relations)
        for key in keys:
            mine = self.relations.get(key)
            theirs = other.relations.get(key)
            if mine is None:
                merged[key] = {t: False for t in theirs}
            elif theirs is None:
                merged[key] = {t: False for t in mine}
            else:
                combined = {}
                for target in set(mine) | set(theirs):
                    in_both = target in mine and target in theirs
                    combined[target] = (in_both and mine[target]
                                        and theirs[target])
                merged[key] = combined
        return PointsToState(merged)

    def __eq__(self, other):
        return isinstance(other, PointsToState) and \
            self.relations == other.relations

    def __repr__(self):
        return "PointsToState(%d pointers)" % len(self.relations)


class _FunctionPointsTo(ForwardDataflow):
    """Flow-sensitive points-to over one function's CFG."""

    def __init__(self, analysis, function_name, seed):
        self.analysis = analysis
        self.function_name = function_name
        self.seed = seed

    def initial(self):
        return PointsToState()

    def boundary(self):
        return self.seed.copy()

    def merge(self, a, b):
        if not a.relations:
            return b.copy()
        if not b.relations:
            return a.copy()
        return a.merge(b)

    def transfer(self, block, value):
        state = value.copy()
        for stmt in block.statements:
            if isinstance(stmt, tuple) and stmt[0] == "branch":
                self.analysis.visit_expression(stmt[1], self.function_name,
                                               state)
                continue
            self.analysis.visit_statement(stmt, self.function_name, state)
        return state


class PointsToAnalysis:
    """Interprocedural driver: iterates per-function dataflow to a global
    fixed point, binding pointer arguments to parameters across calls."""

    MAX_ROUNDS = 20

    def __init__(self, unit, variables):
        self.unit = unit
        self.variables = variables
        self.global_state = PointsToState()
        self.param_seeds = {}   # (function, param) -> {target: definite}
        self.result = {}        # accumulated relationship map
        # id(pthread_create call) -> (its coord, its thread arg targets)
        self.thread_arguments = {}
        self._heap_counter = 0
        self._heap_sites = {}

    # -- key resolution ---------------------------------------------------------

    def resolve(self, name, function):
        info = self.variables.get(name, function)
        if info is None:
            return None
        return (info.function, info.name)

    def heap_site(self, node):
        key = id(node)
        if key not in self._heap_sites:
            self._heap_sites[key] = ("heap", self._heap_counter)
            self._heap_counter += 1
        return self._heap_sites[key]

    # -- analysis ----------------------------------------------------------------

    def analyze(self):
        functions = self.unit.functions()
        cfgs = {func.name: build_cfg(func) for func in functions}
        self.rounds = 0
        for _ in range(self.MAX_ROUNDS):
            self.rounds += 1
            before = (self._snapshot(self.global_state.relations),
                      self._snapshot_seeds())
            for func in functions:
                seed = self._seed_for(func)
                solver = _FunctionPointsTo(self, func.name, seed)
                solution = solver.solve(cfgs[func.name])
                exit_in, _ = solution[cfgs[func.name].exit.index]
                self._absorb(func.name, solution, cfgs[func.name])
                self._absorb_globals(exit_in)
            after = (self._snapshot(self.global_state.relations),
                     self._snapshot_seeds())
            if before == after:
                break
        return self.result

    def _snapshot(self, relations):
        return {k: tuple(sorted(v.items())) for k, v in relations.items()}

    def _snapshot_seeds(self):
        return {k: tuple(sorted(v.items()))
                for k, v in self.param_seeds.items()}

    def _seed_for(self, func):
        seed = PointsToState(self.global_state.relations)
        for param in func.params:
            if not param.name:
                continue
            key = (func.name, param.name)
            if key in self.param_seeds:
                seed.relations[key] = dict(self.param_seeds[key])
        return seed

    def _absorb(self, function, solution, cfg):
        """Fold every block's out-state into the final relationship map
        (the paper merges data 'updated at each statement ... with the
        existing pointer information collected before it')."""
        for block in cfg.blocks:
            _, out_state = solution[block.index]
            for pointer, targets in out_state.relations.items():
                bucket = self.result.setdefault(pointer, {})
                for target, definite in targets.items():
                    if target in bucket:
                        bucket[target] = bucket[target] and definite
                    else:
                        bucket[target] = definite

    def _absorb_globals(self, exit_state):
        for pointer, targets in exit_state.relations.items():
            if pointer[0] is None:  # a global pointer
                current = self.global_state.relations.get(pointer)
                if current is None:
                    self.global_state.relations[pointer] = dict(targets)
                else:
                    for target, definite in targets.items():
                        if target in current:
                            current[target] = current[target] and definite
                        else:
                            current[target] = definite

    # -- statement / expression visitors -------------------------------------------

    def visit_statement(self, stmt, function, state):
        if isinstance(stmt, c_ast.DeclStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    self._assign(decl.name, decl.init, function, state)
            return
        if isinstance(stmt, c_ast.ExprStmt):
            self.visit_expression(stmt.expr, function, state)
            return
        if isinstance(stmt, c_ast.Return) and stmt.expr is not None:
            self.visit_expression(stmt.expr, function, state)

    def visit_expression(self, expr, function, state):
        if isinstance(expr, c_ast.Assignment):
            self.visit_expression(expr.rvalue, function, state)
            if expr.op == "=" and isinstance(expr.lvalue, c_ast.Id):
                self._assign(expr.lvalue.name, expr.rvalue, function, state)
            return
        if isinstance(expr, c_ast.FuncCall):
            for arg in expr.args:
                self.visit_expression(arg, function, state)
            self._bind_call_arguments(expr, function, state)
            return
        if isinstance(expr, c_ast.Comma):
            for item in expr.exprs:
                self.visit_expression(item, function, state)
            return
        for child in expr.children():
            if isinstance(child, c_ast.Expression):
                self.visit_expression(child, function, state)

    def _assign(self, name, rvalue, function, state):
        pointer = self.resolve(name, function)
        if pointer is None:
            return
        info = self.variables.get(name, function)
        if info is None or not (info.ctype.is_pointer or
                                info.ctype.is_array):
            return
        targets = self._evaluate_pointer_expr(rvalue, function, state)
        if targets is not None:
            state.assign(pointer, targets)

    def _evaluate_pointer_expr(self, expr, function, state):
        """Points-to set of a pointer-valued expression, or None if the
        expression doesn't produce trackable pointer information."""
        if isinstance(expr, c_ast.Cast):
            return self._evaluate_pointer_expr(expr.expr, function, state)
        if isinstance(expr, c_ast.UnaryOp) and expr.op == "&":
            target = self._address_target(expr.operand, function)
            if target is not None:
                return {target: True}
            return None
        if isinstance(expr, c_ast.Id):
            source = self.resolve(expr.name, function)
            if source is None:
                return None
            info = self.variables.get(expr.name, function)
            if info is not None and info.ctype.is_array:
                # arrays decay: q = arr makes q point at arr
                return {source: True}
            targets = state.targets_of(source)
            return targets if targets else None
        if isinstance(expr, c_ast.FuncCall):
            if expr.callee_name in _ALLOCATORS:
                return {self.heap_site(expr): True}
            return None
        if isinstance(expr, c_ast.BinaryOp) and expr.op in ("+", "-"):
            # pointer arithmetic stays within the pointed-at object
            left = self._evaluate_pointer_expr(expr.left, function, state)
            if left is not None:
                return left
            return self._evaluate_pointer_expr(expr.right, function, state)
        if isinstance(expr, c_ast.TernaryOp):
            then = self._evaluate_pointer_expr(expr.then, function, state)
            els = self._evaluate_pointer_expr(expr.els, function, state)
            if then is None:
                return els
            if els is None:
                return then
            merged = {}
            for target in set(then) | set(els):
                merged[target] = (then.get(target, False)
                                  and els.get(target, False))
            return merged
        return None

    def _address_target(self, operand, function):
        if isinstance(operand, c_ast.Id):
            return self.resolve(operand.name, function)
        if isinstance(operand, c_ast.ArrayRef):
            base = operand.base
            while isinstance(base, c_ast.ArrayRef):
                base = base.base
            if isinstance(base, c_ast.Id):
                return self.resolve(base.name, function)
        return None

    def _bind_call_arguments(self, call, function, state):
        """Interprocedural binding: pointer arguments seed the callee's
        parameters for the next fixpoint round."""
        callee = call.callee_name
        if callee is None:
            return
        if callee == "pthread_create":
            self._bind_thread_argument(call, function, state)
            return
        func = self.unit.find_function(callee)
        if func is None:
            return
        for param, arg in zip(func.params, call.args):
            if not param.name:
                continue
            if not (param.ctype.is_pointer or param.ctype.is_array):
                continue
            targets = self._evaluate_pointer_expr(arg, function, state)
            if not targets:
                continue
            key = (callee, param.name)
            bucket = self.param_seeds.setdefault(key, {})
            for target, definite in targets.items():
                if target in bucket:
                    bucket[target] = bucket[target] and definite
                else:
                    bucket[target] = definite

    def _bind_thread_argument(self, call, function, state):
        """Record what ``pthread_create``'s thread argument points at:
        the creator and the new thread both hold that pointer."""
        if len(call.args) < 4:
            return
        targets = self._evaluate_pointer_expr(call.args[3], function,
                                              state)
        if targets:
            _, seen = self.thread_arguments.setdefault(
                id(call), (getattr(call, "coord", None), set()))
            seen.update(targets)


class AliasPointerAnalysis(AnalysisPass):
    """Stage 3 pass: runs the points-to analysis, applies Algorithm 2,
    and demotes entirely-unused globals."""

    name = "stage3-alias-pointer-analysis"
    requires = ("variables",)
    provides = ("points_to", "thread_pointer_args")

    def run(self, context):
        table = context.require("variables")
        analysis = PointsToAnalysis(context.unit, table)
        relations = analysis.analyze()
        context.provide("points_to", relations)
        self._fixpoint_rounds = analysis.rounds
        self._algorithm2_rounds = 0
        context.provide("thread_pointer_args", [
            (coord, self._share_thread_argument(table, targets))
            for coord, targets in analysis.thread_arguments.values()])

        # Algorithm 2: shared pointer with a definite relationship makes
        # the pointed-to symbol shared.
        changed = True
        while changed:
            self._algorithm2_rounds += 1
            changed = False
            for pointer, targets in relations.items():
                pointer_info = self._lookup(table, pointer)
                if pointer_info is None or not pointer_info.is_shared:
                    continue
                for target, definite in targets.items():
                    if not definite or target[0] == "heap":
                        continue
                    target_info = self._lookup(table, target)
                    if target_info is not None and not target_info.is_shared:
                        target_info.set_sharing(Sharing.TRUE, STAGE)
                        changed = True

        # Post-processing: globals defined but entirely unused may be
        # set private (paper: variable `global` in Table 4.2).
        for info in table.globals():
            if info.access_count == 0 and info.is_shared:
                info.set_sharing(Sharing.FALSE, STAGE)

        for info in table:
            info.record_stage(STAGE)
        return relations

    def profile_stats(self, context):
        table = context.facts.get("variables")
        return {
            "pointsto_relations": len(context.facts.get("points_to",
                                                        ())),
            "pointsto_rounds": getattr(self, "_fixpoint_rounds", 0),
            "algorithm2_rounds": getattr(self, "_algorithm2_rounds", 0),
            "shared_variables": sum(1 for info in table
                                    if info.is_shared) if table else 0,
        }

    def _share_thread_argument(self, table, targets):
        """Algorithm 2 for a pointer thread argument: the creator and
        the thread both hold the pointer, so every non-heap target is
        shared.  Returns the targets' names for Stage 5's diagnostic."""
        names = []
        for target in sorted(targets, key=str):
            info = self._lookup(table, target)
            if info is None:
                names.append("a heap allocation")
                continue
            if not info.is_shared:
                info.set_sharing(Sharing.TRUE, STAGE)
            names.append("'%s'" % info.name)
        return ", ".join(names)

    @staticmethod
    def _lookup(table, key):
        function, name = key
        if function == "heap":
            return None
        return table.get_exact(name, function)
