"""Whole-program summaries the static engines share.

Three ingredients:

* **call graph + executor roots** — which *concurrency roots* (``main``
  plus every ``pthread_create``'d function) can execute each function,
  with launch multiplicities from stage 2, giving every access site its
  thread provenance;
* **main-thread phases** — a flow-sensitive PRE / PAR / POST split of
  ``main``'s statements around the pthread create/join structure, so
  the lockset audit does not report the paper's canonical
  initialize-then-spawn and join-then-reduce idioms as races;
* **lock summaries** — per-function must-acquire / may-release effects
  so the lockset dataflow is sound across calls, with mutex names
  mapped onto test-and-set registers exactly the way stage 5's
  :class:`~repro.core.stage5_translate.MutexConversion` does (two
  mutexes that alias one register really are one lock after
  translation).
"""

from repro.cfront import c_ast
from repro.cfront.visitor import enclosing
from repro.core.stage5_translate import mutex_name
from repro.ir.cfg import build_cfg
from repro.ir.dataflow import ForwardDataflow
from repro.ir.loops import estimate_trip_count

# main-thread phases
PRE = "pre"      # before any pthread_create can have executed
PAR = "par"      # children may be running
POST = "post"    # after every created thread has been joined

LOCK_CALLS = ("pthread_mutex_lock", "pthread_mutex_trylock")
UNLOCK_CALLS = ("pthread_mutex_unlock",)
RCCE_ACQUIRE = "RCCE_acquire_lock"
RCCE_RELEASE = "RCCE_release_lock"
ACQUIRE_CALLS = LOCK_CALLS + (RCCE_ACQUIRE,)
RELEASE_CALLS = UNLOCK_CALLS + (RCCE_RELEASE,)


def join_phase(a, b):
    """PRE+PRE stays PRE, POST+POST stays POST, any mix is PAR."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a == b else PAR


def build_call_graph(unit):
    """``{caller: {callee}}`` over functions *defined* in the unit.

    ``pthread_create``'s function argument is a launch, not a call
    edge — thread functions enter the graph as their own roots."""
    defined = {func.name for func in unit.functions()}
    graph = {}
    for func in unit.functions():
        callees = set()
        for node in c_ast.walk(func.body):
            if isinstance(node, c_ast.FuncCall):
                name = node.callee_name
                if name in defined:
                    callees.add(name)
        graph[func.name] = callees
    return graph


def executor_roots(call_graph, thread_functions, has_main=True):
    """``{function: set of roots}`` — which concurrency roots may run
    each function.  Roots are ``main`` and every thread function."""
    roots = set(thread_functions)
    if has_main:
        roots.add("main")
    executors = {name: set() for name in call_graph}
    for root in roots:
        stack = [root]
        seen = set()
        while stack:
            name = stack.pop()
            if name in seen or name not in call_graph:
                continue
            seen.add(name)
            executors.setdefault(name, set()).add(root)
            stack.extend(call_graph.get(name, ()))
    return executors


def root_multiplicities(launches, multipliers):
    """Thread weight of each root: ``main`` counts once; a thread
    function counts as many times as stage 2 says it is launched."""
    weights = {"main": 1}
    for launch in launches:
        if launch.function_name:
            weights[launch.function_name] = max(
                multipliers.get(launch.function_name, 1), 1)
    return weights


def _calls_of(stmt):
    """``[(callee name, FuncCall)]`` under a CFG statement (AST node or
    a ``("branch", cond)`` tuple), in walk order."""
    root = stmt[1] if isinstance(stmt, tuple) else stmt
    return [(node.callee_name, node) for node in c_ast.walk(root)
            if isinstance(node, c_ast.FuncCall)]


def _site_multiplicity(call):
    """Trip-weighted count of one create/join call site (parent links
    must be populated)."""
    loop = enclosing(call, (c_ast.For, c_ast.While, c_ast.DoWhile))
    if loop is None:
        return 1
    trips, _ = estimate_trip_count(loop)
    return max(trips, 1)


class MainPhases:
    """PRE / PAR / POST classification of every statement in ``main``.

    A statement is PRE when no ``pthread_create`` may have executed
    before it, and POST when (a) no create and no join may execute
    after it and (b) the join sites cover the create sites (join
    multiplicity >= create multiplicity under stage 2's trip
    estimates) — i.e. every child has provably been joined.  Everything
    else is PAR.  Programs without ``main`` classify everything PAR.
    """

    def __init__(self, unit):
        self._phase = {}          # id(statement) -> phase
        self._joins_cover = False
        main = unit.find_function("main")
        if main is None:
            return
        calls = _calls_of(main.body)
        created = sum(_site_multiplicity(call) for name, call in calls
                      if name == "pthread_create")
        joined = sum(_site_multiplicity(call) for name, call in calls
                     if name == "pthread_join")
        self._joins_cover = created > 0 and joined >= created
        cfg = build_cfg(main)
        # (creates, joins) of every statement, walked once
        flags = {}
        for block in cfg.blocks:
            row = []
            for stmt in block.statements:
                names = {name for name, _ in _calls_of(stmt)}
                row.append(("pthread_create" in names,
                            "pthread_join" in names))
            flags[block.index] = row
        has_create = {index: any(creates for creates, _ in row)
                      for index, row in flags.items()}
        has_join = {index: any(joins for _, joins in row)
                    for index, row in flags.items()}
        create_later = self._reaches_later(cfg, has_create)
        join_later = self._reaches_later(cfg, has_join)
        created_in = self._created_before(cfg, has_create)
        for block in cfg.blocks:
            row = flags[block.index]
            # suffix flags: a create / join in a later statement of
            # this block or in a block reachable from it
            after = []
            create_after = create_later[block.index]
            join_after = join_later[block.index]
            for creates, joins in reversed(row):
                after.append((create_after, join_after))
                create_after = create_after or creates
                join_after = join_after or joins
            after.reverse()
            created_flag = created_in[block.index]
            for stmt, (creates, _), (create_after, join_after) in zip(
                    block.statements, row, after):
                if creates:
                    # the launch itself begins the parallel phase
                    created_flag = True
                if not created_flag:
                    phase = PRE
                elif self._joins_cover and not create_after \
                        and not join_after:
                    phase = POST
                else:
                    phase = PAR
                node = stmt[1] if isinstance(stmt, tuple) else stmt
                self._phase[id(node)] = phase

    @staticmethod
    def _reaches_later(cfg, marked):
        """``{index: a marked block is reachable along >= 1 edge}``,
        from one backward search out of the marked blocks."""
        reaching = {index for index, flag in marked.items() if flag}
        stack = list(reaching)
        while stack:
            for pred in cfg.blocks[stack.pop()].predecessors:
                if pred.index not in reaching:
                    reaching.add(pred.index)
                    stack.append(pred.index)
        return {block.index: any(succ.index in reaching
                                 for succ, _ in block.successors)
                for block in cfg.blocks}

    @staticmethod
    def _created_before(cfg, has_create):
        """May-have-created boolean forward dataflow (merge = OR)."""
        in_flag = {b.index: False for b in cfg.blocks}
        out_flag = {b.index: False for b in cfg.blocks}
        order = cfg.rpo()
        changed = True
        while changed:
            changed = False
            for block in order:
                flag = any(out_flag[p.index]
                           for p in block.predecessors)
                if not flag and block is not cfg.entry:
                    flag = in_flag[block.index]
                out = flag or has_create[block.index]
                if flag != in_flag[block.index] or \
                        out != out_flag[block.index]:
                    changed = True
                in_flag[block.index] = flag
                out_flag[block.index] = out
        return in_flag

    def phase_of(self, stmt_node, default=PAR):
        return self._phase.get(id(stmt_node), default)


def function_phases(unit, call_graph, executors, main_phases):
    """Phase of every *function*: PAR when a thread root can run it;
    otherwise the join of the phases of its (transitive) call sites in
    ``main``."""
    phases = {}
    for name in call_graph:
        roots = executors.get(name, set())
        if roots - {"main"}:
            phases[name] = PAR
    phases["main"] = None  # main uses per-statement phases
    # seed direct call sites from main, then propagate
    main = unit.find_function("main")
    if main is not None:
        for node in c_ast.walk(main.body):
            if isinstance(node, c_ast.FuncCall) and \
                    node.callee_name in call_graph and \
                    node.callee_name != "main":
                stmt = _enclosing_statement(node)
                site_phase = main_phases.phase_of(
                    stmt if stmt is not None else node)
                phases[node.callee_name] = join_phase(
                    phases.get(node.callee_name), site_phase)
    changed = True
    while changed:
        changed = False
        for caller, callees in call_graph.items():
            caller_phase = phases.get(caller)
            if caller == "main" or caller_phase is None:
                continue
            for callee in callees:
                if phases.get(callee) == PAR:
                    continue
                merged = join_phase(phases.get(callee), caller_phase)
                if merged != phases.get(callee):
                    phases[callee] = merged
                    changed = True
    return phases


def _enclosing_statement(node):
    """The statement node a nested expression belongs to (parent links
    must be populated)."""
    current = node
    while current is not None and \
            not isinstance(current, c_ast.Statement):
        current = getattr(current, "parent", None)
    return current


class LockModel:
    """Mutex-name to test-and-set-register mapping, mirrored from
    stage 5's :class:`MutexConversion` (both name a mutex with
    :func:`~repro.core.stage5_translate.mutex_name`): registers are
    assigned in walk order of first use, modulo the core count — so
    when the chip runs out of registers and two mutexes alias one
    register, the audit treats them as the single lock they become
    after translation."""

    def __init__(self, unit, num_cores=48):
        self.num_cores = num_cores
        self.lock_ids = {}
        self.aliased = False
        for node in c_ast.walk(unit):
            if not isinstance(node, c_ast.FuncCall):
                continue
            if node.callee_name in LOCK_CALLS + UNLOCK_CALLS:
                self._assign(mutex_name(node))

    def _assign(self, mutex):
        if mutex not in self.lock_ids:
            self.lock_ids[mutex] = len(self.lock_ids) % self.num_cores
            if len(self.lock_ids) > self.num_cores:
                self.aliased = True
        return self.lock_ids[mutex]

    def lock_id_of_call(self, call):
        """The register a lock/unlock call operates on, or None for a
        call this model does not understand."""
        name = call.callee_name
        if name in LOCK_CALLS + UNLOCK_CALLS:
            return self._assign(mutex_name(call))
        if name in (RCCE_ACQUIRE, RCCE_RELEASE):
            if call.args and isinstance(call.args[0], c_ast.Constant) \
                    and call.args[0].kind == "int":
                return call.args[0].value
        return None

    def names_of(self, lock_id):
        """Every mutex name mapped to ``lock_id`` (usually one; more
        under register aliasing)."""
        names = sorted(name for name, rid in self.lock_ids.items()
                       if rid == lock_id)
        return names or ["T&S[%d]" % lock_id]


class _MustLockset(ForwardDataflow):
    """Must-hold lockset over one function's CFG.

    Lattice values are frozensets of register ids; ``None`` is TOP
    (unvisited).  Merge is set intersection, so a lock held on only one
    path into a join is *not* held after it."""

    def __init__(self, engine, function_name, boundary):
        self.engine = engine
        self.function_name = function_name
        self._boundary = boundary

    def initial(self):
        return None

    def boundary(self):
        return self._boundary

    def merge(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a & b

    def transfer(self, block, value):
        if value is None:
            return None
        state = value
        for stmt in block.statements:
            state = self.engine.apply_statement(stmt, state)
        return state


class LockSummaries:
    """Per-function lock effects and entry locksets, iterated to an
    interprocedural fixpoint.

    ``must_acquired[f]`` — registers ``f`` definitely holds on return
    that it did not hold on entry; ``may_released[f]`` — registers any
    path through ``f`` (or its callees) may release; ``entry[f]`` —
    the intersection of locksets at ``f``'s call sites (roots enter
    with the empty set).
    """

    ROUNDS = 4

    def __init__(self, unit, model, roots):
        self.unit = unit
        self.model = model
        self.cfgs = {f.name: build_cfg(f) for f in unit.functions()}
        # id(statement) -> its (callee name, call) pairs, walked once;
        # self.cfgs keeps every keyed statement alive
        self._calls = {id(stmt): _calls_of(stmt)
                       for cfg in self.cfgs.values()
                       for block in cfg.blocks
                       for stmt in block.statements}
        self.must_acquired = {f.name: frozenset()
                              for f in unit.functions()}
        self.may_released = {f.name: frozenset()
                             for f in unit.functions()}
        self.entry = {root: frozenset() for root in roots
                      if root in self.cfgs}
        self.solutions = {}
        self._call_entries = {}
        for _ in range(self.ROUNDS):
            before = (dict(self.must_acquired), dict(self.may_released),
                      dict(self.entry))
            self._round()
            after = (dict(self.must_acquired), dict(self.may_released),
                     dict(self.entry))
            if before == after:
                break

    def _round(self):
        self._call_entries = {}
        for func in self.unit.functions():
            boundary = self.entry.get(func.name, frozenset())
            solver = _MustLockset(self, func.name, boundary)
            cfg = self.cfgs[func.name]
            solution = solver.solve(cfg)
            self.solutions[func.name] = solution
            exit_in, _ = solution[cfg.exit.index]
            if exit_in is not None:
                self.must_acquired[func.name] = \
                    frozenset(exit_in) - boundary
            released = set()
            for stmt in self._statements(func.name):
                for name, call in self._calls[id(stmt)]:
                    if name in RELEASE_CALLS:
                        lock = self.model.lock_id_of_call(call)
                        if lock is not None:
                            released.add(lock)
                    if name in self.cfgs:
                        released |= self.may_released.get(
                            name, frozenset())
            self.may_released[func.name] = frozenset(released)
        # callsite locksets recorded by apply_statement this round
        for callee, states in self._call_entries.items():
            meet = None
            for state in states:
                meet = state if meet is None else meet & state
            if meet is not None:
                self.entry[callee] = meet

    def _statements(self, function_name):
        for block in self.cfgs[function_name].blocks:
            for stmt in block.statements:
                yield stmt

    def apply_statement(self, stmt, state):
        """Flow one statement of ``self.cfgs`` through a lockset
        (shared by the dataflow solver and the site collector)."""
        for name, node in self._calls[id(stmt)]:
            if name in ACQUIRE_CALLS:
                lock = self.model.lock_id_of_call(node)
                if lock is not None:
                    state = state | {lock}
            elif name in RELEASE_CALLS:
                lock = self.model.lock_id_of_call(node)
                if lock is not None:
                    state = state - {lock}
            elif name in self.cfgs:
                self._call_entries.setdefault(name, []).append(state)
                state = (state
                         - self.may_released.get(name, frozenset())) \
                    | self.must_acquired.get(name, frozenset())
        return state

    def lockset_at(self, function_name):
        """``{block_index: in_lockset}`` for one function (None for
        unreachable blocks)."""
        solution = self.solutions.get(function_name, {})
        return {index: pair[0] for index, pair in solution.items()}
