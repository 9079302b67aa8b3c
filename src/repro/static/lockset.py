"""Eraser-style static lockset race audit (RacerF's recipe over our
own CFGs instead of Frama-C's).

For every shared variable (stage 1/2's ``is_shared``), collect every
syntactic access site together with (a) the must-hold lockset the
:class:`~repro.static.summaries.LockSummaries` dataflow proved at that
site, (b) the concurrency roots that may execute the enclosing
function, and (c) — for sites in ``main`` — the PRE/PAR/POST phase
relative to the pthread create/join structure.  A variable whose
*concurrent* sites include a write, span an effective thread weight of
at least two, and share **no** common lock is a race candidate; a
non-empty intersection suppresses the variable and is counted, so the
report's suppression ratio makes precision regressions visible.

Accesses through pointers are mapped onto their points-to targets
(stage 3), so ``*ptr = 1`` indicts the pointee, not the pointer.
Heap targets and unresolved pointers are counted as ``dropped`` rather
than silently ignored.
"""

from repro.cfront import c_ast, ctypes
from repro.core.stage2_interthread import launch_multiplicities
from repro.static import report as rep
from repro.static import summaries
from repro.static.summaries import PAR

READ = "read"
WRITE = "write"

# opaque runtime handles are synchronization objects, not shared data
_RUNTIME_TYPE_PREFIXES = ("pthread_", "RCCE_")


class _Site:
    __slots__ = ("function", "kind", "node", "lockset", "phase")

    def __init__(self, function, kind, node, lockset, phase):
        self.function = function
        self.kind = kind
        self.node = node
        self.lockset = lockset
        self.phase = phase


class LocksetAuditor:
    """Run the whole audit for one translation unit."""

    def __init__(self, unit, variables, launches, thread_functions,
                 points_to, num_cores=48, filename="<source>"):
        self.unit = unit
        self.variables = variables
        self.points_to = points_to or {}
        self.filename = filename
        self.thread_functions = set(thread_functions)
        self.model = summaries.LockModel(unit, num_cores)
        roots = self.thread_functions | {"main"}
        self.locks = summaries.LockSummaries(unit, self.model, roots)
        self.call_graph = summaries.build_call_graph(unit)
        self.executors = summaries.executor_roots(
            self.call_graph, self.thread_functions,
            has_main=unit.find_function("main") is not None)
        self.multipliers = summaries.root_multiplicities(
            launches, launch_multiplicities(launches))
        self.main_phases = summaries.MainPhases(unit)
        self.function_phases = summaries.function_phases(
            unit, self.call_graph, self.executors, self.main_phases)
        self.dropped = 0
        self.sites = {}        # var key -> [_Site]
        self._collect_all()

    # -- site collection ---------------------------------------------------

    def _collect_all(self):
        for func in self.unit.functions():
            locksets = self.locks.lockset_at(func.name)
            cfg = self.locks.cfgs[func.name]
            for block in cfg.reachable_blocks():
                state = locksets.get(block.index)
                if state is None:
                    state = frozenset()
                for stmt in block.statements:
                    node = stmt[1] if isinstance(stmt, tuple) else stmt
                    phase = self.main_phases.phase_of(node) \
                        if func.name == "main" \
                        else self.function_phases.get(func.name, PAR)
                    for key, kind, at in self._accesses(node, func):
                        self.sites.setdefault(key, []).append(_Site(
                            func.name, kind, at, state, phase))
                    state = self.locks.apply_statement(stmt, state)

    def _accesses(self, root, func):
        """Yield ``(var key, kind, provenance node)`` for every access
        a statement makes, with pointer dereferences mapped onto their
        points-to targets."""
        for node in c_ast.walk(root):
            if isinstance(node, c_ast.Decl) and node.init is not None:
                info = self.variables.get(node.name, func.name)
                if info is not None and info.ctype is not None and \
                        not info.ctype.is_function:
                    yield (info.function, info.name), WRITE, node
                continue
            if not isinstance(node, c_ast.Id):
                continue
            parent = _context_parent(node)
            if isinstance(parent, c_ast.FuncCall) and \
                    _is_callee(parent, node):
                continue
            info = self.variables.get(node.name, func.name)
            if info is None or info.ctype is None or \
                    info.ctype.is_function:
                continue
            key = (info.function, info.name)
            if isinstance(parent, c_ast.UnaryOp) and parent.op == "&":
                # &x publishes x's address: counts as a read (and the
                # pointee accesses show up at the dereference sites)
                yield key, READ, node
                continue
            access_expr, is_deref = _walk_access_chain(node)
            kind, also_read = _access_kind(access_expr)
            if info.ctype.is_pointer:
                yield key, READ, node
                if is_deref:
                    yielded = False
                    for target in self.points_to.get(key, {}):
                        if target[0] == "heap":
                            continue
                        yield target, kind, node
                        if also_read:
                            yield target, READ, node
                        yielded = True
                    if not yielded:
                        self.dropped += 1
                elif kind == WRITE:
                    # writing the pointer variable itself
                    yield key, WRITE, node
            else:
                yield key, kind, node
                if also_read and kind == WRITE:
                    yield key, READ, node

    # -- the audit ---------------------------------------------------------

    def report_into(self, static_report):
        static_report.dropped += self.dropped
        for key in sorted(self.sites,
                          key=lambda k: (k[0] or "", k[1])):
            sites = self.sites[key]
            info = self.variables.get_exact(key[1], key[0])
            if info is None or not getattr(info, "is_shared", False):
                continue
            if _is_runtime_handle(info.ctype):
                continue
            static_report.shared_variables += 1
            static_report.count_check(rep.RACE_CANDIDATE, len(sites))
            concurrent = [s for s in sites if s.phase == PAR]
            if not any(s.kind == WRITE for s in concurrent):
                continue
            roots = set()
            for site in concurrent:
                roots |= self.executors.get(site.function,
                                            {site.function})
            weight = sum(self.multipliers.get(root, 1)
                         for root in roots)
            if weight < 2:
                continue
            intersection = None
            for site in concurrent:
                intersection = site.lockset if intersection is None \
                    else intersection & site.lockset
            if intersection:
                static_report.lockset_suppressed += 1
                continue
            static_report.add(self._finding(info, concurrent, roots))
        return static_report

    def _finding(self, info, concurrent, roots):
        sites = [self._site_record(site) for site in concurrent]
        where = info.name if info.function is None \
            else "%s.%s" % (info.function, info.name)
        writers = sum(1 for s in concurrent if s.kind == WRITE)
        message = ("shared variable '%s' is accessed by %d concurrent "
                   "site(s) (%d write(s)) across threads {%s} with no "
                   "common lock"
                   % (where, len(concurrent), writers,
                      ", ".join(sorted(roots))))
        first = min(concurrent,
                    key=lambda s: _line_of(s.node) or (1 << 30))
        coord = getattr(first.node, "coord", None)
        return rep.StaticFinding(
            rep.RACE_CANDIDATE, rep.POSSIBLE, info.name,
            info.function, message,
            filename=(coord.filename if coord and coord.filename
                      else self.filename),
            line=coord.line if coord else None,
            column=coord.column if coord else None,
            sites=sites)

    def _site_record(self, site):
        coord = getattr(site.node, "coord", None)
        locks = []
        for lock in site.lockset:
            locks.extend(self.model.names_of(lock))
        return rep.StaticAccessSite(
            site.function, site.kind,
            coord.line if coord else None,
            coord.column if coord else None,
            locks,
            sorted(self.executors.get(site.function,
                                      {site.function})),
            site.phase)


def _line_of(node):
    coord = getattr(node, "coord", None)
    return coord.line if coord else None


def _context_parent(node):
    parent = getattr(node, "parent", None)
    while isinstance(parent, c_ast.Cast):
        parent = getattr(parent, "parent", None)
    return parent


def _is_callee(call, node):
    callee = call.func
    while isinstance(callee, c_ast.Cast):
        callee = callee.expr
    if isinstance(callee, c_ast.UnaryOp) and callee.op == "&":
        callee = callee.operand
    return callee is node


def _walk_access_chain(node):
    """Climb from an Id through the dereference operators applied to
    it (``a[i]``, ``*p``, possibly nested) to the full access
    expression.  Returns ``(expression, crossed_a_dereference)``."""
    current = node
    is_deref = False
    while True:
        parent = _context_parent(current)
        if isinstance(parent, c_ast.ArrayRef) and \
                _peel(parent.base) is current:
            is_deref = True
            current = parent
        elif isinstance(parent, c_ast.UnaryOp) and parent.op == "*":
            is_deref = True
            current = parent
        else:
            return current, is_deref


def _access_kind(access_expr):
    """``(kind, also_read)`` of a complete access expression, judged
    from its syntactic context."""
    parent = _context_parent(access_expr)
    # the lvalue may carry casts; access_expr is cast-free by
    # construction
    if isinstance(parent, c_ast.Assignment) and \
            _peel(parent.lvalue) is access_expr:
        return WRITE, parent.op != "="
    if isinstance(parent, c_ast.UnaryOp) and \
            parent.op in ("++", "--", "p++", "p--"):
        return WRITE, True
    return READ, False


def _peel(node):
    while isinstance(node, c_ast.Cast):
        node = node.expr
    return node


def _is_runtime_handle(ctype):
    if ctype is None:
        return False
    base = ctypes.strip_arrays(ctype) if ctype.is_array else ctype
    if base.is_pointer:
        base = ctypes.pointee(base) or base
    name = getattr(base, "name", "") or ""
    return name.startswith(_RUNTIME_TYPE_PREFIXES)
