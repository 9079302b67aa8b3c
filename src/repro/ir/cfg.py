"""Per-function control-flow graphs over the C AST.

Basic blocks hold statement-level AST nodes; edges carry an optional label
('true'/'false' for branches).  The points-to stage (paper §4.3) merges
pointer facts across these edges, classifying facts that only hold on one
arm of an if-else as "possibly" rather than "definite".
"""

from repro.cfront import c_ast


class BasicBlock:
    """A straight-line sequence of simple statements."""

    def __init__(self, index):
        self.index = index
        self.statements = []
        self.successors = []   # list of (BasicBlock, label)
        self.predecessors = []  # list of BasicBlock

    def add_edge(self, other, label=None):
        self.successors.append((other, label))
        other.predecessors.append(self)

    def __repr__(self):
        return "BasicBlock(%d, %d stmts, -> %s)" % (
            self.index, len(self.statements),
            [b.index for b, _ in self.successors])


class CFG:
    """Control-flow graph of one function."""

    def __init__(self, function_name):
        self.function_name = function_name
        self.blocks = []
        self.entry = self._new_block()
        self.exit = self._new_block()

    def _new_block(self):
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def reachable_blocks(self):
        """Blocks reachable from entry, in discovery order."""
        seen = []
        seen_set = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block.index in seen_set:
                continue
            seen_set.add(block.index)
            seen.append(block)
            for succ, _ in reversed(block.successors):
                stack.append(succ)
        return seen

    def rpo(self):
        """Reverse post-order over reachable blocks (good for forward
        dataflow convergence).  Iterative, so a long function cannot
        exhaust the interpreter's recursion limit."""
        visited = {self.entry.index}
        order = []
        stack = [(self.entry, iter(self.entry.successors))]
        while stack:
            block, successors = stack[-1]
            for succ, _ in successors:
                if succ.index not in visited:
                    visited.add(succ.index)
                    stack.append((succ, iter(succ.successors)))
                    break
            else:
                order.append(block)
                stack.pop()
        order.reverse()
        return order

    def back_edges(self):
        """Edges that close a cycle: ``(src, dst)`` pairs where ``dst``
        is an ancestor of ``src`` on the DFS spanning tree.  Catches
        both the builder's structured ``back`` edges and any cycle a
        ``goto`` introduces."""
        edges = []
        state = {}  # index -> 1 (on stack) | 2 (done)
        stack = [(self.entry, iter(self.entry.successors))]
        state[self.entry.index] = 1
        while stack:
            block, successors = stack[-1]
            advanced = False
            for succ, _ in successors:
                mark = state.get(succ.index)
                if mark == 1:
                    edges.append((block, succ))
                elif mark is None:
                    state[succ.index] = 1
                    stack.append((succ, iter(succ.successors)))
                    advanced = True
                    break
            if not advanced:
                state[block.index] = 2
                stack.pop()
        return edges

    def loop_heads(self):
        """Indices of blocks that head a cycle — the widening points
        for abstract interpretation (every cycle passes through at
        least one DFS back-edge target)."""
        return {dst.index for _, dst in self.back_edges()}


class _CFGBuilder:
    """Builds a CFG from a function body by structural recursion."""

    def __init__(self, name):
        self.cfg = CFG(name)
        self.break_targets = []
        self.continue_targets = []
        self.labels = {}
        self.pending_gotos = []

    def build(self, body):
        current = self.cfg._new_block()
        self.cfg.entry.add_edge(current)
        last = self._stmt_seq(body.items if isinstance(
            body, c_ast.Compound) else [body], current)
        if last is not None:
            last.add_edge(self.cfg.exit)
        for block, label in self.pending_gotos:
            if label in self.labels:
                block.add_edge(self.labels[label], "goto")
            else:
                block.add_edge(self.cfg.exit, "goto")
        return self.cfg

    def _stmt_seq(self, stmts, current):
        """Thread ``stmts`` through the graph; returns the live tail block
        (or None if control never falls through)."""
        for stmt in stmts:
            if current is None:
                current = self.cfg._new_block()  # unreachable code
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, stmt, current):
        if isinstance(stmt, c_ast.Compound):
            return self._stmt_seq(stmt.items, current)
        if isinstance(stmt, c_ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, c_ast.While):
            return self._while(stmt, current)
        if isinstance(stmt, c_ast.DoWhile):
            return self._do_while(stmt, current)
        if isinstance(stmt, c_ast.For):
            return self._for(stmt, current)
        if isinstance(stmt, c_ast.Switch):
            return self._switch(stmt, current)
        if isinstance(stmt, c_ast.Return):
            current.statements.append(stmt)
            current.add_edge(self.cfg.exit, "return")
            return None
        if isinstance(stmt, c_ast.Break):
            current.statements.append(stmt)
            if self.break_targets:
                current.add_edge(self.break_targets[-1], "break")
            else:
                current.add_edge(self.cfg.exit, "break")
            return None
        if isinstance(stmt, c_ast.Continue):
            current.statements.append(stmt)
            if self.continue_targets:
                current.add_edge(self.continue_targets[-1], "continue")
            else:
                current.add_edge(self.cfg.exit, "continue")
            return None
        if isinstance(stmt, c_ast.Goto):
            current.statements.append(stmt)
            self.pending_gotos.append((current, stmt.label))
            return None
        if isinstance(stmt, c_ast.Label):
            target = self.cfg._new_block()
            current.add_edge(target)
            self.labels[stmt.name] = target
            return self._stmt(stmt.stmt, target)
        # simple statement
        current.statements.append(stmt)
        return current

    def _if(self, stmt, current):
        current.statements.append(("branch", stmt.cond))
        then_block = self.cfg._new_block()
        current.add_edge(then_block, "true")
        then_tail = self._stmt(stmt.then, then_block)
        join = self.cfg._new_block()
        if stmt.els is not None:
            else_block = self.cfg._new_block()
            current.add_edge(else_block, "false")
            else_tail = self._stmt(stmt.els, else_block)
            if else_tail is not None:
                else_tail.add_edge(join)
        else:
            current.add_edge(join, "false")
        if then_tail is not None:
            then_tail.add_edge(join)
        return join

    def _while(self, stmt, current):
        head = self.cfg._new_block()
        current.add_edge(head)
        head.statements.append(("branch", stmt.cond))
        body = self.cfg._new_block()
        exit_block = self.cfg._new_block()
        head.add_edge(body, "true")
        head.add_edge(exit_block, "false")
        self.break_targets.append(exit_block)
        self.continue_targets.append(head)
        tail = self._stmt(stmt.body, body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if tail is not None:
            tail.add_edge(head, "back")
        return exit_block

    def _do_while(self, stmt, current):
        body = self.cfg._new_block()
        current.add_edge(body)
        head = self.cfg._new_block()  # condition check
        exit_block = self.cfg._new_block()
        self.break_targets.append(exit_block)
        self.continue_targets.append(head)
        tail = self._stmt(stmt.body, body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if tail is not None:
            tail.add_edge(head)
        head.statements.append(("branch", stmt.cond))
        head.add_edge(body, "back")
        head.add_edge(exit_block, "false")
        return exit_block

    def _for(self, stmt, current):
        if stmt.init is not None:
            current.statements.append(stmt.init)
        head = self.cfg._new_block()
        current.add_edge(head)
        body = self.cfg._new_block()
        exit_block = self.cfg._new_block()
        if stmt.cond is not None:
            head.statements.append(("branch", stmt.cond))
            head.add_edge(body, "true")
            head.add_edge(exit_block, "false")
        else:
            head.add_edge(body, "true")
        step_block = self.cfg._new_block()
        self.break_targets.append(exit_block)
        self.continue_targets.append(step_block)
        tail = self._stmt(stmt.body, body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if tail is not None:
            tail.add_edge(step_block)
        if stmt.step is not None:
            step_block.statements.append(c_ast.ExprStmt(stmt.step,
                                                        stmt.step.coord))
        step_block.add_edge(head, "back")
        return exit_block

    def _switch(self, stmt, current):
        current.statements.append(("branch", stmt.cond))
        exit_block = self.cfg._new_block()
        self.break_targets.append(exit_block)
        previous_tail = None
        has_default = False
        for item in stmt.body.items:
            case_block = self.cfg._new_block()
            current.add_edge(case_block, "case")
            if previous_tail is not None:
                previous_tail.add_edge(case_block, "fallthrough")
            if isinstance(item, c_ast.Default):
                has_default = True
            stmts = item.stmts
            previous_tail = self._stmt_seq(stmts, case_block)
        if previous_tail is not None:
            previous_tail.add_edge(exit_block)
        if not has_default:
            current.add_edge(exit_block, "nomatch")
        self.break_targets.pop()
        return exit_block


def build_cfg(func):
    """Build the CFG for a :class:`c_ast.FuncDef`."""
    return _CFGBuilder(func.name).build(func.body)
