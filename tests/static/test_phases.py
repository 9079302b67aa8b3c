"""Main-thread phases: which statements of ``main`` run before any
thread exists (PRE), while threads may run (PAR), or after every
thread has been joined (POST).

Each program marks the statements under test as assignments to the
globals ``a``, ``b``, ``c``...; a phase is looked up by that name.
"""

from repro.cfront import c_ast
from repro.cfront.frontend import parse_program
from repro.static.summaries import PAR, POST, PRE, MainPhases

HEADER = """
#include <pthread.h>
int a; int b; int c; int d; int e;
void *work(void *arg) { return 0; }
"""
MARKERS = ("a", "b", "c", "d", "e")


def phases(body):
    """``{marker: phase}`` for every marker assignment in ``main``."""
    unit = parse_program(HEADER + "int main() { pthread_t t[4]; int i; "
                         "int k; " + body + " return 0; }")
    main_phases = MainPhases(unit)
    found = {}
    for node in c_ast.walk(unit.find_function("main")):
        if isinstance(node, c_ast.ExprStmt) and \
                isinstance(node.expr, c_ast.Assignment) and \
                isinstance(node.expr.lvalue, c_ast.Id) and \
                node.expr.lvalue.name in MARKERS:
            found[node.expr.lvalue.name] = main_phases.phase_of(
                node, default=None)
    return found


SPAWN = "for (i = 0; i < 4; i++) { b = 1; " \
        "pthread_create(&t[i], 0, work, 0); }"
JOIN = "for (i = 0; i < 4; i++) { c = 1; pthread_join(t[i], 0); }"


class TestMainPhases:
    def test_spawn_loop_join_loop_reduce(self):
        assert phases("a = 1; " + SPAWN + " " + JOIN + " d = 1;") == {
            "a": PRE, "b": PAR, "c": PAR, "d": POST}

    def test_straight_line_create_and_join(self):
        # one block: only the statements after the last join are POST
        body = ("a = 1; pthread_create(&t[0], 0, work, 0); "
                "pthread_create(&t[1], 0, work, 0); b = 1; "
                "pthread_join(t[0], 0); c = 1; pthread_join(t[1], 0); "
                "d = 1;")
        assert phases(body) == {"a": PRE, "b": PAR, "c": PAR, "d": POST}

    def test_fewer_joins_than_creates_is_never_post(self):
        short_join = JOIN.replace("i < 4", "i < 2")
        assert phases("a = 1; " + SPAWN + " " + short_join
                      + " d = 1;") == {
            "a": PRE, "b": PAR, "c": PAR, "d": PAR}

    def test_create_in_while_body_is_par_through_back_edge(self):
        # 'b' precedes the create in its block, but the back edge
        # carries the previous iteration's create into it
        body = ("a = 1; k = 0; while (k < 4) { b = 1; "
                "pthread_create(&t[k], 0, work, 0); k++; }")
        assert phases(body) == {"a": PRE, "b": PAR}

    def test_join_in_one_if_branch(self):
        # join coverage counts join sites, not paths: the untaken
        # branch and the statement after the if are POST too
        body = (SPAWN + " if (a) { c = 1; " + JOIN + " d = 1; } "
                "else { e = 1; } a = 2;")
        assert phases(body) == {"b": PAR, "c": PAR, "d": POST,
                                "e": POST, "a": POST}

    def test_statement_before_join_if_is_par(self):
        body = (SPAWN + " a = 1; if (k) { " + JOIN + " } d = 1;")
        assert phases(body) == {"a": PAR, "b": PAR, "c": PAR,
                                "d": POST}

    def test_no_main_is_all_par(self):
        unit = parse_program(HEADER + "void helper(void) { a = 1; "
                             "pthread_create(0, 0, work, 0); b = 2; }")
        main_phases = MainPhases(unit)
        for node in c_ast.walk(unit):
            if isinstance(node, c_ast.Statement):
                assert main_phases.phase_of(node) == PAR
