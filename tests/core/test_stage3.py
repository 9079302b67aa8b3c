"""Stage 3 (alias & points-to analysis, Algorithm 2) tests."""

from repro.core.framework import TranslationFramework
from repro.core.varinfo import Sharing


def analyze(source):
    return TranslationFramework().analyze(source)


class TestPointsToRelations:
    def test_address_of_local(self):
        result = analyze("""
        int *p;
        int main(void) { int t = 1; p = &t; return *p; }
        """)
        relations = result.points_to
        targets = relations.get((None, "p"), {})
        assert targets.get(("main", "t")) is True  # definite

    def test_pointer_copy(self):
        result = analyze("""
        int *p; int *q;
        int main(void) { int t = 1; p = &t; q = p; return 0; }
        """)
        targets = result.points_to.get((None, "q"), {})
        assert ("main", "t") in targets

    def test_branch_makes_possible(self):
        result = analyze("""
        int *p;
        int main(void) {
            int a = 1; int b = 2;
            if (a) { p = &a; } else { p = &b; }
            return *p;
        }
        """)
        targets = result.points_to.get((None, "p"), {})
        assert targets.get(("main", "a")) is False  # possibly
        assert targets.get(("main", "b")) is False

    def test_one_sided_branch_possible(self):
        result = analyze("""
        int *p;
        int main(void) {
            int a = 1;
            p = &a;
            if (a) { int b = 2; p = &b; }
            return 0;
        }
        """)
        targets = result.points_to.get((None, "p"), {})
        # after the merge, both are merely possible
        assert targets.get(("main", "b")) is False

    def test_malloc_creates_heap_target(self):
        result = analyze("""
        int *p;
        int main(void) { p = (int *)malloc(8); return 0; }
        """)
        targets = result.points_to.get((None, "p"), {})
        assert any(key[0] == "heap" for key in targets)

    def test_array_decay(self):
        result = analyze("""
        int arr[4]; int *p;
        int main(void) { p = arr; return 0; }
        """)
        targets = result.points_to.get((None, "p"), {})
        assert targets.get((None, "arr")) is True

    def test_interprocedural_argument_binding(self):
        result = analyze("""
        int g;
        void callee(int *ptr) { *ptr = 1; }
        int main(void) { callee(&g); return 0; }
        """)
        targets = result.points_to.get(("callee", "ptr"), {})
        assert targets.get((None, "g")) is True


class TestAlgorithm2:
    def test_definite_target_of_shared_pointer_becomes_shared(self):
        result = analyze("""
        #include <pthread.h>
        int *p;
        void *tf(void *a) { *p = 2; return 0; }
        int main(void) {
            int t = 1;
            p = &t;
            pthread_t th;
            pthread_create(&th, 0, tf, 0);
            return 0;
        }
        """)
        info = result.variables.get_exact("t", "main")
        assert info.sharing is Sharing.TRUE
        assert info.sharing_history[3] is Sharing.TRUE

    def test_possible_target_not_promoted(self):
        result = analyze("""
        int *p;
        int main(void) {
            int a = 1; int b = 2;
            if (a) { p = &a; } else { p = &b; }
            return 0;
        }
        """)
        # relationships are only "possibly": Algorithm 2 skips them
        assert result.variables.get_exact("a", "main").sharing \
            is Sharing.FALSE

    def test_private_pointer_does_not_promote(self):
        result = analyze("""
        int main(void) {
            int t = 1;
            int *lp = &t;
            return *lp;
        }
        """)
        assert result.variables.get_exact("t", "main").sharing \
            is Sharing.FALSE

    def test_transitive_promotion_through_pointer_chain(self):
        result = analyze("""
        int *p; int *q;
        int main(void) { int t = 1; q = &t; p = q; return 0; }
        """)
        assert result.variables.get_exact("t", "main").sharing \
            is Sharing.TRUE


class TestPostProcessing:
    def test_unused_global_demoted(self):
        result = analyze("int unused; int main(void) { return 0; }")
        info = result.variables.get_exact("unused", None)
        assert info.sharing is Sharing.FALSE
        assert info.sharing_history[3] is Sharing.FALSE

    def test_used_global_not_demoted(self):
        result = analyze("int used; int main(void) { return used; }")
        assert result.variables.get_exact("used", None).sharing \
            is Sharing.TRUE


THREAD_ARGS = """
#include <pthread.h>
int ids[2];
void *tf(void *arg) { return arg; }
int main(void) {
    int local[1];
    pthread_t a, b;
    pthread_create(&a, 0, tf, %s);
    pthread_create(&b, 0, tf, %s);
    pthread_join(a, 0);
    pthread_join(b, 0);
    return local[0] + ids[0];
}
"""


class TestThreadArguments:
    """pthread_create's 4th argument: a pointer there is held by the
    creator and the thread alike (Algorithm 2)."""

    @staticmethod
    def pointer_args(result):
        return [names for _, names in
                result.context.facts["thread_pointer_args"]]

    def test_integer_ids_are_not_pointers(self):
        result = analyze(THREAD_ARGS % ("(void *)0", "(void *)1"))
        assert self.pointer_args(result) == []
        assert not result.variables.get_exact("local", "main").is_shared

    def test_pointer_to_local_makes_it_shared(self):
        result = analyze(THREAD_ARGS % ("(void *)local", "(void *)0"))
        assert result.variables.get_exact("local", "main").is_shared
        assert self.pointer_args(result) == ["'local'"]
        # analysis alone reports nothing: only the translation fails
        assert result.ok

    def test_slot_of_global_array_recorded_per_call(self):
        result = analyze(THREAD_ARGS % ("(void *)&ids[0]",
                                        "(void *)&ids[1]"))
        assert self.pointer_args(result) == ["'ids'", "'ids'"]
