"""Stage 5 (translation, Algorithm 4 + conversions) tests."""

import pytest

from repro.cfront import c_ast
from repro.cfront.visitor import find_all, find_calls
from repro.core.framework import TranslationFramework


def translate(source, **kwargs):
    return TranslationFramework(**kwargs).translate(source)


PTHREAD_PROGRAM = """
#include <stdio.h>
#include <pthread.h>

int data[8];

void *worker(void *tid) {
    int id = (int)tid;
    data[id] = id;
    pthread_exit(NULL);
}

int main(void) {
    pthread_t th[8];
    int i;
    for (i = 0; i < 8; i++) {
        pthread_create(&th[i], NULL, worker, (void *)i);
    }
    for (i = 0; i < 8; i++) {
        pthread_join(th[i], NULL);
        printf("%d\\n", data[i]);
    }
    return 0;
}
"""


class TestThreadsToProcesses:
    def test_pointer_thread_argument_is_an_error(self):
        """Each UE would get its own copy of what the pointer reaches:
        the launch is an error naming the pointee, never translated."""
        source = PTHREAD_PROGRAM.replace("(void *)i", "(void *)&data[i]")
        result = translate(source)
        [error] = [d for d in result.diagnostics if d.is_error]
        assert error.stage == "stage5-threads-to-processes"
        assert "pthread_create passes a pointer to 'data'" in \
            error.message
        assert translate(PTHREAD_PROGRAM).ok

    def test_join_result_is_an_error(self):
        """The joins become one barrier, so a join result has no
        source: the call is an error naming the variable; a NULL or 0
        result is translated."""
        source = PTHREAD_PROGRAM.replace(
            "pthread_join(th[i], NULL);", "pthread_join(th[i], &rv[i]);")
        source = source.replace("int data[8];", "int data[8];\nvoid *rv[8];")
        result = translate(source)
        [error] = [d for d in result.diagnostics if d.is_error]
        assert error.stage == "stage5-threads-to-processes"
        assert "return value in 'rv'" in error.message
        zero = PTHREAD_PROGRAM.replace("pthread_join(th[i], NULL);",
                                       "pthread_join(th[i], (void **)0);")
        assert translate(zero).ok

    def test_main_renamed_to_rcce_app(self):
        result = translate(PTHREAD_PROGRAM)
        assert result.unit.find_function("RCCE_APP") is not None
        assert result.unit.find_function("main") is None

    def test_rcce_app_signature(self):
        result = translate(PTHREAD_PROGRAM)
        func = result.unit.find_function("RCCE_APP")
        assert [p.name for p in func.params] == ["argc", "argv"]

    def test_no_pthread_create_left(self):
        result = translate(PTHREAD_PROGRAM)
        assert find_calls(result.unit, "pthread_create") == []

    def test_no_pthread_join_left(self):
        result = translate(PTHREAD_PROGRAM)
        assert find_calls(result.unit, "pthread_join") == []

    def test_direct_call_with_core_id(self):
        result = translate(PTHREAD_PROGRAM)
        calls = find_calls(result.unit, "worker")
        assert len(calls) == 1
        arg = calls[0].args[0]
        assert isinstance(arg, c_ast.Cast)
        assert arg.expr.name == "myID"

    def test_create_loop_removed(self):
        result = translate(PTHREAD_PROGRAM)
        main = result.unit.find_function("RCCE_APP")
        loops = find_all(main, c_ast.For)
        assert loops == []  # both loops consumed

    def test_join_becomes_barrier(self):
        result = translate(PTHREAD_PROGRAM)
        assert len(find_calls(result.unit, "RCCE_barrier")) >= 1

    def test_join_loop_body_hoisted_with_myid(self):
        result = translate(PTHREAD_PROGRAM)
        assert "data[myID]" in result.rcce_source

    def test_myid_initialized_from_rcce_ue(self):
        result = translate(PTHREAD_PROGRAM)
        assert "myID = RCCE_ue();" in result.rcce_source

    def test_init_first_finalize_before_return(self):
        result = translate(PTHREAD_PROGRAM)
        body = result.unit.find_function("RCCE_APP").body.items
        first = body[0]
        assert first.expr.callee_name == "RCCE_init"
        assert body[-1].__class__ is c_ast.Return
        assert body[-2].expr.callee_name == "RCCE_finalize"

    def test_standalone_create_wrapped_in_core_guard(self):
        source = """
        #include <pthread.h>
        int x;
        void *taskA(void *a) { x = 1; return 0; }
        void *taskB(void *a) { x = 2; return 0; }
        int main(void) {
            pthread_t t1, t2;
            pthread_create(&t1, 0, taskA, 0);
            pthread_create(&t2, 0, taskB, 0);
            pthread_join(t1, 0);
            pthread_join(t2, 0);
            return 0;
        }
        """
        result = translate(source)
        text = result.rcce_source
        assert "if (myID == 0)" in text
        assert "if (myID == 1)" in text
        assert "taskA" in text and "taskB" in text

    def test_consecutive_barriers_collapsed(self):
        source = """
        #include <pthread.h>
        int x;
        void *t1(void *a) { x = 1; return 0; }
        int main(void) {
            pthread_t a, b;
            pthread_create(&a, 0, t1, 0);
            pthread_create(&b, 0, t1, 0);
            pthread_join(a, 0);
            pthread_join(b, 0);
            return 0;
        }
        """
        result = translate(source)
        assert result.rcce_source.count("RCCE_barrier") == 1


class TestUesNeeded:
    """The 1:1 mapping runs thread k on UE k; stage 5 reports how many
    UEs that takes so a run on fewer can be refused."""

    def test_create_loop_needs_its_trip_count(self):
        assert translate(PTHREAD_PROGRAM).ues_needed == 8

    def test_folded_loop_needs_no_ue_count(self):
        folded = translate(PTHREAD_PROGRAM, fold_threads=True)
        assert "tIdx" in folded.rcce_source
        assert folded.ues_needed == 0

    def test_unknown_trip_count_is_not_checked(self):
        source = PTHREAD_PROGRAM.replace(
            "int main(void) {", "int n = 8;\nint main(void) {").replace(
            "for (i = 0; i < 8; i++) {\n        pthread_create",
            "for (i = 0; i < n; i++) {\n        pthread_create")
        result = translate(source)
        assert result.ok
        assert result.ues_needed == 0

    def test_standalone_launches_need_one_ue_each(self):
        source = """
        #include <pthread.h>
        int x;
        void *taskA(void *a) { x = 1; return 0; }
        void *taskB(void *a) { x = 2; return 0; }
        void *taskC(void *a) { x = 3; return 0; }
        int main(void) {
            pthread_t t1, t2, t3;
            pthread_create(&t1, 0, taskA, 0);
            pthread_create(&t2, 0, taskB, 0);
            pthread_create(&t3, 0, taskC, 0);
            pthread_join(t1, 0);
            pthread_join(t2, 0);
            pthread_join(t3, 0);
            return 0;
        }
        """
        assert translate(source).ues_needed == 3

    def test_no_threads_needs_no_ue_count(self):
        source = "int main(void) { return 0; }"
        assert translate(source).ues_needed == 0


class TestSharedVariableConversion:
    def test_shared_array_becomes_pointer_with_shmalloc(self):
        result = translate(PTHREAD_PROGRAM,
                           partition_policy="off-chip-only")
        text = result.rcce_source
        assert "int *data;" in text
        assert "data = (int *)RCCE_shmalloc(sizeof(int) * 8);" in text

    def test_on_chip_uses_rcce_malloc(self):
        result = translate(PTHREAD_PROGRAM, partition_policy="size")
        assert "RCCE_malloc(sizeof(int) * 8)" in result.rcce_source

    def test_capacity_zero_forces_off_chip(self):
        result = translate(PTHREAD_PROGRAM, on_chip_capacity=0)
        assert "RCCE_shmalloc" in result.rcce_source
        assert "RCCE_malloc(" not in result.rcce_source

    def test_alloc_inserted_after_init(self):
        result = translate(PTHREAD_PROGRAM)
        body = result.unit.find_function("RCCE_APP").body.items
        assert body[0].expr.callee_name == "RCCE_init"
        assert isinstance(body[1].expr, c_ast.Assignment)

    def test_existing_malloc_renamed(self):
        source = """
        #include <pthread.h>
        #include <stdlib.h>
        int *buf;
        void *tf(void *a) { buf[0] = 1; return 0; }
        int main(void) {
            pthread_t t;
            buf = (int *)malloc(64);
            pthread_create(&t, 0, tf, 0);
            pthread_join(t, 0);
            return 0;
        }
        """
        result = translate(source, partition_policy="off-chip-only")
        text = result.rcce_source
        assert "RCCE_shmalloc(64)" in text
        assert "(int *)malloc(" not in text

    def test_global_initializer_dropped(self):
        result = translate(PTHREAD_PROGRAM)
        assert "= {0}" not in result.rcce_source

    def test_shared_scalar_promoted_to_pointer(self):
        source = """
        #include <pthread.h>
        int counter;
        void *tf(void *a) { counter = counter + 1; return 0; }
        int main(void) {
            pthread_t t;
            pthread_create(&t, 0, tf, 0);
            pthread_join(t, 0);
            return 0;
        }
        """
        result = translate(source, partition_policy="off-chip-only")
        text = result.rcce_source
        assert "int *counter;" in text
        assert "counter = (int *)RCCE_shmalloc(sizeof(int) * 1);" in text
        assert "*counter = *counter + 1;" in text

    def test_scalar_declared_twice_is_promoted_once(self):
        source = """
        #include <pthread.h>
        extern int counter;
        int counter;
        void *tf(void *a) { counter = counter + 1; return 0; }
        int main(void) {
            pthread_t t;
            pthread_create(&t, 0, tf, 0);
            pthread_join(t, 0);
            return counter;
        }
        """
        text = translate(source).rcce_source
        assert "extern int *counter;" in text
        assert "*counter = *counter + 1;" in text
        assert "* *counter" not in text


class TestCleanupPasses:
    def test_pthread_types_removed(self):
        result = translate(PTHREAD_PROGRAM)
        assert "pthread_t" not in result.rcce_source

    def test_pthread_exit_removed(self):
        result = translate(PTHREAD_PROGRAM)
        assert "pthread_exit" not in result.rcce_source

    def test_include_swapped(self):
        result = translate(PTHREAD_PROGRAM)
        assert "RCCE.h" in result.unit.includes
        assert "pthread.h" not in result.unit.includes
        assert "stdio.h" in result.unit.includes

    def test_unused_locals_removed(self):
        result = translate(PTHREAD_PROGRAM)
        main_text = result.rcce_source
        assert "int i;" not in main_text

    def test_unused_private_global_removed(self):
        source = PTHREAD_PROGRAM.replace("int data[8];",
                                         "int data[8];\nint dead;")
        result = translate(source)
        assert "int dead;" not in result.rcce_source


class TestMutexConversion:
    MUTEX_PROGRAM = """
    #include <pthread.h>
    int counter;
    pthread_mutex_t lock;
    void *inc(void *a) {
        pthread_mutex_lock(&lock);
        counter = counter + 1;
        pthread_mutex_unlock(&lock);
        return 0;
    }
    int main(void) {
        pthread_t th[4];
        pthread_mutex_init(&lock, 0);
        for (int i = 0; i < 4; i++)
            pthread_create(&th[i], 0, inc, (void *)i);
        for (int i = 0; i < 4; i++)
            pthread_join(th[i], 0);
        pthread_mutex_destroy(&lock);
        return 0;
    }
    """

    def test_lock_unlock_converted(self):
        result = translate(self.MUTEX_PROGRAM)
        text = result.rcce_source
        assert "RCCE_acquire_lock(0)" in text
        assert "RCCE_release_lock(0)" in text

    def test_mutex_decl_and_init_removed(self):
        result = translate(self.MUTEX_PROGRAM)
        text = result.rcce_source
        assert "pthread_mutex_t" not in text
        assert "pthread_mutex_init" not in text
        assert "pthread_mutex_destroy" not in text

    def test_distinct_mutexes_get_distinct_registers(self):
        source = self.MUTEX_PROGRAM.replace(
            "pthread_mutex_t lock;",
            "pthread_mutex_t lock;\npthread_mutex_t lock2;").replace(
            "pthread_mutex_unlock(&lock);",
            "pthread_mutex_unlock(&lock);\n"
            "        pthread_mutex_lock(&lock2);\n"
            "        pthread_mutex_unlock(&lock2);")
        result = translate(source)
        text = result.rcce_source
        assert "RCCE_acquire_lock(1)" in text

    def test_pthread_self_replaced(self):
        source = """
        #include <pthread.h>
        int ids[2];
        void *tf(void *a) { ids[0] = (int)pthread_self(); return 0; }
        int main(void) {
            pthread_t t;
            pthread_create(&t, 0, tf, 0);
            pthread_join(t, 0);
            return 0;
        }
        """
        result = translate(source)
        assert "pthread_self" not in result.rcce_source
        assert "RCCE_ue()" in result.rcce_source
