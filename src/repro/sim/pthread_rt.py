"""Pthreads runtime for the single-core baseline.

The paper's baseline runs each 32-thread Pthreads benchmark on ONE SCC
core, where the threads compete for processor time (§6: "In each
program 32 threads compete for processor time which greatly reduces the
efficiency of each given thread").  On a single core, time-sliced
threads perform their work *serially* plus scheduling overhead — so the
runtime executes each thread to completion at its join point, accruing
all cycles to the one core, and adds quantum-based context-switch
overhead at the end (:meth:`scheduling_overhead_cycles`).

Mutexes are uncontended under serial execution: lock/unlock charge
their syscall-ish cost, semantics are preserved trivially.

Condition variables under serial execution: signals are *counted* (a
``pthread_cond_signal`` deposits one wakeup, ``broadcast`` deposits
unboundedly many), and a ``pthread_cond_wait`` that finds no deposit
runs other not-yet-started threads — in creation order — until one
deposits a signal.  When every other thread has already run to
completion and the deposit never arrives, the wait can never be
satisfied and the runtime raises
:class:`~repro.sim.watchdog.DeadlockError` with the rendered wait
chain, like the RCCE monitor's deadlock report.  Note one
deliberate divergence from the POSIX race: a signal sent before the
wait is *not* lost here — serial execution cannot reproduce lost-wakeup
interleavings, so the model errs toward progress and leaves
missed-signal hangs to the case where no signaller exists at all.
"""

from repro.sim.interpreter import ThreadExit
from repro.sim.values import NULL, FunctionRef, Pointer

THREAD_CREATE_COST = 6000   # clone + setup on a P54C-class core
THREAD_JOIN_COST = 2000
MUTEX_OP_COST = 60
COND_WAIT_COST = 120        # futex-style sleep + requeue, two syscalls


class ThreadRecord:
    __slots__ = ("tid", "func_name", "arg", "finished", "completed",
                 "cycles", "retval")

    def __init__(self, tid, func_name, arg):
        self.tid = tid
        self.func_name = func_name
        self.arg = arg
        self.finished = False   # claimed for execution (re-entry guard)
        self.completed = False  # actually ran to completion
        self.cycles = 0
        self.retval = None


class PthreadRuntime:
    """pthread_* builtins for one single-core process.

    Builtins receive *unevaluated* argument nodes — bound-closure
    thunks — and evaluate them through ``interp.eval_expr``, so
    arguments are evaluated (and charged) left to right, and only when
    the builtin asks for them.
    """

    __slots__ = ("threads", "order", "_next_tid", "_current_tid",
                 "_cond_pending", "_blocked_on")

    def __init__(self):
        self.threads = {}
        self.order = []
        self._next_tid = 1000
        self._current_tid = [0]  # stack; 0 = main thread
        self._cond_pending = {}  # condvar key -> deposited wakeups
        self._blocked_on = {}    # tid -> condvar key while waiting

    # -- builtin registry ---------------------------------------------------

    def builtins(self):
        return {
            "pthread_create": self._create,
            "pthread_join": self._join,
            "pthread_exit": self._exit,
            "pthread_self": self._self,
            "pthread_mutex_init": self._mutex_op,
            "pthread_mutex_destroy": self._mutex_op,
            "pthread_mutex_lock": self._mutex_lock,
            "pthread_mutex_unlock": self._mutex_unlock,
            "pthread_mutex_trylock": self._mutex_lock,
            "pthread_cond_init": self._mutex_op,
            "pthread_cond_destroy": self._mutex_op,
            "pthread_cond_wait": self._cond_wait,
            "pthread_cond_timedwait": self._cond_wait,
            "pthread_cond_signal": self._cond_signal,
            "pthread_cond_broadcast": self._cond_broadcast,
            "pthread_attr_init": self._noop,
            "pthread_attr_destroy": self._noop,
            "pthread_detach": self._noop,
            "pthread_yield": self._noop,
        }

    # -- pthread API -----------------------------------------------------------

    def _create(self, interp, arg_nodes):
        if len(arg_nodes) < 3:
            return 22  # EINVAL
        tid_target = interp.eval_expr(arg_nodes[0])
        if len(arg_nodes) > 1:
            interp.eval_expr(arg_nodes[1])  # attributes, ignored
        func_value = interp.eval_expr(arg_nodes[2])
        arg_value = (interp.eval_expr(arg_nodes[3])
                     if len(arg_nodes) > 3 else None)

        func_name = self._function_name(func_value)
        if func_name is None:
            return 22
        tid = self._next_tid
        self._next_tid += 1
        record = ThreadRecord(tid, func_name, arg_value)
        self.threads[tid] = record
        self.order.append(record)
        if isinstance(tid_target, Pointer) and tid_target.addr:
            interp.store(tid_target.addr, tid)
        interp.charge(THREAD_CREATE_COST)
        if interp._attr is not None:
            interp._attr.add(interp.core_id, "sched_overhead",
                             THREAD_CREATE_COST)
        race = interp._race
        if race is not None:
            race.thread_create(self._current_tid[-1], tid)
        return 0

    @staticmethod
    def _function_name(value):
        if isinstance(value, FunctionRef):
            return value.name
        return None

    def _join(self, interp, arg_nodes):
        if not arg_nodes:
            return 22
        tid = interp.eval_expr(arg_nodes[0])
        result = interp.eval_expr(arg_nodes[1]) \
            if len(arg_nodes) > 1 else None
        record = self.threads.get(int(tid) if not isinstance(
            tid, Pointer) else tid.addr)
        interp.charge(THREAD_JOIN_COST)
        if interp._attr is not None:
            interp._attr.add(interp.core_id, "sched_overhead",
                             THREAD_JOIN_COST)
        if record is None:
            return 3  # ESRCH
        self._run_thread(interp, record)
        race = interp._race
        if race is not None:
            race.thread_join(self._current_tid[-1], record.tid)
        if isinstance(result, Pointer) and result.addr:
            # pthread_join(t, &rv): the joiner stores the thread's
            # return value (NULL when it returned none) through rv
            interp.store(result.addr, NULL if record.retval is None
                         else record.retval)
        return 0

    def _run_thread(self, interp, record):
        if record.finished:
            return
        record.finished = True
        start = interp.cycles
        self._current_tid.append(record.tid)
        try:
            record.retval = interp.call_function(
                record.func_name, [record.arg])
            record.completed = True
        except ThreadExit as texit:
            record.retval = texit.value
            record.completed = True
        finally:
            self._current_tid.pop()
            record.cycles = interp.cycles - start

    def run_pending(self, interp):
        """Execute any threads that were created but never joined."""
        for record in self.order:
            self._run_thread(interp, record)

    def _exit(self, interp, arg_nodes):
        value = interp.eval_expr(arg_nodes[0]) if arg_nodes else None
        if len(self._current_tid) > 1:
            raise ThreadExit(value)
        # pthread_exit from main: let remaining threads run, then stop
        self.run_pending(interp)
        raise ThreadExit(value)

    def _self(self, interp, arg_nodes):
        return self._current_tid[-1]

    def race_thread(self):
        """The thread id the race detector stamps accesses with."""
        return self._current_tid[-1]

    def _mutex_op(self, interp, arg_nodes):
        for node in arg_nodes:
            interp.eval_expr(node)
        interp.charge(MUTEX_OP_COST)
        return 0

    @staticmethod
    def _mutex_key(value):
        """Mutexes are keyed by the mutex variable's address."""
        if isinstance(value, Pointer):
            return ("mutex", value.addr)
        try:
            return ("mutex", int(value))
        except (TypeError, ValueError):
            return ("mutex", id(value))

    def _mutex_lock(self, interp, arg_nodes):
        values = [interp.eval_expr(node) for node in arg_nodes]
        interp.charge(MUTEX_OP_COST)
        if interp._attr is not None:
            interp._attr.add(interp.core_id, "lock_spin",
                             MUTEX_OP_COST)
        race = interp._race
        if race is not None and values:
            race.lock_acquire(self._current_tid[-1],
                              self._mutex_key(values[0]))
        return 0

    def _mutex_unlock(self, interp, arg_nodes):
        values = [interp.eval_expr(node) for node in arg_nodes]
        interp.charge(MUTEX_OP_COST)
        if interp._attr is not None:
            interp._attr.add(interp.core_id, "lock_spin",
                             MUTEX_OP_COST)
        race = interp._race
        if race is not None and values:
            race.lock_release(self._current_tid[-1],
                              self._mutex_key(values[0]))
        return 0

    # -- condition variables ---------------------------------------------------

    @staticmethod
    def _cond_key(value):
        """Condvars are keyed by the variable's address, like mutexes."""
        if isinstance(value, Pointer):
            return ("cond", value.addr)
        try:
            return ("cond", int(value))
        except (TypeError, ValueError):
            return ("cond", id(value))

    def _cond_signal(self, interp, arg_nodes):
        values = [interp.eval_expr(node) for node in arg_nodes]
        interp.charge(MUTEX_OP_COST)
        if not values:
            return 22  # EINVAL
        key = self._cond_key(values[0])
        pending = self._cond_pending.get(key, 0)
        if pending != float("inf"):
            self._cond_pending[key] = pending + 1
        race = interp._race
        if race is not None:
            race.cond_signal(self._current_tid[-1], key)
        return 0

    def _cond_broadcast(self, interp, arg_nodes):
        values = [interp.eval_expr(node) for node in arg_nodes]
        interp.charge(MUTEX_OP_COST)
        if not values:
            return 22
        key = self._cond_key(values[0])
        self._cond_pending[key] = float("inf")
        race = interp._race
        if race is not None:
            race.cond_signal(self._current_tid[-1], key)
        return 0

    def _cond_wait(self, interp, arg_nodes):
        values = [interp.eval_expr(node) for node in arg_nodes]
        interp.charge(COND_WAIT_COST)
        if interp._attr is not None:
            interp._attr.add(interp.core_id, "sched_overhead",
                             COND_WAIT_COST)
        if len(values) < 2:
            return 22
        key = self._cond_key(values[0])
        mutex_key = self._mutex_key(values[1])
        tid = self._current_tid[-1]
        race = interp._race
        if race is not None:
            # the wait atomically drops the mutex before sleeping
            race.lock_release(tid, mutex_key)
        self._blocked_on[tid] = key
        # on DeadlockError the entry stays put: state_dump() reports
        # the parked waiter in the post-mortem
        while not self._cond_pending.get(key, 0):
            if not self._run_next_runnable(interp):
                from repro.sim.watchdog import DeadlockError
                raise DeadlockError(
                    self._render_cond_deadlock(key),
                    cycle=[(tid, key)])
        self._blocked_on.pop(tid, None)
        pending = self._cond_pending[key]
        if pending != float("inf"):
            self._cond_pending[key] = pending - 1
        if race is not None:
            race.cond_wakeup(tid, key)
            race.lock_acquire(tid, mutex_key)
        return 0

    def _run_next_runnable(self, interp):
        """Run the next created-but-not-yet-started thread to
        completion (creation order); False when none remains."""
        for record in self.order:
            if not record.finished:
                self._run_thread(interp, record)
                return True
        return False

    def _render_cond_deadlock(self, key):
        waiters = sorted(tid for tid, blocked
                         in self._blocked_on.items() if blocked == key)
        chain = " -> ".join("thread %s waits on condvar %s"
                            % (tid, key[1]) for tid in waiters)
        return ("deadlock detected in the condvar wait-for graph: %s "
                "-> no runnable thread left to signal it" % chain)

    def _noop(self, interp, arg_nodes):
        for node in arg_nodes:
            interp.eval_expr(node)
        return 0

    # -- diagnostics -----------------------------------------------------------

    def state_dump(self):
        """Thread-table snapshot attached to ``SimulationTimeout``
        when the single-core baseline blows its step budget: which
        simulated threads exist, which finished, and what each cost."""
        return [{"tid": record.tid, "function": record.func_name,
                 "finished": record.completed, "cycles": record.cycles,
                 "blocked_on": self._blocked_on.get(record.tid)}
                for record in self.order]

    # -- scheduling overhead ---------------------------------------------------------

    def scheduling_overhead_cycles(self, config, total_cycles):
        """Context-switch overhead of time-slicing the threads on one
        core: every quantum boundary costs one switch, plus two
        switches (in/out) per thread lifetime."""
        quantum = max(config.scheduler_quantum_cycles, 1)
        switches = total_cycles // quantum
        switches += 2 * len(self.order)
        return switches * config.context_switch_cycles
