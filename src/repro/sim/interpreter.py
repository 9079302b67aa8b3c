"""Per-core execution state of the C simulator, with cycle accounting.

:class:`Interpreter` holds one simulated core's view of a program:
cycle and step counters, its stack, globals and output, and the chip
hooks (faults, ECC, race detection, attribution).  The program itself
runs as closures lowered once per translation unit by
:mod:`repro.sim.compile`.

Every arithmetic operation is charged from :data:`OP_COSTS` (P54C-class
latencies: integer divide ≫ multiply > add; FDIV ≈ 39 cycles) and every
memory access is priced by the :class:`~repro.scc.SCCChip` timing model,
so runtimes reflect where data lives — private cacheable DRAM, shared
uncacheable DRAM, or on-die MPB.
"""

import math

from repro.cfront import c_ast, ctypes
from repro.sim import builtins as sim_builtins
from repro.sim.machine import StackAllocator
from repro.sim.values import (
    NULL,
    Pointer,
    coerce,
    default_value,
)

# P54C-flavoured operation latencies, in core cycles.
OP_COSTS = {
    "int_alu": 1,       # add/sub/logic/shift/compare
    "int_mul": 9,
    "int_div": 41,
    "float_alu": 3,     # FADD/FSUB
    "float_mul": 3,
    "float_div": 39,    # the famous P5 FDIV latency class
    "branch": 1,
    "call": 10,
    "cast": 1,
}

class InterpreterError(Exception):
    """Runtime error inside the simulated program."""


class StepLimitExceeded(InterpreterError):
    """The program exceeded its instruction budget (likely an infinite
    loop, or a workload too large for simulation)."""


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class ThreadExit(Exception):
    """pthread_exit from inside a simulated thread."""

    def __init__(self, value=None):
        self.value = value


# The C value rules for binary operators where no compiled template
# has them inline.  Neither function charges cycles: ``const_value``
# folds constants with them, and the templates of
# ``repro.sim.compile`` charge an operation, then call
# ``_pointer_value`` for the pointer operators they reject.
def _pointer_value(op, left, right):
    """``left op right`` where at least one side is a Pointer."""
    if op == "+":
        if isinstance(left, Pointer) and isinstance(right, Pointer):
            raise InterpreterError("cannot add two pointers")
        if isinstance(left, Pointer):
            return left.offset(int(right))
        return right.offset(int(left))
    if op == "-":
        if isinstance(left, Pointer) and isinstance(right, Pointer):
            return (left.addr - right.addr) // left.stride
        if isinstance(left, Pointer):
            return left.offset(-int(right))
        raise InterpreterError("cannot subtract pointer from int")
    left_key = left.addr if isinstance(left, Pointer) else left
    right_key = right.addr if isinstance(right, Pointer) else right
    comparisons = {
        "==": left_key == right_key, "!=": left_key != right_key,
        "<": left_key < right_key, ">": left_key > right_key,
        "<=": left_key <= right_key, ">=": left_key >= right_key,
    }
    if op in comparisons:
        return 1 if comparisons[op] else 0
    raise InterpreterError("unsupported pointer operator %r" % op)


def _arith_value(op, left, right):
    """``left op right`` on ints and floats."""
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise InterpreterError("division by zero")
        if isinstance(left, float) or isinstance(right, float):
            return left / right
        quotient = abs(left) // abs(right)
        return quotient if (left < 0) == (right < 0) else -quotient
    if op == "%":
        if right == 0:
            raise InterpreterError("modulo by zero")
        if isinstance(left, float) or isinstance(right, float):
            return math.fmod(left, right)
        remainder = abs(left) % abs(right)
        return remainder if left >= 0 else -remainder
    if op == "<":
        return 1 if left < right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">=":
        return 1 if left >= right else 0
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "&":
        return int(left) & int(right)
    if op == "|":
        return int(left) | int(right)
    if op == "^":
        return int(left) ^ int(right)
    if op == "<<" or op == ">>":
        left = int(left)
        right = int(right)
        if right < 0:
            raise InterpreterError("negative shift count")
        return left << right if op == "<<" else left >> right
    raise InterpreterError("unsupported binary operator %r" % op)


def const_value(expr):
    """Evaluate a constant expression (a static initializer or a
    ``case`` label) without charging cycles."""
    if isinstance(expr, c_ast.Constant):
        return expr.value
    if isinstance(expr, c_ast.UnaryOp) and expr.op == "-":
        return -const_value(expr.operand)
    if isinstance(expr, c_ast.StringLiteral):
        return expr.value
    if isinstance(expr, c_ast.Cast):
        return coerce(expr.ctype, const_value(expr.expr))
    if isinstance(expr, c_ast.SizeofType):
        return expr.ctype.sizeof()
    if isinstance(expr, c_ast.BinaryOp):
        left = const_value(expr.left)
        right = const_value(expr.right)
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            return _pointer_value(expr.op, left, right)
        return _arith_value(expr.op, left, right)
    raise InterpreterError("unsupported constant initializer: %r" % expr)


# Stack size reserved per core inside its private window.
STACK_BYTES = 1024 * 1024

# Interpreter steps between periodic ticks; scheduled core faults are
# delivered on ticks.
TICK_STEPS = 256


class Interpreter:
    """Executes one simulated core's view of a program."""

    def __init__(self, unit, chip, core_id=0, memory=None, runtime=None,
                 max_steps=200_000_000):
        self.unit = unit
        self.chip = chip
        self.core_id = core_id
        if memory is None:
            from repro.sim.machine import Memory
            memory = Memory()
        self.memory = memory
        self.runtime = runtime
        self.max_steps = max_steps

        self.cycles = 0
        self.steps = 0
        # the step count at which the compiled closures next call
        # _step_event: the next multiple of TICK_STEPS or the first
        # step past the budget, whichever comes first
        self._stop = min(TICK_STEPS, max_steps + 1)
        self.output = []
        self.current_function = None
        self._rand_state = 12345 + core_id  # deterministic per core

        # hot-path state the compiled closures reach directly
        self._mem_get = memory.get
        self._mem_set = memory.put
        self._global_addr = {}
        self._site_cache = {}   # site id -> (lo, hi, cost fn)
        self.site_fills = 0     # inline-cache misses (diagnostics)
        # fault injection (repro.faults): the chip-attached injector,
        # or None — in which case the read/tick hooks are dead branches
        faults = getattr(chip, "faults", None)
        self._faults = faults if faults is not None and faults.active \
            else None
        # ECC scrubbing (repro.recovery.ecc) only matters when a read
        # can actually be flipped, so it rides the fault gate
        self._ecc = getattr(chip, "ecc", None) \
            if self._faults is not None else None
        if self._faults is not None:
            # every read, compiled or builtin, goes through the flip
            # and scrub hooks; runs without faults keep the bare dict
            self._mem_get = self._faulty_get
        # race detection (repro.race): the chip-attached detector, or
        # None — in which case every hook is a dead branch and cycles
        # and output are byte-identical to an unaudited run
        self._race = getattr(chip, "race", None)
        # cycle attribution (repro.obs.attribution): same contract.
        # The load/store hot path carries NO per-op hook — memory-op
        # counts come from the chip's own per-core access counters
        self._attr = getattr(chip, "attribution", None)

        stack_segment = chip.address_space.alloc_private(
            core_id, STACK_BYTES, "stack-core%d" % core_id)
        self.stack = StackAllocator(stack_segment.base, STACK_BYTES)

        self.builtins = sim_builtins.default_builtins()
        if runtime is not None:
            self.builtins.update(runtime.builtins())

        self.load_globals()

        from repro.sim import compile as sim_compile
        self._compiled = sim_compile.compile_unit(unit)
        self._invoke = sim_compile.invoke
        chip.register_site_cache_holder(self)

    # -- setup --------------------------------------------------------------

    def load_globals(self):
        """Allocate and statically initialize file-scope variables in
        this core's private window (shared data only becomes shared via
        the explicit RCCE allocations the translator inserted)."""
        for decl in self.unit.global_decls():
            if decl.is_typedef:
                continue
            size = max(decl.ctype.sizeof(), 4)
            segment = self.chip.address_space.alloc_private(
                self.core_id, size, decl.name)
            self._global_addr[decl.name] = segment.base
            if self._race is not None:
                self._race.register(decl.name, segment.base, size,
                                    "global")
            self._static_init(segment.base, decl.ctype, decl.init)

    def _static_init(self, addr, ctype, init):
        """Static initialization: free of cycle charges, zero default."""
        if isinstance(ctype, ctypes.ArrayType):
            element = ctype.base
            stride = element.sizeof() or 4
            length = ctype.length or 0
            values = []
            if isinstance(init, c_ast.InitList):
                values = [const_value(e) for e in init.exprs]
            for index in range(length):
                if index < len(values):
                    value = coerce(element, values[index])
                else:
                    value = (coerce(element, values[-1])
                             if values and len(values) == 1 and length > 1
                             and isinstance(init, c_ast.InitList)
                             and len(init.exprs) == 1
                             else default_value(element))
                self.memory.store(addr + index * stride, value)
            return
        if init is None:
            self.memory.store(addr, default_value(ctype))
        else:
            self.memory.store(addr, coerce(ctype, const_value(init)))

    # -- cycle accounting helpers ------------------------------------------------

    def charge(self, cycles):
        self.cycles += cycles

    def charge_op(self, kind):
        self.cycles += OP_COSTS[kind]

    def _faulty_get(self, addr, default=0):
        """``memory.get`` under fault injection: the stored value,
        maybe bit-flipped, then ECC-scrubbed when a scrubber is on."""
        raw = self.memory.load(addr, default)
        value = self._faults.filter_load(self, addr, raw)
        if self._ecc is not None and value is not raw:
            value = self._ecc.scrub(self, addr, value, raw)
        return value

    def store(self, addr, value, ctype=None):
        self.cycles += self.chip.access_cost(self.core_id, addr, "write")
        if self._race is not None:
            self._race.record(self, addr, "write")
        if ctype is not None:
            value = coerce(ctype, value)
        self.memory.store(addr, value)
        return value

    def _step_event(self):
        """Called by the compiled closures' step prologue once
        ``steps`` reaches ``_stop``: past the budget, raise
        StepLimitExceeded; on a multiple of TICK_STEPS, deliver
        scheduled core faults; then set ``_stop`` to the next event."""
        steps = self.steps
        if steps > self.max_steps:
            raise StepLimitExceeded(
                "exceeded %d interpreter steps on core %d"
                % (self.max_steps, self.core_id))
        if not steps % TICK_STEPS and self._faults is not None:
            self._faults.core_tick(self)
        # store the next tick before reading the budget: a halt from
        # another thread in between then still lands
        stop = self._stop = steps - steps % TICK_STEPS + TICK_STEPS
        if self.max_steps < stop:
            self._stop = self.max_steps + 1

    def halt(self):
        """Stop this core at its next step, which raises
        StepLimitExceeded.  Safe to call from another thread: the
        budget drops to zero before the next step event does, the
        order :meth:`_step_event` relies on."""
        self.max_steps = 0
        self._stop = 0

    def _fill_site(self, site, addr):
        """Inline-cache miss: rebuild one load/store site's entry from
        the chip.  Entries carry no version stamp — the chip clears the
        whole ``_site_cache`` dict when address translation changes
        (see ``SCCChip._bump_mem_epoch``), so presence means valid.
        With a race detector attached, the entry's cost function
        records each access too; without one it is the chip's own."""
        entry = self.chip.access_fastpath(self.core_id, addr)
        if self._race is not None:
            entry = entry[0], entry[1], self._recorded(entry[2])
        self._site_cache[site] = entry
        self.site_fills += 1
        return entry

    def _recorded(self, price):
        """``price`` with the race recorder bound in.  The recorder
        sees the clock after the charge, but the generated
        ``I.cycles += e[2](addr, kind)`` has read ``I.cycles`` before
        the call and stores the sum after it, so this passes the
        post-charge clock and never writes ``I.cycles`` itself."""
        record = self._race.record

        def recorded(addr, kind):
            cost = price(addr, kind)
            record(self, addr, kind, self.cycles + cost)
            return cost
        return recorded

    # -- function execution -----------------------------------------------------------

    def call_function(self, name, args=()):
        """Call a user-defined function by name with Python values."""
        cf = self._compiled.functions.get(name)
        if cf is None:
            raise InterpreterError("undefined function %r" % name)
        return self._invoke(self, cf, args)

    def run_main(self, argv=()):
        """Run main / RCCE_APP; returns its exit value."""
        for entry in ("RCCE_APP", "main"):
            cf = self._compiled.functions.get(entry)
            if cf is not None:
                args = []
                if len(cf.params) >= 2:
                    args = [len(argv) + 1, NULL]
                return self.call_function(entry, args)
        raise InterpreterError("program has no main or RCCE_APP")

    def eval_expr(self, arg):
        """Evaluate one builtin argument: a pre-compiled ``BoundArg``
        thunk, which charges its cycles as it runs."""
        return arg.fn(arg.I, arg.F)

    # Environment constants declared by the modelled headers.
    ENV_CONSTANTS = {
        "NULL": NULL,
        "RCCE_COMM_WORLD": 0,
        "RCCE_SUCCESS": 0,
        "PTHREAD_MUTEX_INITIALIZER": 0,
        "stdout": 1,
        "stderr": 2,
        "RAND_MAX": (1 << 31) - 1,
        # RCCE reduction ops and element types
        "RCCE_SUM": 0,
        "RCCE_MAX": 1,
        "RCCE_MIN": 2,
        "RCCE_PROD": 3,
        "RCCE_INT": 0,
        "RCCE_DOUBLE": 1,
        "RCCE_FLAG_SET": 1,
        "RCCE_FLAG_UNSET": 0,
    }

    # -- misc ----------------------------------------------------------------------------------------

    def rand(self):
        """Deterministic LCG (glibc constants)."""
        self._rand_state = (self._rand_state * 1103515245 + 12345) \
            % (1 << 31)
        return self._rand_state

    def write_output(self, text):
        self.output.append(text)
