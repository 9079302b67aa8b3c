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
from repro.scc.memmap import PRIVATE_BASE, PRIVATE_WINDOW
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


def string_array_message(name):
    """The error of an array initialized by a string literal, whose
    characters the simulator does not store."""
    return ("array %r is initialized by a string literal, which the "
            "simulator does not model" % name)


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
        self.output = []
        self.current_function = None
        self._rand_state = 12345 + core_id  # deterministic per core

        # hot-path state the compiled closures reach directly
        self._mem_get = memory.get
        self._mem_set = memory.put
        self._global_addr = {}
        self._site_cache = {}   # site id -> (lo, hi, cost fn, ...)
        # prices every local and global scalar (see _fill_scalar)
        self._price_scalar = self._fill_scalar
        # the L1 whose hits the scalar loads and stores take in place,
        # or None: then they all call _price_scalar (see _fill_scalar)
        self._sl1 = None
        self._l1_hit = chip.config.l1_hit_cycles
        self.site_fills = 0     # fast-path entries built (diagnostics)
        # fault injection (repro.faults): the chip-attached injector,
        # or None — in which case the read/tick hooks are dead branches
        faults = getattr(chip, "faults", None)
        self._faults = faults if faults is not None and faults.active \
            else None
        # the step count at which the compiled closures next call
        # _step_event: the next multiple of TICK_STEPS or the first
        # step past the budget, whichever comes first
        self._stop = min(TICK_STEPS, max_steps + 1)
        # a straight-line run of steps skips its per-step prologues
        # while it ends below this: ``_stop`` without faults, and 0 with
        # them, whose loads may raise or read ``steps`` mid-run
        self._run_stop = self._stop if self._faults is None else 0
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
        chip.register_entry_holder(self)

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
            if isinstance(decl.ctype, ctypes.ArrayType) \
                    and isinstance(decl.init, c_ast.StringLiteral):
                raise InterpreterError(string_array_message(decl.name))
            self._static_init(segment.base, decl.ctype, decl.init)

    def _static_init(self, addr, ctype, init):
        """Static initialization: free of cycle charges, zero default."""
        if isinstance(ctype, ctypes.ArrayType):
            # the element type's work is done once per array: each
            # initializer is coerced once, and the elements past them
            # share one value
            element = ctype.base
            stride = element.sizeof() or 4
            length = ctype.length or 0
            values = []
            if isinstance(init, c_ast.InitList):
                values = [const_value(e) for e in init.exprs]
                values = [coerce(element, value)
                          for value in values[:length]]
            # a one-value list fills the whole array
            fill = values[0] if len(values) == 1 and length > 1 \
                else default_value(element)
            store = self.memory.store
            for index, value in enumerate(values):
                store(addr + index * stride, value)
            for index in range(len(values), length):
                store(addr + index * stride, fill)
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
        scheduled core faults; then set ``_stop`` (and, without
        faults, ``_run_stop``) to the next event."""
        steps = self.steps
        if steps > self.max_steps:
            raise StepLimitExceeded(
                "exceeded %d interpreter steps on core %d"
                % (self.max_steps, self.core_id))
        faults = self._faults
        if faults is not None and not steps % TICK_STEPS:
            faults.core_tick(self)
        # store the next tick before reading the budget: a halt from
        # another thread in between then still lands
        stop = self._stop = steps - steps % TICK_STEPS + TICK_STEPS
        if faults is None:
            self._run_stop = stop
        if self.max_steps < stop:
            stop = self._stop = self.max_steps + 1
            if faults is None:
                self._run_stop = stop

    def halt(self):
        """Stop this core at its next step, which raises
        StepLimitExceeded.  Safe to call from another thread: the
        budget drops to zero before the next step event and the run
        threshold do, the order :meth:`_step_event` relies on.  A
        straight-line run stores its whole step count before it
        compares it with ``_run_stop``, so a core inside a run that
        passed the compare has counted the run's steps already: it
        stops at the step after the run.  Either way the core stops at
        most one step past the count ``steps`` held when this
        returned."""
        self.max_steps = 0
        self._stop = 0
        self._run_stop = 0

    def _fill_site(self, site, addr):
        """Inline-cache miss: rebuild one load/store site's entry from
        the chip.  Entries carry no version stamp — the chip drops
        every entry when address translation changes (see
        :meth:`drop_fastpath_entries`), so presence means valid.
        With a race detector attached, the entry's cost function
        records each access too; without one it is the chip's own."""
        entry = self.chip.access_fastpath(self.core_id, addr)
        if self._race is not None:
            entry = entry[0], entry[1], self._recorded(entry[2])
        self._site_cache[site] = entry
        self.site_fills += 1
        return entry

    def _fill_scalar(self, addr, kind):
        """``_price_scalar`` until its first call after a fill or a
        drop: build the scalar entry, then price this access with it.

        Every local scalar lives on this core's stack and every global
        scalar in its :meth:`load_globals` allocation, both in the
        core's private window.  That window is one LUT window, so one
        fast-path entry prices all of them, a reconfigured core's too,
        and the generated scalar loads and stores call it with no site
        and no window test.  It is wrapped like a site's entry: with
        the race recorder when a detector is attached; under faults it
        is the chip's whole-range ``access_cost`` entry.

        When the entry names the L1 it probes in place (the private
        entry, untranslated) and no recorder wraps it, that L1 becomes
        ``_sl1``: the generated access then counts a hit on its last
        line or on its set's MRU way itself and calls the entry for
        anything else.  Under faults, with a detector, or once the
        core's own window is remapped to shared, ``_sl1`` stays None
        and every access calls the entry."""
        lo, hi, price, l1 = self.chip.access_fastpath(self.core_id, addr)
        window = PRIVATE_BASE + self.core_id * PRIVATE_WINDOW
        assert lo <= window and window + PRIVATE_WINDOW <= hi, \
            "the scalar entry must cover core %d's private window" \
            % self.core_id
        if self._race is not None:
            price = self._recorded(price)
        else:
            self._sl1 = l1
        self._price_scalar = price
        self.site_fills += 1
        return price(addr, kind)

    def drop_fastpath_entries(self):
        """Forget every fast-path entry, the site caches' and the
        scalar one with its L1; the chip calls this when address
        translation changes (``SCCChip._bump_mem_epoch``)."""
        self._site_cache.clear()
        self._sl1 = None
        self._price_scalar = self._fill_scalar

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
