"""Closure compilation of the C AST: the simulator's execution engine.

This module lowers each function body ONCE into a tree of pre-bound
Python closures: every statement/expression node becomes a small
function ``fn(I, F)`` (``I`` the :class:`~repro.sim.interpreter.
Interpreter`, ``F`` the flat frame of local-variable addresses), with

* dispatch resolved at compile time (no ``isinstance``/dict lookups on
  the hot path),
* lexical scoping resolved to integer frame slots,
* operation costs folded into pre-bound integer constants, and
* one **inline cache** per memory-access site: the site remembers the
  last resolved (window, cost-function) entry from
  :meth:`~repro.scc.chip.SCCChip.access_fastpath`, so repeated
  accesses to the same region skip the full address-space resolution.
  Invalidation is push-style: the chip clears every registered
  interpreter's site-cache dict whenever ``mem_epoch`` bumps (LUT
  reconfiguration, new split window), so a present entry is always
  valid and the hot path never checks an epoch stamp.

The timing contract is fixed by the goldens in ``tests/golden/sim.json``
(taken from the tree-walking interpreter this engine replaced): every
step, every cycle charge in its order, and every chip/memory side
effect is reproduced, so cycle counts, stdout, metrics and trace events
match them byte for byte.  Each statement, expression and loop
iteration is one step.  The step prologue inlined in every closure
counts the step and makes one compare, ``steps >= I._stop``; the
interpreter keeps ``_stop`` at its next step event (the next multiple
of ``TICK_STEPS``, or the step past the budget), and
``I._step_event()`` raises past the budget, ticks, and sets the next
one.

Constructs the simulator does not support compile to closures that
raise :class:`InterpreterError` when (and only when) executed: ``goto``,
unknown AST nodes, a member the struct does not have.  A non-constant
``case`` label is rejected when its function is compiled.  An item
ahead of a switch body's first label is dead code and is skipped.
A ``break`` or ``continue`` that escapes its function raises
:class:`InterpreterError` at the call.  A call through a function
pointer resolves the target's name among the unit's functions first,
then the builtins.
"""

import itertools
import math
import threading
import weakref

from repro.cfront import c_ast, ctypes
from repro.sim.interpreter import (
    OP_COSTS,
    Interpreter,
    InterpreterError,
    _Break,
    _Continue,
    _Return,
    const_value,
)
from repro.sim.values import (
    NULL,
    FunctionRef,
    Pointer,
    coerce,
    default_value,
    pointer_for,
)

__all__ = ["BoundArg", "CompiledFunction", "CompiledUnit",
           "compile_unit", "invoke", "make_coercer"]

# Pre-bound operation costs (builtins and the generic binop path read
# OP_COSTS per charge; sourcing the constants from the same table keeps
# them aligned).
_C_IALU = OP_COSTS["int_alu"]
_C_IMUL = OP_COSTS["int_mul"]
_C_IDIV = OP_COSTS["int_div"]
_C_FALU = OP_COSTS["float_alu"]
_C_FMUL = OP_COSTS["float_mul"]
_C_FDIV = OP_COSTS["float_div"]
_C_BRANCH = OP_COSTS["branch"]
_C_CALL = OP_COSTS["call"]
_C_CAST = OP_COSTS["cast"]

_ENV = Interpreter.ENV_CONSTANTS
_FLOAT_NAMES = ("float", "double", "long double")

_new_site = itertools.count(1).__next__


class BoundArg:
    """A lazily-evaluable argument handed to builtins.

    Builtins receive ``(interp, arg_nodes)`` and call
    ``interp.eval_expr(node)`` per argument (possibly skipping some,
    e.g. ``fprintf``'s stream).  Each node is one of these: evaluation
    runs the pre-compiled closure, preserving both laziness and charge
    order."""

    __slots__ = ("fn", "I", "F")

    def __init__(self, fn, I, F):
        self.fn = fn
        self.I = I
        self.F = F

    def __call__(self):
        return self.fn(self.I, self.F)


class CompiledFunction:
    """One function lowered to closures.  It keeps no reference to its
    AST: the AST links back to the unit, which would then outlive its
    entry in the weakly keyed compile cache."""

    __slots__ = ("name", "nslots", "params", "body", "ret_coerce")

    def __init__(self, name):
        self.name = name
        self.nslots = 0
        self.params = ()
        self.body = None
        self.ret_coerce = None


class CompiledUnit:
    """All compiled functions of one translation unit."""

    __slots__ = ("functions", "global_types", "__weakref__")

    def __init__(self):
        self.functions = {}
        self.global_types = {}

    def fallbacks(self):
        """Functions left uncompiled, by name: none, since every
        construct compiles."""
        return {}


_UNIT_CACHE = weakref.WeakKeyDictionary()
_UNIT_CACHE_LOCK = threading.Lock()


def compile_unit(unit):
    """Compile (and cache, keyed on the unit object) a translation
    unit.  Thread-safe: ``run_rcce`` cores share one compiled unit."""
    with _UNIT_CACHE_LOCK:
        cu = _UNIT_CACHE.get(unit)
        if cu is None:
            cu = _compile_unit(unit)
            _UNIT_CACHE[unit] = cu
        return cu


def _compile_unit(unit):
    cu = CompiledUnit()
    cu.global_types = {decl.name: decl.ctype
                       for decl in unit.global_decls()
                       if not decl.is_typedef}
    # last definition wins; every function is declared before any body
    # is compiled, so calls resolve regardless of definition order
    funcs = {func.name: func for func in unit.functions()}
    cu.functions = {name: CompiledFunction(name) for name in funcs}
    for name, func in funcs.items():
        _FunctionCompiler(cu, cu.functions[name]).compile(func)
    return cu


# ---------------------------------------------------------------------------
# runtime helpers (shared by the generated closures)
# ---------------------------------------------------------------------------

def _undefined(name):
    raise InterpreterError("undefined identifier %r" % name)


def _ld(I, addr, site):
    """Charged load through the per-site inline cache (no float
    conversion; callers apply their statically-known conversion)."""
    e = I._site_cache.get(site)
    if e is None or not e[0] <= addr < e[1]:
        e = I._fill_site(site, addr)
    I.cycles += e[2](addr, "read", I.cycles)
    if I._race is not None:
        I._race.record(I, addr, "read")
    return I._mem_get(addr, 0)


def _st(I, addr, value, site, co):
    """Charged store through the per-site inline cache; ``co`` is the
    pre-built coercer for the target's C type (or None)."""
    e = I._site_cache.get(site)
    if e is None or not e[0] <= addr < e[1]:
        e = I._fill_site(site, addr)
    I.cycles += e[2](addr, "write", I.cycles)
    if I._race is not None:
        I._race.record(I, addr, "write")
    if co is not None:
        value = co(value)
    I._mem_set(addr, value)
    return value


def _st_dyn(I, addr, value, site, ct):
    """Charged store where the target C type is only known at run time
    (pointer dereference, dynamic subscripts, member access)."""
    e = I._site_cache.get(site)
    if e is None or not e[0] <= addr < e[1]:
        e = I._fill_site(site, addr)
    I.cycles += e[2](addr, "write", I.cycles)
    if I._race is not None:
        I._race.record(I, addr, "write")
    value = coerce(ct, value)
    I._mem_set(addr, value)
    return value


def _flt_load_conv(value, ct):
    """The int->float load conversion for a runtime-known type."""
    if isinstance(value, int) and ct.__class__ is ctypes.PrimitiveType \
            and ct.name in _FLOAT_NAMES:
        return float(value)
    return value


def invoke(I, cf, args):
    """Execute a compiled function call: charge it, bind the arguments
    into a fresh frame, run the body and coerce its return value."""
    body = cf.body
    I.cycles += _C_CALL
    saved_function = I.current_function
    I.current_function = cf.name
    stack = I.stack
    saved_sp = stack.sp
    F = [0] * cf.nslots
    try:
        if args:
            race = I._race
            mem_set = I._mem_set
            for spec, value in zip(cf.params, args):
                slot = spec[0]
                if slot is None:
                    continue  # unnamed parameter: consumes the arg
                addr = stack.alloc(spec[2])
                F[slot] = addr
                if race is not None:
                    race.register(spec[3], addr, spec[2], "local",
                                  cf.name)
                mem_set(addr, spec[1](value))
        try:
            body(I, F)
        except _Return as ret:
            if ret.value is not None:
                return cf.ret_coerce(ret.value)
            return None
        except (_Break, _Continue) as exc:
            raise InterpreterError(
                "%s outside a loop in %s"
                % ("break" if isinstance(exc, _Break) else "continue",
                   cf.name)) from None
        return None
    finally:
        stack.sp = saved_sp
        I.current_function = saved_function


# ---------------------------------------------------------------------------
# coercion specialization (mirrors repro.sim.values.coerce exactly)
# ---------------------------------------------------------------------------

def make_coercer(ct):
    """A specialized ``lambda value: coerce(ct, value)`` with the type
    dispatch done once, at compile time."""
    ct = ctypes.resolve(ct)
    if isinstance(ct, ctypes.PrimitiveType):
        if ct.is_floating:
            def co_float(value):
                if value.__class__ is Pointer:
                    return float(value.addr)
                if value is None:
                    return 0.0
                return float(value)
            return co_float
        if ct.is_integral:
            size = ct.sizeof() or 4
            bits = {1: 8, 2: 16, 4: 32, 8: 64}.get(size, 32)
            mask = (1 << bits) - 1
            half = 1 << (bits - 1)
            wrap = 1 << bits
            signed = not ct.name.startswith("unsigned")

            def co_int(value):
                cls = value.__class__
                if cls is int:
                    value &= mask
                elif cls is Pointer:
                    return value.addr
                elif cls is FunctionRef:
                    return value
                elif value is None:
                    return 0
                else:
                    value = int(value) & mask
                if signed and value >= half:
                    return value - wrap
                return value
            return co_int

        def co_void(value):       # void: coerce() passes values through
            if value is None:
                return 0
            return value
        return co_void
    if isinstance(ct, (ctypes.PointerType, ctypes.ArrayType)):
        pointee = ctypes.pointee(ct)
        restride = pointee is not None and not pointee.is_void
        pstride = (pointee.sizeof() or 1) if pointee is not None else 1

        def co_ptr(value):
            cls = value.__class__
            if cls is Pointer:
                if restride:
                    return Pointer(value.addr, pstride, pointee)
                return value
            if cls is FunctionRef:
                return value
            if cls is int or cls is float:
                return Pointer(int(value), pstride, pointee)
            if value is None:
                return NULL
            if isinstance(value, (int, float)):   # bool, int subclasses
                return Pointer(int(value), pstride, pointee)
            return value
        return co_ptr

    def co_generic(value):        # NamedType, StructType, FunctionType…
        return coerce(ct, value)
    return co_generic


def _static_flt(ct):
    """Does a load at this statically-typed site convert int->float?"""
    ct = ctypes.resolve(ct)
    return isinstance(ct, ctypes.PrimitiveType) and \
        ct.name in _FLOAT_NAMES


# ---------------------------------------------------------------------------
# break/continue escape analysis (syntactic; calls do not count)
# ---------------------------------------------------------------------------

def _can_escape(stmt, want_break):
    """Can executing ``stmt`` raise _Break (or _Continue) out of it?"""
    cls = stmt.__class__
    if want_break:
        if cls is c_ast.Break:
            return True
        if cls is c_ast.Switch:        # switch catches break
            return False
    else:
        if cls is c_ast.Continue:
            return True
        if cls is c_ast.Switch:        # …but not continue
            return any(_can_escape(inner, want_break)
                       for item in getattr(stmt.body, "items", ())
                       if isinstance(item, (c_ast.Case, c_ast.Default))
                       for inner in item.stmts)
    if cls in (c_ast.While, c_ast.DoWhile, c_ast.For):
        return False                   # loops catch both
    if cls is c_ast.Compound:
        return any(_can_escape(item, want_break) for item in stmt.items)
    if cls is c_ast.If:
        if _can_escape(stmt.then, want_break):
            return True
        return stmt.els is not None and _can_escape(stmt.els, want_break)
    if cls is c_ast.Label:
        return _can_escape(stmt.stmt, want_break)
    if cls in (c_ast.Case, c_ast.Default):
        return any(_can_escape(inner, want_break) for inner in stmt.stmts)
    return False


# ---------------------------------------------------------------------------
# closure builders — statements
#
# Every builder inlines the step prologue:
#     steps += 1; at I._stop, call I._step_event().
# ---------------------------------------------------------------------------

def _make_seq(items):
    n = len(items)
    if n == 0:
        def run0(I, F):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
        return run0
    if n == 1:
        c0, = items

        def run1(I, F):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            c0(I, F)
        return run1
    if n == 2:
        c0, c1 = items

        def run2(I, F):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            c0(I, F)
            c1(I, F)
        return run2

    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        for c in items:
            c(I, F)
    return run


def _make_raise_stmt(message):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        raise InterpreterError(message)
    return run


def _make_exprstmt(expr_c):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        expr_c(I, F)
    return run


def _make_if(cond_c, then_c, else_c):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        I.cycles += _C_BRANCH
        v = cond_c(I, F)
        if v.__class__ is _P:
            v = v.addr != 0
        if v:
            then_c(I, F)
        elif else_c is not None:
            else_c(I, F)
    return run


def _make_while(cond_c, body_c, protect):
    if protect:
        def run(I, F, _P=Pointer):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            while True:
                s = I.steps + 1
                I.steps = s
                if s >= I._stop:
                    I._step_event()
                I.cycles += _C_BRANCH
                v = cond_c(I, F)
                if v.__class__ is _P:
                    v = v.addr != 0
                if not v:
                    break
                try:
                    body_c(I, F)
                except _Break:
                    break
                except _Continue:
                    continue
        return run

    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        while True:
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            I.cycles += _C_BRANCH
            v = cond_c(I, F)
            if v.__class__ is _P:
                v = v.addr != 0
            if not v:
                break
            body_c(I, F)
    return run


def _make_dowhile(body_c, cond_c, protect):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        while True:
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            if protect:
                try:
                    body_c(I, F)
                except _Break:
                    break
                except _Continue:
                    pass
            else:
                body_c(I, F)
            I.cycles += _C_BRANCH
            v = cond_c(I, F)
            if v.__class__ is _P:
                v = v.addr != 0
            if not v:
                break
    return run


def _make_for(init_c, cond_c, step_c, body_c, protect):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        if init_c is not None:
            init_c(I, F)
        while True:
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            if cond_c is not None:
                I.cycles += _C_BRANCH
                v = cond_c(I, F)
                if v.__class__ is _P:
                    v = v.addr != 0
                if not v:
                    break
            if protect:
                try:
                    body_c(I, F)
                except _Break:
                    break
                except _Continue:
                    pass
            else:
                body_c(I, F)
            if step_c is not None:
                step_c(I, F)
    return run


def _make_return(expr_c):
    if expr_c is None:
        def run_void(I, F):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            raise _Return(None)
        return run_void

    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        raise _Return(expr_c(I, F))
    return run


def _make_break():
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        raise _Break()
    return run


def _make_continue():
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        raise _Continue()
    return run


def _make_switch(cond_c, groups):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        I.cycles += _C_BRANCH
        value = cond_c(I, F)
        matched = False
        try:
            for is_default, marker, stmts in groups:
                if not matched:
                    if is_default or marker == value:
                        matched = True
                if matched:
                    for c in stmts:
                        c(I, F)
        except _Break:
            pass
    return run


def _make_decl_plain(slot, name, size):
    def run(I, F):
        addr = I.stack.alloc(size)
        F[slot] = addr
        if I._race is not None:
            I._race.register(name, addr, size, "local",
                             I.current_function)
    return run


def _make_decl_scalar(slot, name, size, init_c, co, site):
    def run(I, F):
        addr = I.stack.alloc(size)
        F[slot] = addr
        if I._race is not None:
            I._race.register(name, addr, size, "local",
                             I.current_function)
        _st(I, addr, init_c(I, F), site, co)
    return run


def _make_decl_array(slot, name, size, init_cs, length, stride, dv, co,
                     site):
    n = len(init_cs)

    def run(I, F):
        addr = I.stack.alloc(size)
        F[slot] = addr
        if I._race is not None:
            I._race.register(name, addr, size, "local",
                             I.current_function)
        values = [c(I, F) for c in init_cs]
        for k in range(length):
            _st(I, addr + k * stride, values[k] if k < n else dv,
                site, co)
    return run


# ---------------------------------------------------------------------------
# closure builders — expressions
# ---------------------------------------------------------------------------

def _make_const(value):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        return value
    return run


def _make_raise_expr(message):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        raise InterpreterError(message)
    return run


def _make_id_late(name):
    """Identifier unresolvable at compile time: builtin FunctionRef or
    environment constant, decided at run time (builtins depend on the
    attached runtime)."""
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        if name in I.builtins:
            return FunctionRef(name)
        if name in _ENV:
            return _ENV[name]
        raise InterpreterError("undefined identifier %r" % name)
    return run


def _make_id_load_local(slot, name, flt, site):
    if flt:
        def run_f(I, F):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            addr = F[slot]
            if not addr:
                _undefined(name)
            e = I._site_cache.get(site)
            if e is None or not e[0] <= addr < e[1]:
                e = I._fill_site(site, addr)
            I.cycles += e[2](addr, "read", I.cycles)
            if I._race is not None:
                I._race.record(I, addr, "read")
            v = I._mem_get(addr, 0)
            if isinstance(v, int):
                return float(v)
            return v
        return run_f

    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr = F[slot]
        if not addr:
            _undefined(name)
        e = I._site_cache.get(site)
        if e is None or not e[0] <= addr < e[1]:
            e = I._fill_site(site, addr)
        I.cycles += e[2](addr, "read", I.cycles)
        if I._race is not None:
            I._race.record(I, addr, "read")
        return I._mem_get(addr, 0)
    return run


def _make_id_load_global(name, flt, site):
    if flt:
        def run_f(I, F):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            addr = I._global_addr[name]
            e = I._site_cache.get(site)
            if e is None or not e[0] <= addr < e[1]:
                e = I._fill_site(site, addr)
            I.cycles += e[2](addr, "read", I.cycles)
            if I._race is not None:
                I._race.record(I, addr, "read")
            v = I._mem_get(addr, 0)
            if isinstance(v, int):
                return float(v)
            return v
        return run_f

    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr = I._global_addr[name]
        e = I._site_cache.get(site)
        if e is None or not e[0] <= addr < e[1]:
            e = I._fill_site(site, addr)
        I.cycles += e[2](addr, "read", I.cycles)
        if I._race is not None:
            I._race.record(I, addr, "read")
        return I._mem_get(addr, 0)
    return run


def _make_id_decay_local(slot, name, stride, pointee):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr = F[slot]
        if not addr:
            _undefined(name)
        return _P(addr, stride, pointee)
    return run


def _make_id_decay_global(name, stride, pointee):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        return _P(I._global_addr[name], stride, pointee)
    return run


def _make_land(left_c, right_c):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        I.cycles += _C_BRANCH
        v = left_c(I, F)
        if v.__class__ is _P:
            v = v.addr != 0
        if not v:
            return 0
        v = right_c(I, F)
        if v.__class__ is _P:
            v = v.addr != 0
        return 1 if v else 0
    return run


def _make_lor(left_c, right_c):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        I.cycles += _C_BRANCH
        v = left_c(I, F)
        if v.__class__ is _P:
            v = v.addr != 0
        if v:
            return 1
        v = right_c(I, F)
        if v.__class__ is _P:
            v = v.addr != 0
        return 1 if v else 0
    return run


def _make_add(left_c, right_c):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        a = left_c(I, F)
        b = right_c(I, F)
        ca = a.__class__
        cb = b.__class__
        if ca is _P or cb is _P:
            I.cycles += _C_IALU
            if ca is _P:
                return _P(a.addr + int(b) * a.stride, a.stride,
                          a.pointee)
            return _P(b.addr + int(a) * b.stride, b.stride, b.pointee)
        if ca is float or cb is float:
            I.cycles += _C_FALU
        else:
            I.cycles += _C_IALU
        return a + b
    return run


def _make_sub(left_c, right_c):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        a = left_c(I, F)
        b = right_c(I, F)
        ca = a.__class__
        cb = b.__class__
        if ca is _P or cb is _P:
            I.cycles += _C_IALU
            if ca is _P and cb is _P:
                return (a.addr - b.addr) // a.stride
            if ca is _P:
                return _P(a.addr - int(b) * a.stride, a.stride,
                          a.pointee)
            raise InterpreterError("cannot subtract pointer from int")
        if ca is float or cb is float:
            I.cycles += _C_FALU
        else:
            I.cycles += _C_IALU
        return a - b
    return run


def _make_mul(left_c, right_c):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        a = left_c(I, F)
        b = right_c(I, F)
        ca = a.__class__
        cb = b.__class__
        if ca is _P or cb is _P:
            return I._pointer_binop("*", a, b)
        if ca is float or cb is float:
            I.cycles += _C_FMUL
        else:
            I.cycles += _C_IMUL
        return a * b
    return run


def _make_div(left_c, right_c):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        a = left_c(I, F)
        b = right_c(I, F)
        ca = a.__class__
        cb = b.__class__
        if ca is _P or cb is _P:
            return I._pointer_binop("/", a, b)
        if ca is float or cb is float:
            I.cycles += _C_FDIV
            if b == 0:
                raise InterpreterError("division by zero")
            return a / b
        I.cycles += _C_IDIV
        if b == 0:
            raise InterpreterError("division by zero")
        quotient = abs(a) // abs(b)
        return quotient if (a < 0) == (b < 0) else -quotient
    return run


def _make_mod(left_c, right_c):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        a = left_c(I, F)
        b = right_c(I, F)
        ca = a.__class__
        cb = b.__class__
        if ca is _P or cb is _P:
            return I._pointer_binop("%", a, b)
        if ca is float or cb is float:
            I.cycles += _C_FDIV
            if b == 0:
                raise InterpreterError("modulo by zero")
            return math.fmod(a, b)
        I.cycles += _C_IDIV
        if b == 0:
            raise InterpreterError("modulo by zero")
        remainder = abs(a) % abs(b)
        return remainder if a >= 0 else -remainder
    return run


def _make_cmp(left_c, right_c, cmp):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        a = left_c(I, F)
        b = right_c(I, F)
        ca = a.__class__
        cb = b.__class__
        if ca is _P or cb is _P:
            I.cycles += _C_IALU
            return 1 if cmp(a.addr if ca is _P else a,
                            b.addr if cb is _P else b) else 0
        if ca is float or cb is float:
            I.cycles += _C_FALU
        else:
            I.cycles += _C_IALU
        return 1 if cmp(a, b) else 0
    return run


def _make_intop(op, left_c, right_c, fn):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        a = left_c(I, F)
        b = right_c(I, F)
        if a.__class__ is _P or b.__class__ is _P:
            return I._pointer_binop(op, a, b)
        if a.__class__ is float or b.__class__ is float:
            I.cycles += _C_FALU
        else:
            I.cycles += _C_IALU
        return fn(a, b)
    return run


def _make_binop_generic(op, left_c, right_c):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        return I._apply_binop(op, left_c(I, F), right_c(I, F))
    return run


import operator as _op  # noqa: E402  (local helper table below)

_CMP_FNS = {"<": _op.lt, ">": _op.gt, "<=": _op.le, ">=": _op.ge,
            "==": _op.eq, "!=": _op.ne}
_INT_FNS = {
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
}


def _make_ternary(cond_c, then_c, else_c):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        I.cycles += _C_BRANCH
        v = cond_c(I, F)
        if v.__class__ is _P:
            v = v.addr != 0
        if v:
            return then_c(I, F)
        return else_c(I, F)
    return run


def _make_comma(item_cs):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        value = None
        for c in item_cs:
            value = c(I, F)
        return value
    return run


def _make_cast(inner_c, co):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        v = inner_c(I, F)
        I.cycles += _C_CAST
        return co(v)
    return run


def _make_addrof(lv, ct):
    ct = ctypes.resolve(ct)
    stride = ct.sizeof() or 4

    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        return _P(lv(I, F), stride, ct)
    return run


def _make_addrof_dyn(lv):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr, ct = lv(I, F)
        return _P(addr, ct.sizeof() or 4, ct)
    return run


def _make_deref(operand_c, site):
    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        p = operand_c(I, F)
        if p.__class__ is not _P:
            raise InterpreterError("dereference of non-pointer")
        addr = p.addr
        if addr == 0:
            raise InterpreterError("NULL pointer dereference")
        v = _ld(I, addr, site)
        if isinstance(v, int):
            pe = p.pointee
            if pe is not None and pe.__class__ is ctypes.PrimitiveType \
                    and pe.name in _FLOAT_NAMES:
                return float(v)
        return v
    return run


def _make_incdec(lv, ct, delta, postfix):
    """++x / --x / x++ / x-- with a statically-typed lvalue."""
    flt = _static_flt(ct)
    co = make_coercer(ct)
    site_r = _new_site()
    site_w = _new_site()

    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr = lv(I, F)
        old = _ld(I, addr, site_r)
        if flt and isinstance(old, int):
            old = float(old)
        I.cycles += _C_IALU
        if old.__class__ is _P:
            new = _P(old.addr + delta * old.stride, old.stride,
                     old.pointee)
        else:
            new = old + delta
        _st(I, addr, new, site_w, co)
        return old if postfix else new
    return run


def _make_incdec_dyn(lv, delta, postfix):
    site_r = _new_site()
    site_w = _new_site()

    def run(I, F, _P=Pointer):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr, ct = lv(I, F)
        old = _flt_load_conv(_ld(I, addr, site_r), ct)
        I.cycles += _C_IALU
        if old.__class__ is _P:
            new = _P(old.addr + delta * old.stride, old.stride,
                     old.pointee)
        else:
            new = old + delta
        _st_dyn(I, addr, new, site_w, ct)
        return old if postfix else new
    return run


def _make_unary_simple(op, operand_c):
    if op == "-":
        def run_neg(I, F):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            v = operand_c(I, F)
            I.cycles += _C_IALU
            return -v
        return run_neg
    if op == "+":
        def run_pos(I, F):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            v = operand_c(I, F)
            I.cycles += _C_IALU
            return v
        return run_pos
    if op == "!":
        def run_not(I, F, _P=Pointer):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            v = operand_c(I, F)
            I.cycles += _C_IALU
            if v.__class__ is _P:
                v = v.addr != 0
            return 0 if v else 1
        return run_not
    if op == "~":
        def run_inv(I, F):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            v = operand_c(I, F)
            I.cycles += _C_IALU
            return ~int(v)
        return run_inv

    def run(I, F):   # unknown unary: charge, then fail
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        operand_c(I, F)
        I.cycles += _C_IALU
        raise InterpreterError("unsupported unary operator %r" % op)
    return run


def _make_assign_static(lv, rhs_c, co, site):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr = lv(I, F)
        v = rhs_c(I, F)
        e = I._site_cache.get(site)
        if e is None or not e[0] <= addr < e[1]:
            e = I._fill_site(site, addr)
        I.cycles += e[2](addr, "write", I.cycles)
        if I._race is not None:
            I._race.record(I, addr, "write")
        v = co(v)
        I._mem_set(addr, v)
        return v
    return run


def _make_augassign_static(lv, rhs_c, subop, ct):
    flt = _static_flt(ct)
    co = make_coercer(ct)
    site_r = _new_site()
    site_w = _new_site()

    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr = lv(I, F)
        old = _ld(I, addr, site_r)
        if flt and isinstance(old, int):
            old = float(old)
        rhs = rhs_c(I, F)
        v = I._apply_binop(subop, old, rhs)
        return _st(I, addr, v, site_w, co)
    return run


def _make_assign_dyn(lv, rhs_c, site):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr, ct = lv(I, F)
        return _st_dyn(I, addr, rhs_c(I, F), site, ct)
    return run


def _make_augassign_dyn(lv, rhs_c, subop):
    site_r = _new_site()
    site_w = _new_site()

    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr, ct = lv(I, F)
        old = _flt_load_conv(_ld(I, addr, site_r), ct)
        rhs = rhs_c(I, F)
        v = I._apply_binop(subop, old, rhs)
        return _st_dyn(I, addr, v, site_w, ct)
    return run


def _make_lvalue_load(lv, ct):
    """Rvalue use of ArrayRef / MemberRef: resolve, then decay or
    load, mirroring _eval_arrayref/_eval_memberref."""
    if ct is not None:
        if isinstance(ct, ctypes.ArrayType):
            pe = ctypes.pointee(ct)
            stride = (pe.sizeof() or 4) if pe is not None else 4

            def run_decay(I, F, _P=Pointer):
                s = I.steps + 1
                I.steps = s
                if s >= I._stop:
                    I._step_event()
                return _P(lv(I, F), stride, pe)
            return run_decay
        flt = _static_flt(ct)
        site = _new_site()
        if flt:
            def run_f(I, F):
                s = I.steps + 1
                I.steps = s
                if s >= I._stop:
                    I._step_event()
                v = _ld(I, lv(I, F), site)
                if isinstance(v, int):
                    return float(v)
                return v
            return run_f

        def run(I, F):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            return _ld(I, lv(I, F), site)
        return run

    site = _new_site()

    def run_dyn(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr, ct2 = lv(I, F)
        if isinstance(ct2, ctypes.ArrayType):
            return pointer_for(ct2, addr)
        return _flt_load_conv(_ld(I, addr, site), ct2)
    return run_dyn


def _make_call_static(cf, arg_cs):
    n = len(arg_cs)
    if n == 0:
        def run0(I, F, _inv=invoke):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            return _inv(I, cf, ())
        return run0
    if n == 1:
        a0, = arg_cs

        def run1(I, F, _inv=invoke):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            return _inv(I, cf, (a0(I, F),))
        return run1
    if n == 2:
        a0, a1 = arg_cs

        def run2(I, F, _inv=invoke):
            s = I.steps + 1
            I.steps = s
            if s >= I._stop:
                I._step_event()
            v0 = a0(I, F)
            return _inv(I, cf, (v0, a1(I, F)))
        return run2

    def run(I, F, _inv=invoke):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        return _inv(I, cf, [c(I, F) for c in arg_cs])
    return run


def _make_call_named(name, arg_cs, binding):
    """Call of a statically-known name that is NOT a unit function:
    usually a builtin, possibly a variable holding a function pointer
    (``binding`` is the variable's lexical spec)."""
    def run(I, F, _inv=invoke, _BA=BoundArg, _FR=FunctionRef):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        name2 = name
        if name2 not in I.builtins:
            if binding is not None:
                kind, where, flt, site = binding
                addr = F[where] if kind == "local" \
                    else I._global_addr[where]
                if addr:
                    v = _ld(I, addr, site)
                    if flt and isinstance(v, int):
                        v = float(v)
                    if v.__class__ is _FR:
                        name2 = v.name
            if name2 is not name:
                cf = I._compiled.functions.get(name2)
                if cf is not None:
                    return _inv(I, cf, [c(I, F) for c in arg_cs])
        b = I.builtins.get(name2)
        if b is None:
            raise InterpreterError("call to unknown function %r"
                                   % name2)
        return b(I, [_BA(c, I, F) for c in arg_cs])
    return run


def _make_call_indirect(func_c, arg_cs):
    def run(I, F, _inv=invoke, _BA=BoundArg, _FR=FunctionRef):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        target = func_c(I, F)
        if target.__class__ is not _FR:
            raise InterpreterError("call through non-function value")
        name = target.name
        cf = I._compiled.functions.get(name)
        if cf is not None:
            return _inv(I, cf, [c(I, F) for c in arg_cs])
        b = I.builtins.get(name)
        if b is None:
            raise InterpreterError("call to unknown function %r" % name)
        return b(I, [_BA(c, I, F) for c in arg_cs])
    return run


def _make_sizeof_local(slot, size):
    def run(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        return size if F[slot] else 4
    return run


# ---------------------------------------------------------------------------
# lvalue builders (no step of their own, like resolve_lvalue)
# ---------------------------------------------------------------------------

def _make_lv_local(slot, name):
    def lv(I, F):
        addr = F[slot]
        if not addr:
            _undefined(name)
        return addr
    return lv


def _make_lv_global(name):
    def lv(I, F):
        return I._global_addr[name]
    return lv


def _make_lv_raise(message):
    def lv(I, F):
        raise InterpreterError(message)
    return lv


def _make_lv_deref(operand_c):
    def lv(I, F, _P=Pointer, _INT=ctypes.INT):
        p = operand_c(I, F)
        if p.__class__ is not _P:
            raise InterpreterError("dereference of non-pointer")
        return p.addr, (p.pointee or _INT)
    return lv


def _make_lv_array_static_local(slot, name, index_c, stride):
    def lv(I, F):
        s = I.steps + 1              # the base Id's evaluation step
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr = F[slot]
        if not addr:
            _undefined(name)
        i = index_c(I, F)
        I.cycles += _C_IALU          # address computation
        return addr + int(i) * stride
    return lv


def _make_lv_array_static_global(name, index_c, stride):
    def lv(I, F):
        s = I.steps + 1
        I.steps = s
        if s >= I._stop:
            I._step_event()
        addr = I._global_addr[name]
        i = index_c(I, F)
        I.cycles += _C_IALU
        return addr + int(i) * stride
    return lv


def _make_lv_array_dyn(base_c, index_c):
    def lv(I, F, _P=Pointer, _INT=ctypes.INT):
        b = base_c(I, F)
        i = index_c(I, F)
        if b.__class__ is not _P:
            raise InterpreterError("subscript of non-pointer")
        I.cycles += _C_IALU
        return b.addr + int(i) * b.stride, (b.pointee or _INT)
    return lv


def _make_lv_member_offset(inner_lv, offset):
    def lv(I, F):
        return inner_lv(I, F) + offset
    return lv


def _make_lv_member_raise(inner_lv, message):
    """The base lvalue is resolved (its steps and charges happen), then
    the member access fails."""
    def lv(I, F):
        inner_lv(I, F)
        raise InterpreterError(message)
    return lv


def _member(struct, member):
    """``(offset, ctype)`` of ``member`` in the struct type ``struct``
    (array wrappers stripped)."""
    struct = ctypes.strip_arrays(struct)
    if not isinstance(struct, ctypes.StructType):
        raise InterpreterError("member access on non-struct")
    try:
        return struct.field_offset(member), struct.field_type(member)
    except KeyError as exc:
        raise InterpreterError(exc.args[0]) from None


def _make_lv_member_arrow(base_c, member):
    def lv(I, F, _P=Pointer):
        p = base_c(I, F)
        if p.__class__ is not _P:
            raise InterpreterError("-> on non-pointer")
        offset, ct = _member(p.pointee, member)
        return p.addr + offset, ct
    return lv


def _make_lv_member_dyn(inner_lv, member):
    def lv(I, F):
        addr, ct = inner_lv(I, F)
        offset, ct = _member(ct, member)
        return addr + offset, ct
    return lv


# ---------------------------------------------------------------------------
# the per-function compiler
# ---------------------------------------------------------------------------

class _FunctionCompiler:
    """Lowers one FuncDef into closures with compile-time scoping."""

    def __init__(self, cu, cf):
        self.cu = cu
        self.cf = cf
        self.nslots = 0
        self.scopes = [{}]

    # -- compile-time scoping ------------------------------------------------

    def declare(self, name, ct):
        slot = self.nslots
        self.nslots += 1
        self.scopes[-1][name] = (slot, ct)
        return slot

    def resolve(self, name):
        for scope in reversed(self.scopes):
            entry = scope.get(name)
            if entry is not None:
                return ("local", entry[0], entry[1])
        ct = self.cu.global_types.get(name)
        if ct is not None:
            return ("global", name, ct)
        return None

    # -- entry ---------------------------------------------------------------

    def compile(self, func):
        params = []
        for param in func.params:
            if param.name is None:
                params.append((None, None, 0, None))
            else:
                slot = self.declare(param.name, param.ctype)
                params.append((slot, make_coercer(param.ctype),
                               max(param.ctype.sizeof(), 4),
                               param.name))
        body = self.compile_stmt(func.body)
        cf = self.cf
        cf.params = tuple(params)
        cf.ret_coerce = make_coercer(func.return_type)
        cf.nslots = self.nslots
        cf.body = body

    # -- statements ----------------------------------------------------------

    def compile_stmt(self, stmt):
        method = self._STMT.get(stmt.__class__)
        if method is None:
            return _make_raise_stmt("cannot execute %s"
                                    % type(stmt).__name__)
        return method(self, stmt)

    def _c_compound(self, stmt):
        self.scopes.append({})
        try:
            items = tuple(self.compile_stmt(item) for item in stmt.items)
        finally:
            self.scopes.pop()
        return _make_seq(items)

    def _c_declstmt(self, stmt):
        actions = []
        for decl in stmt.decls:
            if decl.is_typedef:
                continue
            slot = self.declare(decl.name, decl.ctype)
            size = max(decl.ctype.sizeof(), 4)
            if isinstance(decl.ctype, ctypes.ArrayType):
                if isinstance(decl.init, c_ast.InitList):
                    element = decl.ctype.base
                    init_cs = tuple(self.compile_expr(e)
                                    for e in decl.init.exprs)
                    actions.append(_make_decl_array(
                        slot, decl.name, size, init_cs,
                        decl.ctype.length or len(init_cs),
                        element.sizeof() or 4, default_value(element),
                        make_coercer(element), _new_site()))
                else:
                    actions.append(_make_decl_plain(slot, decl.name,
                                                    size))
            elif decl.init is not None:
                actions.append(_make_decl_scalar(
                    slot, decl.name, size, self.compile_expr(decl.init),
                    make_coercer(decl.ctype), _new_site()))
            else:
                actions.append(_make_decl_plain(slot, decl.name, size))
        return _make_seq(tuple(actions))

    def _c_exprstmt(self, stmt):
        return _make_exprstmt(self.compile_expr(stmt.expr))

    def _c_if(self, stmt):
        return _make_if(
            self.compile_expr(stmt.cond),
            self.compile_stmt(stmt.then),
            self.compile_stmt(stmt.els) if stmt.els is not None
            else None)

    def _c_while(self, stmt):
        body = self.compile_stmt(stmt.body)
        protect = _can_escape(stmt.body, True) \
            or _can_escape(stmt.body, False)
        return _make_while(self.compile_expr(stmt.cond), body, protect)

    def _c_dowhile(self, stmt):
        body = self.compile_stmt(stmt.body)
        protect = _can_escape(stmt.body, True) \
            or _can_escape(stmt.body, False)
        return _make_dowhile(body, self.compile_expr(stmt.cond),
                             protect)

    def _c_for(self, stmt):
        self.scopes.append({})
        try:
            init_c = self.compile_stmt(stmt.init) \
                if stmt.init is not None else None
            cond_c = self.compile_expr(stmt.cond) \
                if stmt.cond is not None else None
            body_c = self.compile_stmt(stmt.body)
            step_c = self.compile_expr(stmt.step) \
                if stmt.step is not None else None
        finally:
            self.scopes.pop()
        protect = _can_escape(stmt.body, True) \
            or _can_escape(stmt.body, False)
        return _make_for(init_c, cond_c, step_c, body_c, protect)

    def _c_return(self, stmt):
        return _make_return(self.compile_expr(stmt.expr)
                            if stmt.expr is not None else None)

    def _c_break(self, stmt):
        return _make_break()

    def _c_continue(self, stmt):
        return _make_continue()

    def _c_empty(self, stmt):
        return _make_seq(())

    def _c_switch(self, stmt):
        cond_c = self.compile_expr(stmt.cond)
        groups = []
        for item in stmt.body.items:
            if isinstance(item, c_ast.Case):
                groups.append((False, const_value(item.expr),
                               tuple(self.compile_stmt(s)
                                     for s in item.stmts)))
            elif isinstance(item, c_ast.Default):
                groups.append((True, None,
                               tuple(self.compile_stmt(s)
                                     for s in item.stmts)))
            # anything else precedes every label: dead code, skipped
        return _make_switch(cond_c, tuple(groups))

    def _c_label(self, stmt):
        inner = self.compile_stmt(stmt.stmt)
        return _make_seq((inner,))

    def _c_goto(self, stmt):
        return _make_raise_stmt("goto is not supported by the simulator")

    def _c_structdecl(self, stmt):
        return _make_seq(())

    # -- expressions ---------------------------------------------------------

    def compile_expr(self, expr):
        method = self._EXPR.get(expr.__class__)
        if method is None:
            return _make_raise_expr("cannot evaluate %s"
                                    % type(expr).__name__)
        return method(self, expr)

    def _c_id(self, expr):
        name = expr.name
        res = self.resolve(name)
        if res is None:
            if name in self.cu.functions:
                return _make_const(FunctionRef(name))
            return _make_id_late(name)
        kind, where, ct = res
        if isinstance(ct, ctypes.ArrayType):
            pe = ctypes.pointee(ct)
            stride = (pe.sizeof() or 4) if pe is not None else 4
            if kind == "local":
                return _make_id_decay_local(where, name, stride, pe)
            return _make_id_decay_global(name, stride, pe)
        flt = _static_flt(ct)
        if kind == "local":
            return _make_id_load_local(where, name, flt, _new_site())
        return _make_id_load_global(name, flt, _new_site())

    def _c_constant(self, expr):
        return _make_const(expr.value)

    def _c_string(self, expr):
        return _make_const(expr.value)

    def _c_binop(self, expr):
        op = expr.op
        if op == "&&":
            return _make_land(self.compile_expr(expr.left),
                              self.compile_expr(expr.right))
        if op == "||":
            return _make_lor(self.compile_expr(expr.left),
                             self.compile_expr(expr.right))
        left_c = self.compile_expr(expr.left)
        right_c = self.compile_expr(expr.right)
        if op == "+":
            return _make_add(left_c, right_c)
        if op == "-":
            return _make_sub(left_c, right_c)
        if op == "*":
            return _make_mul(left_c, right_c)
        if op == "/":
            return _make_div(left_c, right_c)
        if op == "%":
            return _make_mod(left_c, right_c)
        cmp = _CMP_FNS.get(op)
        if cmp is not None:
            return _make_cmp(left_c, right_c, cmp)
        fn = _INT_FNS.get(op)
        if fn is not None:
            return _make_intop(op, left_c, right_c, fn)
        return _make_binop_generic(op, left_c, right_c)

    def _c_unary(self, expr):
        op = expr.op
        if op == "&":
            operand = expr.operand
            if isinstance(operand, c_ast.Id) \
                    and self.resolve(operand.name) is None:
                if operand.name in self.cu.functions:
                    return _make_const(FunctionRef(operand.name))
                if operand.name in _ENV:
                    return _make_const(NULL)
                return _make_raise_expr("undefined identifier %r"
                                        % operand.name)
            lv, ct = self.compile_lvalue(operand)
            if ct is not None:
                return _make_addrof(lv, ct)
            return _make_addrof_dyn(lv)
        if op == "*":
            return _make_deref(self.compile_expr(expr.operand),
                               _new_site())
        if op in ("++", "--", "p++", "p--"):
            lv, ct = self.compile_lvalue(expr.operand)
            delta = 1 if "+" in op else -1
            postfix = op.startswith("p")
            if ct is not None:
                return _make_incdec(lv, ct, delta, postfix)
            return _make_incdec_dyn(lv, delta, postfix)
        if op == "sizeof":
            operand = expr.operand
            if isinstance(operand, c_ast.Id):
                res = self.resolve(operand.name)
                if res is not None:
                    size = res[2].sizeof() or 4
                    if res[0] == "local":
                        return _make_sizeof_local(res[1], size)
                    return _make_const(size)
            return _make_const(4)
        return _make_unary_simple(op, self.compile_expr(expr.operand))

    def _c_assign(self, expr):
        lv, ct = self.compile_lvalue(expr.lvalue)
        rhs_c = self.compile_expr(expr.rvalue)
        op = expr.op
        if ct is not None:
            if op == "=":
                return _make_assign_static(lv, rhs_c, make_coercer(ct),
                                           _new_site())
            return _make_augassign_static(lv, rhs_c, op[:-1], ct)
        if op == "=":
            return _make_assign_dyn(lv, rhs_c, _new_site())
        return _make_augassign_dyn(lv, rhs_c, op[:-1])

    def _c_ternary(self, expr):
        return _make_ternary(self.compile_expr(expr.cond),
                             self.compile_expr(expr.then),
                             self.compile_expr(expr.els))

    def _c_funccall(self, expr):
        arg_cs = tuple(self.compile_expr(a) for a in expr.args)
        name = expr.callee_name
        if name is None:
            return _make_call_indirect(self.compile_expr(expr.func),
                                       arg_cs)
        cf = self.cu.functions.get(name)
        if cf is not None:
            return _make_call_static(cf, arg_cs)
        res = self.resolve(name)
        binding = None
        if res is not None:
            kind, where, ct = res
            binding = (kind, where, _static_flt(ct), _new_site())
        return _make_call_named(name, arg_cs, binding)

    def _c_arrayref(self, expr):
        lv, ct = self.compile_lvalue(expr)
        return _make_lvalue_load(lv, ct)

    def _c_memberref(self, expr):
        lv, ct = self.compile_lvalue(expr)
        return _make_lvalue_load(lv, ct)

    def _c_cast(self, expr):
        return _make_cast(self.compile_expr(expr.expr),
                          make_coercer(expr.ctype))

    def _c_sizeoftype(self, expr):
        return _make_const(expr.ctype.sizeof())

    def _c_comma(self, expr):
        return _make_comma(tuple(self.compile_expr(e)
                                 for e in expr.exprs))

    # -- lvalues -------------------------------------------------------------

    def compile_lvalue(self, expr):
        """Returns (closure, static_ctype).  With a static type the
        closure returns a bare address; otherwise it returns an
        (address, ctype) pair."""
        if isinstance(expr, c_ast.Id):
            res = self.resolve(expr.name)
            if res is None:
                return (_make_lv_raise("undefined identifier %r"
                                       % expr.name), None)
            kind, where, ct = res
            if kind == "local":
                return _make_lv_local(where, expr.name), ct
            return _make_lv_global(expr.name), ct
        if isinstance(expr, c_ast.UnaryOp) and expr.op == "*":
            return _make_lv_deref(self.compile_expr(expr.operand)), None
        if isinstance(expr, c_ast.ArrayRef):
            base = expr.base
            if isinstance(base, c_ast.Id):
                res = self.resolve(base.name)
                if res is not None and isinstance(res[2],
                                                  ctypes.ArrayType):
                    kind, where, ct = res
                    element = ct.base
                    stride = element.sizeof() or 4
                    index_c = self.compile_expr(expr.index)
                    if kind == "local":
                        lv = _make_lv_array_static_local(
                            where, base.name, index_c, stride)
                    else:
                        lv = _make_lv_array_static_global(
                            base.name, index_c, stride)
                    return lv, element
            return (_make_lv_array_dyn(self.compile_expr(expr.base),
                                       self.compile_expr(expr.index)),
                    None)
        if isinstance(expr, c_ast.MemberRef):
            member = expr.member
            if expr.arrow:
                return (_make_lv_member_arrow(
                    self.compile_expr(expr.base), member), None)
            inner_lv, inner_ct = self.compile_lvalue(expr.base)
            if inner_ct is not None:
                try:
                    offset, ct = _member(inner_ct, member)
                except InterpreterError as exc:
                    return _make_lv_member_raise(inner_lv, str(exc)), None
                return _make_lv_member_offset(inner_lv, offset), ct
            return _make_lv_member_dyn(inner_lv, member), None
        if isinstance(expr, c_ast.Cast):
            return self.compile_lvalue(expr.expr)
        return (_make_lv_raise("expression is not an lvalue: %s"
                               % type(expr).__name__), None)

    _STMT = {}
    _EXPR = {}


_FunctionCompiler._STMT = {
    c_ast.Compound: _FunctionCompiler._c_compound,
    c_ast.DeclStmt: _FunctionCompiler._c_declstmt,
    c_ast.ExprStmt: _FunctionCompiler._c_exprstmt,
    c_ast.If: _FunctionCompiler._c_if,
    c_ast.While: _FunctionCompiler._c_while,
    c_ast.DoWhile: _FunctionCompiler._c_dowhile,
    c_ast.For: _FunctionCompiler._c_for,
    c_ast.Return: _FunctionCompiler._c_return,
    c_ast.Break: _FunctionCompiler._c_break,
    c_ast.Continue: _FunctionCompiler._c_continue,
    c_ast.EmptyStmt: _FunctionCompiler._c_empty,
    c_ast.Switch: _FunctionCompiler._c_switch,
    c_ast.Label: _FunctionCompiler._c_label,
    c_ast.Goto: _FunctionCompiler._c_goto,
    c_ast.StructDecl: _FunctionCompiler._c_structdecl,
}

_FunctionCompiler._EXPR = {
    c_ast.Id: _FunctionCompiler._c_id,
    c_ast.Constant: _FunctionCompiler._c_constant,
    c_ast.StringLiteral: _FunctionCompiler._c_string,
    c_ast.BinaryOp: _FunctionCompiler._c_binop,
    c_ast.UnaryOp: _FunctionCompiler._c_unary,
    c_ast.Assignment: _FunctionCompiler._c_assign,
    c_ast.TernaryOp: _FunctionCompiler._c_ternary,
    c_ast.FuncCall: _FunctionCompiler._c_funccall,
    c_ast.ArrayRef: _FunctionCompiler._c_arrayref,
    c_ast.MemberRef: _FunctionCompiler._c_memberref,
    c_ast.Cast: _FunctionCompiler._c_cast,
    c_ast.SizeofType: _FunctionCompiler._c_sizeoftype,
    c_ast.Comma: _FunctionCompiler._c_comma,
}
