"""Closure compilation of the C AST: the simulator's execution engine.

This module lowers each function body ONCE into a tree of pre-bound
Python closures: every statement/expression node becomes a small
function ``fn(I, F)`` (``I`` the :class:`~repro.sim.interpreter.
Interpreter`, ``F`` the flat frame of local-variable addresses), with

* dispatch resolved at compile time (no ``isinstance``/dict lookups on
  the hot path),
* lexical scoping resolved to integer frame slots,
* operation costs folded into pre-bound integer constants,
* one **inline cache** per access site of an array element, a member
  or a dereference: the site remembers the last resolved (window,
  cost-function) entry from
  :meth:`~repro.scc.chip.SCCChip.access_fastpath`, so repeated
  accesses to the same region skip the full address-space resolution,
* one **scalar entry** per core for every local and global scalar,
  which all lie in the core's private window: their loads and stores
  call ``I._price_scalar`` (``Interpreter._fill_scalar``) with no site
  and no window test.  While the entry's L1 is bound to ``I._sl1``
  (no faults, no race detector, the window private), a load or store
  whose line repeats the L1's last line or is its set's MRU way counts
  that L1 hit and charges ``l1_hit_cycles`` in place, since such a hit
  moves no LRU state; anything else calls the entry.  Invalidation is
  push-style: the chip drops every registered interpreter's entries
  (and ``_sl1``) whenever ``mem_epoch`` bumps (LUT reconfiguration,
  new split window), so a present entry is always valid and the hot
  path never checks an epoch stamp, and
* ``p[i]`` typed at compile time when ``p`` is a local or global
  scalar declared as a pointer to a non-void primitive or to a
  pointer: one shape takes ``p`` and ``i`` inline, checks, charges and
  computes the address as ``_make_lv_array_dyn`` does, and loads or
  stores with the pointee's static conversion and coercer while ``p``
  carries the pointee its declaration gives it.  A pointer that
  carries another (a NULL left by static initialization, a store
  through a differently typed alias) takes the run-time-typed access
  at the same site.

Every node is a *shape*: its closure is generated from source
templates, one block per piece of work (the step prologue, a charged
access, an operator, a branch), where each leaf operand is a constant,
a local or global scalar load, or any compiled child.  A constant's or
a scalar's step, charge and load then run inline in the node that
consumes it instead of behind a call.  A shape is compiled once per
process and shared by every program; see "shapes" below.

The timing contract is fixed by the goldens in ``tests/golden/sim.json``
(taken from the tree-walking interpreter this engine replaced): every
step, every cycle charge in its order, and every chip/memory side
effect is reproduced, so cycle counts, stdout and metrics match them
byte for byte.  Each statement, expression and loop iteration is one
step.  The step prologue inlined in every closure counts the step and
makes one compare, ``steps >= I._stop``; the
interpreter keeps ``_stop`` at its next step event (the next multiple
of ``TICK_STEPS``, or the step past the budget), and
``I._step_event()`` raises past the budget, ticks, and sets the next
one.  A straight-line run of k steps in one closure (steps with only
constants, branch and integer-ALU charges, scalar addresses, scalar
loads and the int->float conversion between them) shares one
prologue: it adds k to ``steps``, stores it, and compares it with
``I._run_stop``.  A run that would reach the next step event (a tick,
the budget or a halt) gives the k steps back and runs its copy with a
prologue per step, so every event lands on the step and the cycle it
always did; any other run takes its copy without prologues.  A fault
injector's loads may raise or read ``steps`` mid-run, so with faults
``_run_stop`` stays 0 and every run takes the per-step copy.

Constructs the simulator does not support compile to closures that
raise :class:`InterpreterError` when (and only when) executed: ``goto``,
unknown AST nodes, a member the struct does not have.  So do operators
on operands the C subset rejects (two pointers added, a pointer
negated or complemented, a negative shift count), after the
operation's charge.  A non-constant ``case`` label is rejected when
its function is compiled.  An item ahead of a switch body's first
label is dead code and is skipped.  A ``break`` or ``continue`` that
escapes its function raises :class:`InterpreterError` at the call.  A
call through a function pointer resolves the target's name among the
unit's functions first, then the builtins.
"""

# The generated shapes run in this module's globals: math, ctypes,
# _arith_value, _pointer_value, pointer_for and the exceptions are
# read only by template source.
import itertools
import linecache
import math
import os
import string
import threading
import weakref

from repro.cfront import c_ast, ctypes
from repro.sim.interpreter import (
    OP_COSTS,
    Interpreter,
    InterpreterError,
    _arith_value,
    _Break,
    _Continue,
    _pointer_value,
    _Return,
    const_value,
    string_array_message,
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

# Pre-bound operation costs (builtins read OP_COSTS per charge;
# sourcing the constants from the same table keeps them aligned).
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
_INT = ctypes.INT
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


def _protect(body):
    """Must a loop catch _Break/_Continue around ``body``?"""
    return _can_escape(body, True) or _can_escape(body, False)


# ---------------------------------------------------------------------------
# shapes
#
# Every node is a shape: every closure that counts a step is generated
# from source templates.  A template takes each leaf operand in one of
# these modes:
#
#     ("k", value)                       a constant
#     ("l", slot, name, flt, None)       a local scalar load
#     ("g", name, flt, None)             a global scalar load
#     ("c", closure)                     any compiled child
#
# (and, standing alone, ("v", closure, flt, site) or ("d", closure,
# flt, site): a load through an lvalue closure; ("s", p, i, pe, flt,
# site): ``p[i]`` typed at compile time, ``p`` and ``i`` operands and
# ``pe`` the pointee ``p`` is declared with).  A target or an address
# is an lvalue in one of the modes ("l", slot, name, ...), a local
# scalar; ("g", name, ...), a global scalar; ("s", p, i, pe, ...), a
# typed subscript; ("v", closure, ...), any lvalue of static type; or
# ("d", closure), one typed at run time.  An update's lvalue carries
# the load's float conversion and the store's coercer: ("l", slot,
# name, flt, co), ("g", name, flt, co), ("s", p, i, pe, flt, co),
# ("v", closure, flt, co).  A scalar has no site: the core's scalar
# entry prices it.  A constant's or a scalar's step prologue, charge
# and load run inline in the consumer instead of behind a call.  Each
# node still counts its own step where its closure would have, so
# ticks, the budget and a halt land on the same step, and charges
# keep their order.  The steps of a straight-line run share one
# prologue when rendered (_Shape.source); the blocks stay one per
# step, so the run's per-step copy is the closure as it would be
# without runs.
#
# A shape is its name and its blocks; a block is a template, its
# depth, and its fields' values: a variable name of the generated code,
# or the index of a parameter of the shape's factory.  That tuple keys
# the factory, so finding it renders nothing.  The source names no
# constant, slot, site or closure: those are the factory's parameters.
# So programs share shapes, and each shape is rendered and compiled
# once per process, under _UNIT_CACHE_LOCK.  A shape's file name,
# ``sim/<shape>-<n>/../compile.py``, resolves to this file, so host
# profiles charge generated code to the dispatch layer; linecache
# holds its source, so a traceback quotes the generated line.
# ---------------------------------------------------------------------------

class _Template:
    """Source text with named fields.  A field in ``names`` is filled
    per block: a variable of the generated code, or a step count a
    run renders; one in ``params`` is a parameter of the shape's
    factory, numbered in the order the shape's blocks are emitted and
    bound to the node's values."""

    __slots__ = ("text", "names", "params")

    def __init__(self, text, names=(), params=()):
        found = {field for _, field, _, _ in string.Formatter().parse(text)
                 if field}
        if found != set(names) | set(params) or set(names) & set(params):
            raise ValueError("template fields %s, declared %s and %s"
                             % (sorted(found), names, params))
        self.text = text
        self.names = names
        self.params = params


# (name, blocks) -> the shape's factory, which carries its rendered
# source as ``make.source``
_SHAPES = {}

_STEP = _Template("""\
s = I.steps + 1
I.steps = s
if s >= I._stop:
    I._step_event()""")
# the prologue of a straight-line run of {count} steps: it counts them
# all, then takes the copy of the run with a prologue per step if the
# run would reach the next step event, and the copy without otherwise
_RUN_STEPS = _Template("""\
s = I.steps + {count}
I.steps = s
if s >= I._run_stop:
    I.steps = s - {count}""", ("count",))

# one charged access through the site's inline cache; with a race
# detector attached, the entry's cost function also records the access
# (Interpreter._fill_site)
_ACCESS = """\
e = I._site_cache.get({site})
if e is None or not e[0] <= {addr} < e[1]:
    e = I._fill_site({site}, {addr})
I.cycles += e[2]({addr}, "{kind}")"""
# a local or global scalar's access: every one lies in the core's
# private window, which the core's one scalar entry prices
# (Interpreter._fill_scalar), so it has no site and no window test.
# While the entry's L1 is bound to ``I._sl1``, a hit on the L1's last
# line or on its set's MRU way moves no LRU state, so the access counts
# and charges it here; any other access calls the entry
_SCALAR_ACCESS = """\
l1 = I._sl1
if l1 is None:
    I.cycles += I._price_scalar({addr}, "{kind}")
else:
    line = {addr} // l1.line_size
    if line == l1.last_line:
        l1.stats.hits += 1
        I.cycles += I._l1_hit
    else:
        ways = l1.sets.get(line % l1.num_sets)
        if ways is not None and ways[-1] == line // l1.num_sets:
            l1.last_line = line
            l1.stats.hits += 1
            I.cycles += I._l1_hit
        else:
            I.cycles += I._price_scalar({addr}, "{kind}")"""

_LOAD_TEXT = """
{var} = I._mem_get({addr}, 0)"""
_STORE_TEXT = """
{out} = {co}({var})
I._mem_set({addr}, {out})"""
_LOAD = _Template(_ACCESS.replace("{kind}", "read") + _LOAD_TEXT,
                  ("addr", "var"), ("site",))
_STORE = _Template(_ACCESS.replace("{kind}", "write") + _STORE_TEXT,
                   ("addr", "out", "var"), ("site", "co"))
_STORE_DYN = _Template(_STORE.text.replace("{co}({var})",
                                           "coerce(ct, {var})"),
                       ("addr", "out", "var"), ("site",))
_SCALAR_LOAD = _Template(_SCALAR_ACCESS.replace("{kind}", "read")
                         + _LOAD_TEXT, ("addr", "var"))
# a scalar load through the entry alone, which prices the hits the
# test above takes in place as that test does: the per-step copy of a
# straight-line run, taken by about one run in a hundred without
# faults (and by every run with them, when ``_sl1`` is None), loads
# with it, which keeps the generated source short
_ENTRY_LOAD = _Template('I.cycles += I._price_scalar({addr}, "read")'
                        + _LOAD_TEXT, ("addr", "var"))
_SCALAR_STORE = _Template(_SCALAR_ACCESS.replace("{kind}", "write")
                          + _STORE_TEXT, ("addr", "out", "var"), ("co",))

_LOCAL_ADDR = _Template("""\
{addr} = F[{slot}]
if not {addr}:
    _undefined({name})""", ("addr",), ("slot", "name"))
# the same inside a run's copy without prologues: the run counted its
# steps ahead, so it gives back those it had not reached before the
# error
_RUN_LOCAL_ADDR = _Template(_LOCAL_ADDR.text.replace(
    "    _undefined", "    I.steps -= {unreached}\n    _undefined"),
    ("addr", "unreached"), ("slot", "name"))
_GLOBAL_ADDR = _Template("{addr} = I._global_addr[{name}]", ("addr",),
                         ("name",))
_LV_ADDR = _Template("{addr} = {lv}(I, F)", ("addr",), ("lv",))
_LV_ADDR_DYN = _Template("{addr}, ct = {lv}(I, F)", ("addr",), ("lv",))
# an array typed at run time decays instead of loading
_DYN_DECAY = _Template("""\
if isinstance(ct, ctypes.ArrayType):
    {var} = pointer_for(ct, {addr})
else:""", ("var", "addr"))

_TO_FLOAT = _Template("""\
if isinstance({var}, int):
    {var} = float({var})""", ("var",))
# the int->float load conversion for a type known at run time
_DYN_FLOAT = _Template("""\
if isinstance({var}, int) and ct.__class__ is ctypes.PrimitiveType \\
        and ct.name in _FLOAT_NAMES:
    {var} = float({var})""", ("var",))

_CONST = _Template("{var} = {k}", ("var",), ("k",))
_CALL = _Template("{var} = {fn}(I, F)", ("var",), ("fn",))
_RUN = _Template("{fn}(I, F)", (), ("fn",))
_RUN_ALL = _Template("for c in {fns}:\n    c(I, F)", (), ("fns",))
_RETURN = _Template("return {var}", ("var",))
_RAISE = _Template("raise {exc}", ("exc",))
_BRANCH = _Template("I.cycles += _C_BRANCH")
_TRUTH_TEXT = """\
if {var}.__class__ is _P:
    {var} = {var}.addr != 0"""
_TRUTH = _Template(_TRUTH_TEXT, ("var",))

# binary operators: charge ``a op b`` and leave its value in ``r``
_ADD = """\
ca = a.__class__
cb = b.__class__
if ca is _P or cb is _P:
    I.cycles += _C_IALU
    if cb is not _P:
        r = _P(a.addr + int(b) * a.stride, a.stride, a.pointee)
    elif ca is not _P:
        r = _P(b.addr + int(a) * b.stride, b.stride, b.pointee)
    else:
        raise InterpreterError("cannot add two pointers")
elif ca is float or cb is float:
    I.cycles += _C_FALU
    r = a + b
else:
    I.cycles += _C_IALU
    r = a + b"""

_SUB = """\
ca = a.__class__
cb = b.__class__
if ca is _P or cb is _P:
    I.cycles += _C_IALU
    if cb is not _P:
        r = _P(a.addr - int(b) * a.stride, a.stride, a.pointee)
    elif ca is _P:
        r = (a.addr - b.addr) // a.stride
    else:
        raise InterpreterError("cannot subtract pointer from int")
elif ca is float or cb is float:
    I.cycles += _C_FALU
    r = a - b
else:
    I.cycles += _C_IALU
    r = a - b"""

_MUL = """\
ca = a.__class__
cb = b.__class__
if ca is _P or cb is _P:
    I.cycles += _C_IALU
    r = _pointer_value("*", a, b)
elif ca is float or cb is float:
    I.cycles += _C_FMUL
    r = a * b
else:
    I.cycles += _C_IMUL
    r = a * b"""

_DIV = """\
ca = a.__class__
cb = b.__class__
if ca is _P or cb is _P:
    I.cycles += _C_IALU
    r = _pointer_value("/", a, b)
elif ca is float or cb is float:
    I.cycles += _C_FDIV
    if b == 0:
        raise InterpreterError("division by zero")
    r = a / b
else:
    I.cycles += _C_IDIV
    if b == 0:
        raise InterpreterError("division by zero")
    r = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        r = -r"""

_MOD = """\
ca = a.__class__
cb = b.__class__
if ca is _P or cb is _P:
    I.cycles += _C_IALU
    r = _pointer_value("%", a, b)
elif ca is float or cb is float:
    I.cycles += _C_FDIV
    if b == 0:
        raise InterpreterError("modulo by zero")
    r = math.fmod(a, b)
else:
    I.cycles += _C_IDIV
    if b == 0:
        raise InterpreterError("modulo by zero")
    r = abs(a) % abs(b)
    if a < 0:
        r = -r"""

_CMP = """\
ca = a.__class__
cb = b.__class__
if ca is _P or cb is _P:
    I.cycles += _C_IALU
    r = 1 if (a.addr if ca is _P else a) {op} \\
        (b.addr if cb is _P else b) else 0
elif ca is float or cb is float:
    I.cycles += _C_FALU
    r = 1 if a {op} b else 0
else:
    I.cycles += _C_IALU
    r = 1 if a {op} b else 0"""

_BITS = """\
if a.__class__ is _P or b.__class__ is _P:
    I.cycles += _C_IALU
    r = _pointer_value("{op}", a, b)
elif a.__class__ is float or b.__class__ is float:
    I.cycles += _C_FALU
    r = int(a) {op} int(b)
else:
    I.cycles += _C_IALU
    r = int(a) {op} int(b)"""

# a shift: its count is checked after the charge
_SHIFT = _BITS.replace("    r = int(a) {op} int(b)", """\
    r = int(a)
    n = int(b)
    if n < 0:
        raise InterpreterError("negative shift count")
    r = r {op} n""")

# an operator the parser never produces: charged, then rejected
_OTHER = _Template("""\
if a.__class__ is _P or b.__class__ is _P:
    I.cycles += _C_IALU
    r = _pointer_value({op}, a, b)
elif a.__class__ is float or b.__class__ is float:
    I.cycles += _C_FALU
    r = _arith_value({op}, a, b)
else:
    I.cycles += _C_IALU
    r = _arith_value({op}, a, b)""", (), ("op",))

_COMPARISONS = ("<", ">", "<=", ">=", "==", "!=")
_BINOPS = {"+": ("add", _ADD), "-": ("sub", _SUB), "*": ("mul", _MUL),
           "/": ("div", _DIV), "%": ("mod", _MOD)}
for _name, _op in zip(("lt", "gt", "le", "ge", "eq", "ne"), _COMPARISONS):
    _BINOPS[_op] = (_name, _CMP.replace("{op}", _op))
for _name, _op in zip(("and", "or", "xor"), ("&", "|", "^")):
    _BINOPS[_op] = (_name, _BITS.replace("{op}", _op))
for _name, _op in zip(("shl", "shr"), ("<<", ">>")):
    _BINOPS[_op] = (_name, _SHIFT.replace("{op}", _op))
_BINOPS = {op: (name, _Template(text))
           for op, (name, text) in _BINOPS.items()}

# ++/--: the old value is in ``a``
_INCDEC = _Template("""\
I.cycles += _C_IALU
if a.__class__ is _P:
    r = _P(a.addr + {delta} * a.stride, a.stride, a.pointee)
else:
    r = a + {delta}""", (), ("delta",))

# unary operators: the operand is in ``v``, charged; the value in ``r``
_CHARGE_IALU = _Template("I.cycles += _C_IALU")
_UNARY = {
    "-": ("neg", _Template("""\
if v.__class__ is _P:
    raise InterpreterError("unary - on a pointer")
r = -v""")),
    "+": ("pos", _Template("r = v")),
    "!": ("not", _Template(_TRUTH_TEXT.format(var="v")
                           + "\nr = 0 if v else 1")),
    "~": ("inv", _Template("""\
if v.__class__ is _P:
    raise InterpreterError("unary ~ on a pointer")
r = ~int(v)""")),
}
_UNARY_OTHER = _Template(
    'raise InterpreterError("unsupported unary operator %r" % {op})', (),
    ("op",))

_CAST = _Template("I.cycles += _C_CAST\nreturn {co}(v)", (), ("co",))
_ELEM = _Template("""\
I.cycles += _C_IALU
try:
    return addr + int(i) * {stride}
except TypeError:
    raise InterpreterError("array subscript is not an integer") from None""",
                  (), ("stride",))
_POINTER = _Template("return _P(addr, {stride}, {pe})", (),
                     ("stride", "pe"))
_POINTER_DYN = _Template("return _P(addr, ct.sizeof() or 4, ct)")
_DEREF = _Template("""\
if p.__class__ is not _P:
    raise InterpreterError("dereference of non-pointer")
addr = p.addr
if addr == 0:
    raise InterpreterError("NULL pointer dereference")""")
# the pointee's type, known at run time; a pointer without one is
# taken as an int's, as _make_lv_deref takes it
_POINTEE = _Template("ct = p.pointee or _INT")
# ``p[i]`` with ``p`` and ``i`` inline: the checks, the charge and the
# address arithmetic of _make_lv_array_dyn
_SUBSCRIPT = _Template("""\
if p.__class__ is not _P:
    raise InterpreterError("subscript of non-pointer")
I.cycles += _C_IALU
try:
    {addr} = p.addr + int(i) * p.stride
except TypeError:
    raise InterpreterError("array subscript is not an integer") from None""",
                       ("addr",))
# ``p`` holds the pointee its declaration gives it (every coerced store
# into ``p`` carries that ctype object), so the element has its static
# type; otherwise the pointee decides at run time, as in
# _make_lv_array_dyn
_TYPED = _Template("if p.pointee is {pe}:", (), ("pe",))
_SHORT_AND = _Template("if not {var}:\n    return 0", ("var",))
_SHORT_OR = _Template("if {var}:\n    return 1", ("var",))
_BOOL = _Template("return 1 if {var} else 0", ("var",))
_IF = _Template("if {var}:", ("var",))
_ELSE = _Template("else:")

_LOOP = _Template("while True:")
_EXIT_UNLESS = _Template("if not {var}:\n    break", ("var",))
_PROTECTED = _Template("""\
try:
    {body}(I, F)
except _Break:
    break
except _Continue:
    pass""", (), ("body",))

_ALLOC = _Template("""\
addr = I.stack.alloc({size})
F[{slot}] = addr
if I._race is not None:
    I._race.register({name}, addr, {size}, "local", I.current_function)""",
                   (), ("size", "slot", "name"))
# an array's initializer list: every element stored, charged, in order
_ARRAY_INIT = _Template("""\
values = [c(I, F) for c in {inits}]
for k in range({length}):
    p = addr + k * {stride}
""" + "\n".join("    " + line for line in _STORE.text.format(
    site="{site}", addr="p", out="w", co="{co}",
    var="values[k] if k < {count} else {default}").split("\n")),
    (), ("inits", "length", "stride", "site", "co", "count", "default"))

_SWITCH = _Template("""\
matched = False
try:
    for is_default, marker, stmts in {groups}:
        if not matched:
            if is_default or marker == {var}:
                matched = True
        if matched:
            for c in stmts:
                c(I, F)
except _Break:
    pass""", ("var",), ("groups",))

_CALL_ARGS = _Template("return invoke(I, {cf}, ({args}))", ("args",),
                       ("cf",))
# a call resolved at run time: a unit function gets its arguments
# evaluated, a builtin gets them as lazy thunks
_CALLEE = _Template("callee = {name}", (), ("name",))
_IF_NOT_BUILTIN = _Template("if callee not in I.builtins:")
_LOCAL_BINDING = _Template("addr = F[{slot}]", (), ("slot",))
_IF_ADDR = _Template("if addr:")
_FUNCTION_VALUE = _Template(
    "if v.__class__ is FunctionRef:\n    callee = v.name")
_IF_RENAMED = _Template("if callee is not {name}:", (), ("name",))
_FUNCTION_CHECK = _Template("""\
if t.__class__ is not FunctionRef:
    raise InterpreterError("call through non-function value")""")
_DISPATCH = _Template("""\
cf = I._compiled.functions.get({callee})
if cf is not None:
    return invoke(I, cf, [c(I, F) for c in {args}])""", ("callee",),
                      ("args",))
_BUILTIN = _Template("""\
b = I.builtins.get({callee})
if b is None:
    raise InterpreterError("call to unknown function %r" % {callee})
return b(I, [BoundArg(c, I, F) for c in {args}])""", ("callee",),
                     ("args",))

_LATE = _Template("""\
if {name} in I.builtins:
    return FunctionRef({name})
if {name} in _ENV:
    return _ENV[{name}]
raise InterpreterError("undefined identifier %r" % {name})""", (),
                  ("name",))
_SIZEOF = _Template("return {size} if F[{slot}] else 4", (),
                    ("size", "slot"))
_FAIL = _Template("raise InterpreterError({message})", (), ("message",))


# the blocks a straight-line run of steps may hold besides its steps:
# none calls a child closure, reads ``steps`` or raises, except a local
# address, which gives the unreached steps back first (_RUN_LOCAL_ADDR)
_IN_RUN = frozenset((_CONST, _BRANCH, _CHARGE_IALU, _LOCAL_ADDR,
                     _GLOBAL_ADDR, _SCALAR_LOAD, _TO_FLOAT))


def _run_length(blocks, start):
    """``(blocks, steps)`` of the straight-line run at ``blocks[start]``:
    from that _STEP to the last _STEP before a block at another depth
    or one a run may not hold."""
    depth = blocks[start][0]
    length = steps = 0
    for index in range(start, len(blocks)):
        block_depth, template = blocks[index][:2]
        if block_depth != depth:
            break
        if template is _STEP:
            steps += 1
            length = index - start + 1
        elif template not in _IN_RUN:
            break
    return length, steps


class _Shape:
    """One generated closure under construction: its blocks, each a
    template at a depth with the names of its variables, and the
    values of its factory's parameters, in emission order."""

    __slots__ = ("blocks", "values")

    def __init__(self, step=True):
        self.blocks = [(0, _STEP, ())] if step else []
        self.values = []

    def emit(self, depth, template, names=(), *values):
        """Add a block: ``names`` fill the template's ``names``,
        ``values`` bind its ``params``."""
        self.blocks.append((depth, template, names))
        self.values += values

    def source(self, name):
        """The factory's source.  A straight-line run of two or more
        steps (see _run_length) counts them under one prologue, then
        runs either its blocks as they are, each step with its own
        prologue and each scalar load through the entry, when it would
        reach the next step event (a tick, the budget or a halt:
        ``I._run_stop``), or its blocks without their steps."""
        params = []
        blocks = []
        for depth, template, names in self.blocks:
            fields = dict(zip(template.names, names))
            for field in template.params:
                fields[field] = "%s%d" % (field, len(params))
                params.append(fields[field])
            blocks.append((depth, template, fields))
        lines = ["def make(%s):" % ", ".join(params),
                 "    def %s(I, F, _P=Pointer):" % name]

        def render(depth, template, fields):
            pad = "    " * (depth + 2)
            lines.extend(pad + line for line in
                         template.text.format(**fields).split("\n"))

        index = 0
        while index < len(blocks):
            depth, template, fields = blocks[index]
            steps = 0
            if template is _STEP:
                length, steps = _run_length(blocks, index)
            if steps < 2:
                render(depth, template, fields)
                index += 1
                continue
            run = blocks[index:index + length]
            index += length
            render(depth, _RUN_STEPS, {"count": steps})
            for _, template, fields in run:
                render(depth + 1, _ENTRY_LOAD if template is _SCALAR_LOAD
                       else template, fields)
            if len(run) == steps:
                continue
            render(depth, _ELSE, {})
            reached = 0
            for _, template, fields in run:
                if template is _STEP:
                    reached += 1
                elif template is _LOCAL_ADDR:
                    render(depth + 1, _RUN_LOCAL_ADDR,
                           dict(fields, unreached=steps - reached))
                else:
                    render(depth + 1, template, fields)
        lines.append("    return %s\n" % name)
        return "\n".join(lines)

    def build(self, name):
        """The closure: the shape's factory (rendered and compiled on
        first use) applied to this node's values."""
        key = (name, tuple(self.blocks))
        make = _SHAPES.get(key)
        if make is None:
            source = self.source(name)
            # a name of its own that resolves to this file: tracebacks
            # quote the shape's lines, profiles see compile.py
            filename = os.path.join(os.path.dirname(__file__), "%s-%d"
                                    % (name, len(_SHAPES)), os.pardir,
                                    os.path.basename(__file__))
            linecache.cache[filename] = (len(source), None,
                                         source.splitlines(True), filename)
            namespace = {}
            exec(compile(source, filename, "exec"), globals(), namespace)
            make = _SHAPES[key] = namespace["make"]
            make.source = source
        return make(*self.values)


def _emit_addr(shape, depth, lv, addr):
    """Leave an lvalue's address in ``addr`` (and, typed at run time,
    its type in ``ct``); returns its mode letter (a typed subscript's
    is followed by its two operands' letters)."""
    mode = lv[0]
    if mode == "l":
        shape.emit(depth, _LOCAL_ADDR, (addr,), lv[1], lv[2])
    elif mode == "g":
        shape.emit(depth, _GLOBAL_ADDR, (addr,), lv[1])
    elif mode == "s":
        mode += (_emit_operand(shape, depth, "p", lv[1])
                 + _emit_operand(shape, depth, "i", lv[2]))
        shape.emit(depth, _SUBSCRIPT, (addr,))
    else:
        shape.emit(depth, _LV_ADDR_DYN if mode == "d" else _LV_ADDR,
                   (addr,), lv[1])
    return mode


def _emit_guarded(shape, depth, lv, emit):
    """A typed subscript's access: ``emit(depth, lvalue)`` with the
    static type, ``("v", ...)``, when ``p`` carries its declared
    pointee, else with the type known at run time, ``("d",)``."""
    shape.emit(depth, _TYPED, (), lv[3])
    emit(depth + 1, ("v",) + lv[-2:])
    shape.emit(depth, _ELSE)
    shape.emit(depth + 1, _POINTEE)
    emit(depth + 1, ("d",))


def _emit_read(shape, depth, lv, site, addr, var, decay=False):
    """Charged load of ``addr`` into ``var``, with the lvalue's
    int->float conversion (a leaf operand typed at run time decays
    when it is an array: ``decay``)."""
    mode = lv[0]
    if mode == "s":
        _emit_guarded(shape, depth, lv, lambda depth, lv: _emit_read(
            shape, depth, lv, site, addr, var, decay))
        return
    if mode == "l" or mode == "g":
        shape.emit(depth, _SCALAR_LOAD, (addr, var))
    else:
        if mode == "d" and decay:
            shape.emit(depth, _DYN_DECAY, (var, addr))
            depth += 1
        shape.emit(depth, _LOAD, (addr, var), site)
    if mode == "d":
        shape.emit(depth, _DYN_FLOAT, (var,))
    elif lv[-2]:
        shape.emit(depth, _TO_FLOAT, (var,))


def _emit_store(shape, depth, lv, site, addr, var, out):
    """Store ``var`` at ``addr`` as ``out``, coerced by the lvalue's
    coercer, or by ``ct``, the target's type known at run time, for a
    "d" lvalue."""
    mode = lv[0]
    if mode == "s":
        _emit_guarded(shape, depth, lv, lambda depth, lv: _emit_store(
            shape, depth, lv, site, addr, var, out))
    elif mode == "l" or mode == "g":
        shape.emit(depth, _SCALAR_STORE, (addr, out, var), lv[-1])
    elif mode == "d":
        shape.emit(depth, _STORE_DYN, (addr, out, var), site)
    else:
        shape.emit(depth, _STORE, (addr, out, var), site, lv[-1])


def _emit_operand(shape, depth, var, operand):
    """Leave a leaf operand's value in ``var``; returns its mode letter
    (``f`` for a local with the int->float load conversion)."""
    mode = operand[0]
    if mode == "c":
        shape.emit(depth, _CALL, (var,), operand[1])
        return "c"
    shape.emit(depth, _STEP)
    if mode == "k":
        shape.emit(depth, _CONST, (var,), operand[1])
        return "k"
    addr = "p" + var
    tag = _emit_addr(shape, depth, operand, addr)
    _emit_read(shape, depth, operand, operand[-1], addr, var, decay=True)
    if mode == "l" and operand[-2]:
        return "f"
    return tag


def _emit_op_body(shape, depth, op):
    entry = _BINOPS.get(op)
    if entry is None:
        shape.emit(depth, _OTHER, (), op)
        return "op"
    shape.emit(depth, entry[1])
    return entry[0]


def _emit(shape, depth, form, var="v"):
    """Emit ``form``, a leaf operand or one of
        ("op", op, left, right)
        ("set", lvalue, rhs, site)
        ("upd", op, lvalue, rhs, read site, write site)
        ("incdec", lvalue, delta, postfix, read site, write site);
    returns the variable left holding its value and a tag naming it."""
    kind = form[0]
    if len(kind) == 1:
        return var, _emit_operand(shape, depth, var, form)
    shape.emit(depth, _STEP)
    if kind == "op":
        _, op, left, right = form
        tags = (_emit_operand(shape, depth, "a", left)
                + _emit_operand(shape, depth, "b", right))
        return "r", "%s_%s" % (_emit_op_body(shape, depth, op), tags)
    lv = form[2] if kind == "upd" else form[1]
    tags = _emit_addr(shape, depth, lv, "addr")
    if kind == "set":
        tags += _emit_operand(shape, depth, "b", form[2])
        _emit_store(shape, depth, lv, form[3], "addr", "b", "r")
        return "r", "set_" + tags
    if kind == "upd":
        _, op, lv, rhs, site_r, site_w = form
        _emit_read(shape, depth, lv, site_r, "addr", "a")
        tags += _emit_operand(shape, depth, "b", rhs)
        name = _emit_op_body(shape, depth, op)
        _emit_store(shape, depth, lv, site_w, "addr", "r", "r")
        return "r", "%s_set_%s" % (name, tags)
    _, lv, delta, postfix, site_r, site_w = form
    _emit_read(shape, depth, lv, site_r, "addr", "a")
    shape.emit(depth, _INCDEC, (), delta)
    _emit_store(shape, depth, lv, site_w, "addr", "r", "w")
    if postfix:
        return "a", "post_incdec_" + tags
    return "r", "incdec_" + tags


def _emit_cond(shape, depth, form):
    """Emit a condition and leave its C truth in the returned variable:
    a pointer tests its address (a comparison always yields 0 or 1)."""
    var, tag = _emit(shape, depth, form)
    if form[0] != "op" or form[1] not in _COMPARISONS:
        shape.emit(depth, _TRUTH, (var,))
    return var, tag


# -- expressions --------------------------------------------------------------
#
# Each builder's _Shape starts with the node's own step prologue.

def _make_expr(form):
    """A leaf operand, operator or update as a closure of its own."""
    shape = _Shape(step=False)      # the form counts its own step
    var, tag = _emit(shape, 0, form)
    shape.emit(0, _RETURN, (var,))
    return shape.build("load_" + tag if len(form[0]) == 1 else tag)


def _make_addr(lv, stride, pointee):
    """``&x``, or an array decaying to a pointer to its first element:
    a pointer to the lvalue's address."""
    shape = _Shape()
    mode = _emit_addr(shape, 0, lv, "addr")
    if mode == "d":
        shape.emit(0, _POINTER_DYN)
    else:
        shape.emit(0, _POINTER, (), stride, pointee)
    return shape.build("addr_" + mode)


def _make_elem(base, index, stride):
    """The address of an element of a local or global array: the step
    of the array's name, then the index, then the address arithmetic
    (an lvalue)."""
    shape = _Shape()
    _emit_addr(shape, 0, base, "addr")
    tag = _emit_operand(shape, 0, "i", index)
    shape.emit(0, _ELEM, (), stride)
    return shape.build("elem_%s_%s" % (base[0], tag))


def _make_deref(operand, site):
    shape = _Shape()
    tag = _emit_operand(shape, 0, "p", operand)
    shape.emit(0, _DEREF)
    shape.emit(0, _LOAD, ("addr", "v"), site)
    shape.emit(0, _POINTEE)
    shape.emit(0, _DYN_FLOAT, ("v",))
    shape.emit(0, _RETURN, ("v",))
    return shape.build("deref_" + tag)


def _make_unary(op, operand):
    """``- + ! ~``: the operand's steps, then the integer-ALU charge."""
    shape = _Shape()
    tag = _emit_operand(shape, 0, "v", operand)
    shape.emit(0, _CHARGE_IALU)
    entry = _UNARY.get(op)
    if entry is None:
        shape.emit(0, _UNARY_OTHER, (), op)
        return shape.build("unary_" + tag)
    shape.emit(0, entry[1])
    shape.emit(0, _RETURN, ("r",))
    return shape.build("%s_%s" % (entry[0], tag))


def _make_cast(operand, co):
    shape = _Shape()
    tag = _emit_operand(shape, 0, "v", operand)
    shape.emit(0, _CAST, (), co)
    return shape.build("cast_" + tag)


def _make_logic(op, left, right):
    """``&&``/``||``: the branch charge, then the left condition, then,
    unless it decides, the right one."""
    shape = _Shape()
    shape.emit(0, _BRANCH)
    var, ltag = _emit_cond(shape, 0, left)
    shape.emit(0, _SHORT_AND if op == "&&" else _SHORT_OR, (var,))
    var, rtag = _emit_cond(shape, 0, right)
    shape.emit(0, _BOOL, (var,))
    return shape.build("%s_%s_%s" % ("land" if op == "&&" else "lor",
                                     ltag, rtag))


def _make_ternary(cond, then, els):
    shape = _Shape()
    shape.emit(0, _BRANCH)
    var, tag = _emit_cond(shape, 0, cond)
    shape.emit(0, _IF, (var,))
    tags = _emit_operand(shape, 1, "r", then)
    shape.emit(0, _ELSE)
    tags += _emit_operand(shape, 1, "r", els)
    shape.emit(0, _RETURN, ("r",))
    return shape.build("ternary_%s_%s" % (tag, tags))


def _make_comma(items):
    shape = _Shape()
    tags = "".join(_emit_operand(shape, 0, "v", item) for item in items)
    shape.emit(0, _RETURN, ("v",))
    return shape.build("comma_" + tags)


def _make_call(cf, args):
    """A call of a unit function: the arguments left to right, then
    the call."""
    shape = _Shape()
    names = ["a%d" % index for index in range(len(args))]
    tags = "".join(_emit_operand(shape, 0, var, arg)
                   for var, arg in zip(names, args))
    shape.emit(0, _CALL_ARGS, ("".join(var + ", " for var in names),), cf)
    return shape.build("call_" + tags if tags else "call")


def _make_call_named(name, arg_cs, binding):
    """Call of a statically-known name that is NOT a unit function:
    usually a builtin, possibly a variable holding a function pointer
    (``binding``, the variable as a load operand, which names a unit
    function or a builtin at run time)."""
    shape = _Shape()
    shape.emit(0, _CALLEE, (), name)
    if binding is None:
        shape.emit(0, _BUILTIN, ("callee",), arg_cs)
        return shape.build("builtin")
    shape.emit(0, _IF_NOT_BUILTIN)
    if binding[0] == "l":
        shape.emit(1, _LOCAL_BINDING, (), binding[1])
    else:
        _emit_addr(shape, 1, binding, "addr")
    shape.emit(1, _IF_ADDR)
    _emit_read(shape, 2, binding, binding[-1], "addr", "v")
    shape.emit(2, _FUNCTION_VALUE)
    shape.emit(1, _IF_RENAMED, (), name)
    shape.emit(2, _DISPATCH, ("callee",), arg_cs)
    shape.emit(0, _BUILTIN, ("callee",), arg_cs)
    return shape.build("fnvar")


def _make_call_ptr(func, arg_cs):
    shape = _Shape()
    tag = _emit_operand(shape, 0, "t", func)
    shape.emit(0, _FUNCTION_CHECK)
    shape.emit(0, _DISPATCH, ("t.name",), arg_cs)
    shape.emit(0, _BUILTIN, ("t.name",), arg_cs)
    return shape.build("call_ptr_" + tag)


def _make_late(name):
    """An identifier unresolvable at compile time: a builtin's
    FunctionRef or an environment constant, decided at run time
    (builtins depend on the attached runtime)."""
    shape = _Shape()
    shape.emit(0, _LATE, (), name)
    return shape.build("late")


def _make_sizeof(slot, size):
    """``sizeof x`` of a local: its size once its declaration ran."""
    shape = _Shape()
    shape.emit(0, _SIZEOF, (), size, slot)
    return shape.build("sizeof")


def _make_fail(message):
    """A construct the simulator does not support: fails when reached."""
    shape = _Shape()
    shape.emit(0, _FAIL, (), message)
    return shape.build("fail")


# -- statements ---------------------------------------------------------------

def _make_seq(items):
    """A block: up to three statements called in line, a longer one in
    a loop (so few shapes cover every length)."""
    shape = _Shape()
    if len(items) > 3:
        shape.emit(0, _RUN_ALL, (), items)
    else:
        for item in items:
            shape.emit(0, _RUN, (), item)
    return shape.build("seq")


def _make_exprstmt(form):
    shape = _Shape()
    return shape.build("stmt_" + _emit(shape, 0, form)[1])


def _make_if(cond, then_c, else_c):
    shape = _Shape()
    shape.emit(0, _BRANCH)
    var, tag = _emit_cond(shape, 0, cond)
    shape.emit(0, _IF, (var,))
    shape.emit(1, _RUN, (), then_c)
    if else_c is not None:
        shape.emit(0, _ELSE)
        shape.emit(1, _RUN, (), else_c)
    return shape.build("if_" + tag)


def _emit_body(shape, depth, body_c, protect):
    """Run a loop body, catching break and continue when it may raise
    them."""
    shape.emit(depth, _PROTECTED if protect else _RUN, (), body_c)


def _make_for(init_c, cond, step, body_c, protect):
    """``for``, and ``while`` (no init, no step)."""
    shape = _Shape()
    tags = ["for"]
    if init_c is not None:
        shape.emit(0, _RUN, (), init_c)
    shape.emit(0, _LOOP)
    shape.emit(1, _STEP)
    if cond is not None:
        shape.emit(1, _BRANCH)
        var, tag = _emit_cond(shape, 1, cond)
        shape.emit(1, _EXIT_UNLESS, (var,))
        tags.append(tag)
    _emit_body(shape, 1, body_c, protect)
    if step is not None:
        tags.append(_emit(shape, 1, step)[1])
    return shape.build("_".join(tags))


def _make_do(body_c, cond, protect):
    shape = _Shape()
    shape.emit(0, _LOOP)
    shape.emit(1, _STEP)
    _emit_body(shape, 1, body_c, protect)
    shape.emit(1, _BRANCH)
    var, tag = _emit_cond(shape, 1, cond)
    shape.emit(1, _EXIT_UNLESS, (var,))
    return shape.build("do_" + tag)


def _make_return(value):
    shape = _Shape()
    tag = _emit_operand(shape, 0, "v", value)
    shape.emit(0, _RAISE, ("_Return(v)",))
    return shape.build("ret_" + tag)


def _make_raise(exc, name):
    """``break``, ``continue`` or ``return;``: its step, then ``exc``
    (source text) raised."""
    shape = _Shape()
    shape.emit(0, _RAISE, (exc,))
    return shape.build(name)


def _make_switch(value, groups):
    shape = _Shape()
    shape.emit(0, _BRANCH)
    var, tag = _emit(shape, 0, value)
    shape.emit(0, _SWITCH, (var,), groups)
    return shape.build("switch_" + tag)


# ---------------------------------------------------------------------------
# lvalue closures (no step of their own, like resolve_lvalue; an
# element of a named array is the shape _make_elem, which counts the
# step of the array's name)
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


def _make_lv_array_dyn(base_c, index_c):
    def lv(I, F, _P=Pointer, _INT=ctypes.INT):
        b = base_c(I, F)
        i = index_c(I, F)
        if b.__class__ is not _P:
            raise InterpreterError("subscript of non-pointer")
        I.cycles += _C_IALU
        try:
            return b.addr + int(i) * b.stride, (b.pointee or _INT)
        except TypeError:
            raise InterpreterError(
                "array subscript is not an integer") from None
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

_INCDEC_OPS = ("++", "--", "p++", "p--")


def _operand_mode(fc, expr):
    """How a template takes ``expr``: "k", a constant; "l" or "g", a
    local or global scalar load; "e", an operator or update a statement
    inlines; "c", any compiled child."""
    cls = expr.__class__
    if cls is c_ast.Constant:
        return "k"
    if cls is c_ast.Id:
        res = fc.resolve(expr.name)
        if res is not None and not isinstance(res[2], ctypes.ArrayType):
            return "l" if res[0] == "local" else "g"
    elif cls is c_ast.BinaryOp:
        if expr.op != "&&" and expr.op != "||":
            return "e"
    elif cls is c_ast.Assignment or (cls is c_ast.UnaryOp
                                     and expr.op in _INCDEC_OPS):
        return "e"
    return "c"


def _scalar(name, res):
    """The lvalue of a resolved variable, without its conversion and
    coercer."""
    if res[0] == "local":
        return ("l", res[1], name)
    return ("g", name)


def _site(lv):
    """A new access site for an lvalue's load or store; None for a
    local or global scalar, which the core's scalar entry prices."""
    if lv[0] == "l" or lv[0] == "g":
        return None
    return _new_site()


def _pointee_stride(ct):
    """``(stride, pointee)`` of a pointer to an array's element."""
    pe = ctypes.pointee(ct)
    return ((pe.sizeof() or 4) if pe is not None else 4), pe


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
            return _make_fail("cannot execute %s" % type(stmt).__name__)
        return method(self, stmt)

    def _c_compound(self, stmt):
        self.scopes.append({})
        try:
            items = tuple(self.compile_stmt(item) for item in stmt.items)
        finally:
            self.scopes.pop()
        return _make_seq(items)

    def _c_declstmt(self, stmt):
        """One step, then each declaration in order: its stack slot,
        then its initializer, stored."""
        shape = _Shape()
        tags = ""
        for decl in stmt.decls:
            if decl.is_typedef:
                continue
            ct = decl.ctype
            slot = self.declare(decl.name, ct)
            shape.emit(0, _ALLOC, (), max(ct.sizeof(), 4), slot, decl.name)
            if isinstance(ct, ctypes.ArrayType):
                if isinstance(decl.init, c_ast.StringLiteral):
                    shape.emit(0, _FAIL, (), string_array_message(decl.name))
                    tags += "f"
                    continue
                if not isinstance(decl.init, c_ast.InitList):
                    tags += "p"
                    continue
                element = ct.base
                inits = tuple(self.compile_expr(e) for e in decl.init.exprs)
                shape.emit(0, _ARRAY_INIT, (), inits, ct.length or len(inits),
                           element.sizeof() or 4, _new_site(),
                           make_coercer(element), len(inits),
                           default_value(element))
                tags += "a"
            elif decl.init is not None:
                tags += _emit_operand(shape, 0, "v",
                                      self.operand(decl.init))
                shape.emit(0, _SCALAR_STORE, ("addr", "v", "v"),
                           make_coercer(ct))
            else:
                tags += "p"
        return shape.build("decl_" + tags)

    def _c_exprstmt(self, stmt):
        return _make_exprstmt(self.inline(stmt.expr))

    def _c_if(self, stmt):
        return _make_if(
            self.inline(stmt.cond),
            self.compile_stmt(stmt.then),
            self.compile_stmt(stmt.els) if stmt.els is not None
            else None)

    def _c_while(self, stmt):
        body = self.compile_stmt(stmt.body)
        return _make_for(None, self.inline(stmt.cond), None, body,
                         _protect(stmt.body))

    def _c_dowhile(self, stmt):
        body = self.compile_stmt(stmt.body)
        return _make_do(body, self.inline(stmt.cond), _protect(stmt.body))

    def _c_for(self, stmt):
        self.scopes.append({})
        try:
            init_c = self.compile_stmt(stmt.init) \
                if stmt.init is not None else None
            cond = self.inline(stmt.cond) \
                if stmt.cond is not None else None
            body_c = self.compile_stmt(stmt.body)
            step = self.inline(stmt.step) \
                if stmt.step is not None else None
        finally:
            self.scopes.pop()
        return _make_for(init_c, cond, step, body_c, _protect(stmt.body))

    def _c_return(self, stmt):
        if stmt.expr is None:
            return _make_raise("_Return(None)", "ret")
        return _make_return(self.operand(stmt.expr))

    def _c_break(self, stmt):
        return _make_raise("_Break()", "brk")

    def _c_continue(self, stmt):
        return _make_raise("_Continue()", "cont")

    def _c_empty(self, stmt):
        return _make_seq(())

    def _c_switch(self, stmt):
        value = self.inline(stmt.cond)
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
        return _make_switch(value, tuple(groups))

    def _c_label(self, stmt):
        return _make_seq((self.compile_stmt(stmt.stmt),))

    def _c_goto(self, stmt):
        return _make_fail("goto is not supported by the simulator")

    def _c_structdecl(self, stmt):
        return _make_seq(())

    # -- template operands ---------------------------------------------------

    def operand(self, expr):
        """``expr`` as a template's leaf operand."""
        mode = _operand_mode(self, expr)
        if mode == "k":
            return ("k", expr.value)
        if mode == "l" or mode == "g":
            res = self.resolve(expr.name)
            return _scalar(expr.name, res) + (_static_flt(res[2]), None)
        return ("c", self.compile_expr(expr))

    def inline(self, expr):
        """``expr`` as a statement's or a condition's template takes
        it: an operator or update inline, else a leaf operand."""
        if _operand_mode(self, expr) == "e":
            return self.form(expr)
        return self.operand(expr)

    def form(self, expr):
        """The template form of an operator or update (see _emit)."""
        cls = expr.__class__
        if cls is c_ast.BinaryOp:
            return ("op", expr.op, self.operand(expr.left),
                    self.operand(expr.right))
        if cls is c_ast.Assignment:
            lv = self.lvalue(expr.lvalue)
            rhs = self.operand(expr.rvalue)
            if expr.op == "=":
                return ("set", lv, rhs, _site(lv))
            return ("upd", expr.op[:-1], lv, rhs, _site(lv), _site(lv))
        op = expr.op
        lv = self.lvalue(expr.operand)
        return ("incdec", lv, 1 if "+" in op else -1, op.startswith("p"),
                _site(lv), _site(lv))

    def address(self, expr):
        """``expr``'s address as a template takes it (a scalar
        variable inline, else its lvalue closure), and its static type
        (None when known only at run time)."""
        mode = _operand_mode(self, expr)
        if mode == "l" or mode == "g":
            res = self.resolve(expr.name)
            return _scalar(expr.name, res), res[2]
        lv, ct = self.compile_lvalue(expr)
        return ("d" if ct is None else "v", lv), ct

    def lvalue(self, expr):
        """An update's target as a template takes it."""
        sub = self.subscript(expr)
        if sub is not None:
            return sub + (_static_flt(sub[3]), make_coercer(sub[3]))
        lv, ct = self.address(expr)
        if ct is None:
            return lv
        return lv + (_static_flt(ct), make_coercer(ct))

    def subscript(self, expr):
        """``p[i]`` typed at compile time, ("s", p, i, pointee) with
        ``p`` and ``i`` as operands, when ``p`` is a local or global
        scalar declared as a pointer to a non-void primitive or to a
        pointer; else None.  ``&p[i]`` keeps the run-time-typed
        lvalue."""
        if expr.__class__ is not c_ast.ArrayRef:
            return None
        mode = _operand_mode(self, expr.base)
        if mode != "l" and mode != "g":
            return None
        ct = ctypes.resolve(self.resolve(expr.base.name)[2])
        pe = ctypes.pointee(ct) if isinstance(ct, ctypes.PointerType) \
            else None
        if not isinstance(pe, ctypes.PointerType) and not (
                isinstance(pe, ctypes.PrimitiveType) and not pe.is_void):
            return None
        return ("s", self.operand(expr.base), self.operand(expr.index), pe)

    # -- expressions ---------------------------------------------------------

    def compile_expr(self, expr):
        method = self._EXPR.get(expr.__class__)
        if method is None:
            return _make_fail("cannot evaluate %s" % type(expr).__name__)
        return method(self, expr)

    def _c_id(self, expr):
        name = expr.name
        res = self.resolve(name)
        if res is None:
            if name in self.cu.functions:
                return _make_expr(("k", FunctionRef(name)))
            return _make_late(name)
        if isinstance(res[2], ctypes.ArrayType):
            return _make_addr(_scalar(name, res), *_pointee_stride(res[2]))
        return self.load(expr)

    def _c_constant(self, expr):
        return _make_expr(("k", expr.value))

    _c_string = _c_constant

    def _c_binop(self, expr):
        op = expr.op
        if op == "&&" or op == "||":
            return _make_logic(op, self.inline(expr.left),
                               self.inline(expr.right))
        return _make_expr(self.form(expr))

    def _c_unary(self, expr):
        op = expr.op
        operand = expr.operand
        if op == "&":
            if isinstance(operand, c_ast.Id) \
                    and self.resolve(operand.name) is None:
                if operand.name in self.cu.functions:
                    return _make_expr(("k", FunctionRef(operand.name)))
                if operand.name in _ENV:
                    return _make_expr(("k", NULL))
                return _make_fail("undefined identifier %r" % operand.name)
            lv, ct = self.address(operand)
            if ct is None:
                return _make_addr(lv, None, None)
            ct = ctypes.resolve(ct)
            return _make_addr(lv, ct.sizeof() or 4, ct)
        if op == "*":
            return _make_deref(self.operand(operand), _new_site())
        if op in _INCDEC_OPS:
            return _make_expr(self.form(expr))
        if op == "sizeof":
            if isinstance(operand, c_ast.Id):
                res = self.resolve(operand.name)
                if res is not None:
                    size = res[2].sizeof() or 4
                    if res[0] == "local":
                        return _make_sizeof(res[1], size)
                    return _make_expr(("k", size))
            return _make_expr(("k", 4))
        return _make_unary(op, self.operand(operand))

    def _c_assign(self, expr):
        return _make_expr(self.form(expr))

    def _c_ternary(self, expr):
        return _make_ternary(self.inline(expr.cond),
                             self.operand(expr.then),
                             self.operand(expr.els))

    def _c_funccall(self, expr):
        name = expr.callee_name
        cf = self.cu.functions.get(name) if name is not None else None
        if cf is not None:
            return _make_call(cf, tuple(self.operand(a) for a in expr.args))
        arg_cs = tuple(self.compile_expr(a) for a in expr.args)
        if name is None:
            return _make_call_ptr(self.operand(expr.func), arg_cs)
        res = self.resolve(name)
        binding = None
        if res is not None:
            binding = _scalar(name, res) + (_static_flt(res[2]), None)
        return _make_call_named(name, arg_cs, binding)

    def load(self, expr):
        """A variable, array element or member as an rvalue: a load
        through its address, or a pointer to it when it is itself an
        array."""
        sub = self.subscript(expr)
        if sub is not None:
            return _make_expr(sub + (_static_flt(sub[3]), _new_site()))
        lv, ct = self.address(expr)
        if ct is None:
            return _make_expr(lv + (False, _new_site()))
        if isinstance(ct, ctypes.ArrayType):
            return _make_addr(lv, *_pointee_stride(ct))
        return _make_expr(lv + (_static_flt(ct), _new_site()))

    _c_arrayref = _c_memberref = load

    def _c_cast(self, expr):
        return _make_cast(self.operand(expr.expr), make_coercer(expr.ctype))

    def _c_sizeoftype(self, expr):
        return _make_expr(("k", expr.ctype.sizeof()))

    def _c_comma(self, expr):
        return _make_comma(tuple(self.operand(e) for e in expr.exprs))

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
                    element = res[2].base
                    return (_make_elem(_scalar(base.name, res),
                                       self.operand(expr.index),
                                       element.sizeof() or 4), element)
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
