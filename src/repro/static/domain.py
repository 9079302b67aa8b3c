"""The interval abstract domain for ``repro.static`` (AstréeA-style).

Values are closed intervals over the extended number line; pointers are
``(base object, element-offset interval)`` pairs so out-of-bounds checks
survive the paper benchmarks' ``double *mat = &mats[m * DIM * DIM]``
idiom.  Initialization is a three-point lattice (INIT / MAYBE_UNINIT /
UNINIT) tracked next to the value, which is how the analyzer reports
reads of uninitialized locals without a separate pass.

Soundness convention: every operation over-approximates — the concrete
result of any C expression always lies inside the abstract interval
(property-tested in ``tests/static/test_property.py``).  Integer
arithmetic is modeled over the mathematical integers, with C's
truncating division; wrap-around is *reported* (the overflow check)
rather than modeled, matching Miné's treatment of run-time errors as
check-and-continue.
"""

import math
from collections import namedtuple

from repro.cfront import ctypes

INF = float("inf")

# -- initialization lattice (INIT < MAYBE_UNINIT < UNINIT under join) --------
INIT = "init"
MAYBE_UNINIT = "maybe-uninit"
UNINIT = "uninit"

_INIT_RANK = {INIT: 0, MAYBE_UNINIT: 1, UNINIT: 2}


def join_init(a, b):
    """Join of two initialization states: uninit on *either* path makes
    the result at least maybe-uninit."""
    if a == b:
        return a
    return MAYBE_UNINIT


class Interval:
    """A closed interval [lo, hi] over the extended reals.

    Bounds are Python ints (exact) or ±inf floats; an ``Interval`` is
    never empty — emptiness (unreachable code) is represented by
    ``None`` at the environment level.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError("empty interval [%r, %r]" % (lo, hi))
        self.lo = lo
        self.hi = hi

    # -- constructors ---------------------------------------------------------

    @classmethod
    def top(cls):
        return cls(-INF, INF)

    @classmethod
    def const(cls, value):
        return cls(value, value)

    # -- predicates -----------------------------------------------------------

    @property
    def is_top(self):
        return self.lo == -INF and self.hi == INF

    @property
    def is_const(self):
        return self.lo == self.hi

    def contains(self, value):
        return self.lo <= value <= self.hi

    def contains_zero(self):
        return self.lo <= 0 <= self.hi

    def within(self, lo, hi):
        """True when every concrete value lies inside [lo, hi]."""
        return self.lo >= lo and self.hi <= hi

    # -- lattice --------------------------------------------------------------

    def join(self, other):
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other):
        """Intersection, or None when the intervals are disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def widen(self, newer):
        """Standard interval widening: any bound still moving jumps to
        infinity (condition refinement at loop branches recovers the
        finite bound on the body edge)."""
        lo = self.lo if newer.lo >= self.lo else -INF
        hi = self.hi if newer.hi <= self.hi else INF
        return Interval(lo, hi)

    # -- arithmetic -----------------------------------------------------------

    def add(self, other):
        return Interval(_ext_add(self.lo, other.lo),
                        _ext_add(self.hi, other.hi))

    def sub(self, other):
        return Interval(_ext_add(self.lo, -other.hi),
                        _ext_add(self.hi, -other.lo))

    def neg(self):
        return Interval(-self.hi, -self.lo)

    def mul(self, other):
        corners = [_ext_mul(a, b)
                   for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        return Interval(min(corners), max(corners))

    def divide(self, other, truncate=False):
        """Conservative quotient; ``truncate`` gives C's integer
        division, which rounds toward zero.  Truncation is monotone,
        so truncating each corner truncates the hull.  A divisor
        interval containing zero yields top — the division-by-zero
        *check* fires separately."""
        if other.contains_zero():
            return Interval.top()
        quotient = _ext_trunc_div if truncate else _ext_div
        corners = [quotient(a, b)
                   for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        return Interval(min(corners), max(corners))

    def mod(self, other):
        """C remainder: result has the dividend's sign and magnitude
        strictly below the divisor's (exact for two int constants)."""
        if self.is_const and other.is_const and other.lo != 0 and \
                isinstance(self.lo, int) and isinstance(other.lo, int):
            remainder = abs(self.lo) % abs(other.lo)
            return Interval.const(remainder if self.lo >= 0
                                  else -remainder)
        bound = max(abs(other.lo), abs(other.hi))
        if bound == INF or bound == 0:
            return Interval.top()
        lo = 0 if self.lo >= 0 else -(bound - 1)
        hi = 0 if self.hi <= 0 else bound - 1
        return Interval(lo, hi)

    # -- comparison refinement ------------------------------------------------

    def clamp_below(self, bound, strict):
        """Refine with ``self < bound`` (or <=): returns the meet, or
        None when no concrete value satisfies the comparison."""
        hi = bound - 1 if strict and bound != INF else bound
        return self.meet(Interval(-INF, hi))

    def clamp_above(self, bound, strict):
        lo = bound + 1 if strict and bound != -INF else bound
        return self.meet(Interval(lo, INF))

    def __eq__(self, other):
        return isinstance(other, Interval) and \
            self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return "[%s, %s]" % (_fmt(self.lo), _fmt(self.hi))


def _fmt(bound):
    if bound == INF:
        return "+inf"
    if bound == -INF:
        return "-inf"
    return "%g" % bound if isinstance(bound, float) else "%d" % bound


def _ext_add(a, b):
    if a in (INF, -INF):
        return a
    if b in (INF, -INF):
        return b
    return a + b


def _ext_mul(a, b):
    if a == 0 or b == 0:
        return 0
    if a in (INF, -INF) or b in (INF, -INF):
        return INF if (a > 0) == (b > 0) else -INF
    return a * b


def _ext_div(a, b):
    if b in (INF, -INF):
        return 0
    if a in (INF, -INF):
        return INF if (a > 0) == (b > 0) else -INF
    return a / b


def _ext_trunc_div(a, b):
    """``a / b`` rounded toward zero, exactly for int bounds."""
    if isinstance(a, int) and isinstance(b, int):
        quotient = abs(a) // abs(b)
        return quotient if (a < 0) == (b < 0) else -quotient
    quotient = _ext_div(a, b)
    return quotient if quotient in (INF, -INF) else math.trunc(quotient)


class PtrVal:
    """A pointer value: a known base object plus an element-offset
    interval (pointer arithmetic is element-scaled, like the C it
    models)."""

    __slots__ = ("base", "offset")

    def __init__(self, base, offset=None):
        self.base = base            # a (function_or_None, name) var key
        self.offset = offset if offset is not None else Interval.const(0)

    def shifted(self, delta):
        return PtrVal(self.base, self.offset.add(delta))

    def join(self, other):
        if not isinstance(other, PtrVal) or other.base != self.base:
            return None  # mixed bases: give up on offset tracking
        return PtrVal(self.base, self.offset.join(other.offset))

    def __eq__(self, other):
        return isinstance(other, PtrVal) and self.base == other.base \
            and self.offset == other.offset

    def __repr__(self):
        return "PtrVal(%s+%r)" % ("%s.%s" % (self.base[0] or "<global>",
                                             self.base[1]), self.offset)


class VarState(namedtuple("VarState", "value init",
                           defaults=(None, INIT))):
    """One variable's abstract state: a value (Interval, PtrVal, or
    None for untracked) and an initialization status.

    Immutable, like the Interval and PtrVal it holds, so environments
    share states instead of copying them: an update replaces the
    state, and assigning a field raises ``AttributeError``."""

    __slots__ = ()

    def join(self, other, widen=False):
        value = _join_values(self.value, other.value, widen)
        return VarState(value, join_init(self.init, other.init))

    def __repr__(self):
        return "VarState(%r, %s)" % (self.value, self.init)


def _join_values(a, b, widen=False):
    if a is None or b is None:
        return None
    if isinstance(a, Interval) and isinstance(b, Interval):
        return a.widen(b) if widen else a.join(b)
    if isinstance(a, PtrVal):
        return a.join(b)
    return None


class AbstractEnv:
    """The per-program-point environment: var key -> :class:`VarState`.

    A key that is absent is unknown-but-initialized (top) — globals and
    escaped storage live in the engine's flow-insensitive summary, not
    here.  States are immutable, so a copy is one shallow dict copy
    and a join keeps every state both sides share.
    """

    def __init__(self, states=None):
        self.states = dict(states) if states else {}

    def copy(self):
        return AbstractEnv(self.states)

    def get(self, key):
        return self.states.get(key)

    def set(self, key, state):
        self.states[key] = state

    def join(self, other, widen=False):
        merged = {}
        for key, mine in self.states.items():
            theirs = other.states.get(key)
            if theirs is None:
                # declared on one path only: out of scope afterwards
                merged[key] = VarState(None, mine.init)
            elif mine is theirs:
                merged[key] = mine   # joining or widening a state with itself
            else:
                merged[key] = mine.join(theirs, widen)
        for key, theirs in other.states.items():
            if key not in merged:
                merged[key] = VarState(None, theirs.init)
        return AbstractEnv(merged)

    def __eq__(self, other):
        return isinstance(other, AbstractEnv) and \
            self.states == other.states

    def __repr__(self):
        return "AbstractEnv(%d vars)" % len(self.states)


# -- C type ranges -----------------------------------------------------------

def int_type_range(ctype):
    """``(min, max)`` of a *signed* integral C type, or None when the
    type is unsigned (wrap-around is defined behaviour, not an error),
    floating, or unknown."""
    base = ctypes.strip_arrays(ctype) if ctype.is_array else ctype
    if not isinstance(base, ctypes.PrimitiveType):
        if isinstance(base, ctypes.NamedType) and base.underlying:
            return int_type_range(base.underlying)
        return None
    name = base.name
    if not base.is_integral or name == "void":
        return None
    if "unsigned" in name:
        return None
    width = base.sizeof()
    top = 1 << (width * 8 - 1)
    return (-top, top - 1)
