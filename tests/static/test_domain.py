"""Unit tests for the interval abstract domain (repro.static.domain)."""

import pytest

from repro.cfront import ctypes
from repro.static.domain import (
    INF,
    INIT,
    MAYBE_UNINIT,
    UNINIT,
    AbstractEnv,
    Interval,
    PtrVal,
    VarState,
    int_type_range,
    join_init,
)


class TestInterval:
    def test_constructors(self):
        assert Interval.const(3) == Interval(3, 3)
        assert Interval.top().is_top
        assert Interval.const(3).is_const
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_contains(self):
        box = Interval(-2, 7)
        assert box.contains(0) and box.contains(-2) and box.contains(7)
        assert not box.contains(8)
        assert box.contains_zero()
        assert not Interval(1, 5).contains_zero()
        assert Interval(1, 5).within(0, 5)
        assert not Interval(1, 6).within(0, 5)

    def test_join_meet(self):
        assert Interval(0, 3).join(Interval(5, 9)) == Interval(0, 9)
        assert Interval(0, 5).meet(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 2).meet(Interval(3, 9)) is None

    def test_widen(self):
        grown = Interval(0, 5).widen(Interval(0, 7))
        assert grown == Interval(0, INF)
        shrunk = Interval(0, 5).widen(Interval(1, 4))
        assert shrunk == Interval(0, 5)  # stable bounds stay finite
        assert Interval(0, 5).widen(Interval(-1, 5)).lo == -INF

    def test_arithmetic(self):
        assert Interval(1, 2).add(Interval(10, 20)) == Interval(11, 22)
        assert Interval(1, 2).sub(Interval(10, 20)) == Interval(-19, -8)
        assert Interval(-3, 2).neg() == Interval(-2, 3)
        assert Interval(-2, 3).mul(Interval(-1, 4)) == Interval(-8, 12)
        assert Interval(0, INF).add(Interval.const(1)) == Interval(1, INF)
        # 0 * inf must not poison the corners
        assert Interval(0, 0).mul(Interval.top()) == Interval(0, 0)

    def test_divide(self):
        assert Interval(4, 8).divide(Interval(2, 2)) == Interval(2, 4)
        # divisor straddling zero: top (the DbZ check fires separately)
        assert Interval(4, 8).divide(Interval(-1, 1)).is_top

    def test_truncating_divide(self):
        half = Interval.const(2)
        assert Interval(7, 9).divide(half, truncate=True) == Interval(3, 4)
        assert Interval(-9, -7).divide(half, truncate=True) == \
            Interval(-4, -3)
        assert Interval(-7, 7).divide(Interval.const(-2),
                                      truncate=True) == Interval(-3, 3)
        assert Interval(1, INF).divide(half, truncate=True) == \
            Interval(0, INF)
        # exact on ints: a float quotient would round 2**60 + 1 away
        big = Interval.const(2 ** 60 + 1)
        assert big.divide(Interval.const(1), truncate=True) == big

    def test_mod(self):
        assert Interval(0, 100).mod(Interval(3, 3)) == Interval(0, 2)
        # C remainder keeps the dividend's sign
        assert Interval(-7, 7).mod(Interval(4, 4)) == Interval(-3, 3)
        assert Interval(0, 5).mod(Interval(0, 0)).is_top

    def test_mod_of_constants_is_exact(self):
        # the C remainder of two ints, signed like the dividend
        assert Interval.const(-7).mod(Interval.const(4)) == \
            Interval.const(-3)
        assert Interval.const(7).mod(Interval.const(-4)) == \
            Interval.const(3)

    def test_clamps(self):
        box = Interval(0, 100)
        assert box.clamp_below(10, strict=True) == Interval(0, 9)
        assert box.clamp_below(10, strict=False) == Interval(0, 10)
        assert box.clamp_above(90, strict=True) == Interval(91, 100)
        # infeasible comparison: the edge is dead
        assert Interval(50, 60).clamp_below(10, strict=True) is None


class TestPtrVal:
    def test_shift_and_join(self):
        ptr = PtrVal((None, "a"), Interval.const(2))
        assert ptr.shifted(Interval.const(3)).offset == Interval.const(5)
        other = PtrVal((None, "a"), Interval.const(7))
        assert ptr.join(other).offset == Interval(2, 7)

    def test_mixed_bases_lose_tracking(self):
        ptr = PtrVal((None, "a"))
        assert ptr.join(PtrVal((None, "b"))) is None
        assert ptr.join(Interval.const(0)) is None


class TestVarState:
    def test_join_inits(self):
        assert join_init(INIT, INIT) == INIT
        assert join_init(INIT, UNINIT) == MAYBE_UNINIT
        assert join_init(UNINIT, UNINIT) == UNINIT
        merged = VarState(Interval.const(1), INIT).join(
            VarState(Interval.const(4), UNINIT))
        assert merged.value == Interval(1, 4)
        assert merged.init == MAYBE_UNINIT

    def test_join_widen(self):
        merged = VarState(Interval(0, 5)).join(
            VarState(Interval(0, 9)), widen=True)
        assert merged.value == Interval(0, INF)


class TestAbstractEnv:
    def test_one_sided_declaration(self):
        left = AbstractEnv({("f", "x"): VarState(Interval.const(1),
                                                 UNINIT)})
        merged = left.join(AbstractEnv())
        # declared on one path only: value forgotten, init survives
        assert merged.get(("f", "x")).value is None
        assert merged.get(("f", "x")).init == UNINIT

    def test_copy_is_deep_enough(self):
        env = AbstractEnv({("f", "x"): VarState(Interval.const(1))})
        copied = env.copy()
        # states are shared, so they cannot be changed in place
        with pytest.raises(AttributeError):
            copied.get(("f", "x")).init = UNINIT
        copied.set(("f", "x"), VarState(Interval.const(1), UNINIT))
        assert env.get(("f", "x")).init == INIT

    def test_join_keeps_shared_states(self):
        shared = VarState(Interval(0, 3))
        left = AbstractEnv({("f", "x"): shared,
                            ("f", "y"): VarState(Interval.const(1))})
        right = left.copy()
        right.set(("f", "y"), VarState(Interval.const(5)))
        for widen in (False, True):
            merged = left.join(right, widen=widen)
            assert merged.get(("f", "x")) is shared
        assert left.join(right).get(("f", "y")).value == Interval(1, 5)


class TestIntTypeRange:
    def test_signed_widths(self):
        lo, hi = int_type_range(ctypes.PrimitiveType("int"))
        assert (lo, hi) == (-(1 << 31), (1 << 31) - 1)
        lo, hi = int_type_range(ctypes.PrimitiveType("char"))
        assert (lo, hi) == (-128, 127)

    def test_unsigned_and_float_excluded(self):
        assert int_type_range(
            ctypes.PrimitiveType("unsigned int")) is None
        assert int_type_range(ctypes.PrimitiveType("double")) is None
        assert int_type_range(ctypes.PrimitiveType("void")) is None
