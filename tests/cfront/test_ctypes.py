"""C type model tests (IA-32 / ILP32 sizes)."""

import pytest

from repro.cfront import ctypes


class TestSizeof:
    @pytest.mark.parametrize("name,size", [
        ("char", 1), ("short", 2), ("int", 4), ("long", 4),
        ("long long", 8), ("float", 4), ("double", 8), ("void", 0),
        ("unsigned int", 4), ("unsigned long", 4),
    ])
    def test_primitive_sizes(self, name, size):
        assert ctypes.PrimitiveType(name).sizeof() == size

    def test_pointer_is_4_bytes(self):
        assert ctypes.PointerType(ctypes.DOUBLE).sizeof() == 4

    def test_array_size(self):
        assert ctypes.ArrayType(ctypes.INT, 3).sizeof() == 12

    def test_2d_array_size(self):
        inner = ctypes.ArrayType(ctypes.DOUBLE, 4)
        assert ctypes.ArrayType(inner, 3).sizeof() == 96

    def test_incomplete_array_size_zero(self):
        assert ctypes.ArrayType(ctypes.INT, None).sizeof() == 0

    def test_pthread_t_opaque_size(self):
        assert ctypes.NamedType("pthread_t").sizeof() == 4

    def test_pthread_mutex_t_size(self):
        assert ctypes.NamedType("pthread_mutex_t").sizeof() == 24

    def test_named_type_with_underlying(self):
        named = ctypes.NamedType("myint", ctypes.DOUBLE)
        assert named.sizeof() == 8

    def test_unknown_opaque_defaults_to_word(self):
        assert ctypes.NamedType("whatever_t").sizeof() == 4

    def test_struct_size_with_alignment(self):
        struct = ctypes.StructType("s", [("c", ctypes.CHAR),
                                         ("i", ctypes.INT)])
        assert struct.sizeof() == 8  # char padded to int boundary

    def test_union_size_is_max(self):
        union = ctypes.StructType("u", [("c", ctypes.CHAR),
                                        ("d", ctypes.DOUBLE)],
                                  is_union=True)
        assert union.sizeof() == 8

    def test_function_type_decays(self):
        ftype = ctypes.FunctionType(ctypes.INT, [ctypes.INT])
        assert ftype.sizeof() == 4

    def test_unknown_primitive_raises(self):
        with pytest.raises(ValueError):
            ctypes.PrimitiveType("quad")


class TestElementCount:
    def test_scalar(self):
        assert ctypes.INT.element_count() == 1

    def test_array(self):
        assert ctypes.ArrayType(ctypes.INT, 3).element_count() == 3

    def test_2d_array(self):
        inner = ctypes.ArrayType(ctypes.INT, 4)
        assert ctypes.ArrayType(inner, 3).element_count() == 12

    def test_pointer_is_one(self):
        assert ctypes.PointerType(ctypes.INT).element_count() == 1


class TestRendering:
    def test_simple(self):
        assert ctypes.INT.to_c("x") == "int x"

    def test_pointer(self):
        assert ctypes.PointerType(ctypes.INT).to_c("p") == "int *p"

    def test_pointer_to_pointer(self):
        ctype = ctypes.PointerType(ctypes.PointerType(ctypes.CHAR))
        assert ctype.to_c("argv") == "char **argv"

    def test_array(self):
        assert ctypes.ArrayType(ctypes.DOUBLE, 8).to_c("a") == \
            "double a[8]"

    def test_pointer_to_array_parenthesized(self):
        ctype = ctypes.PointerType(ctypes.ArrayType(ctypes.INT, 4))
        assert ctype.to_c("p") == "int (*p)[4]"

    def test_function_pointer(self):
        ftype = ctypes.FunctionType(ctypes.VOID, [ctypes.INT])
        ctype = ctypes.PointerType(ftype)
        assert ctype.to_c("handler") == "void (*handler)(int)"

    def test_function_no_params(self):
        ftype = ctypes.FunctionType(ctypes.INT, [])
        assert ftype.to_c("f") == "int f(void)"

    def test_struct_tag(self):
        struct = ctypes.StructType("point", [("x", ctypes.INT)])
        assert struct.to_c("p") == "struct point p"


class TestPredicates:
    def test_is_pointer(self):
        assert ctypes.PointerType(ctypes.INT).is_pointer
        assert not ctypes.INT.is_pointer

    def test_is_floating(self):
        assert ctypes.DOUBLE.is_floating
        assert ctypes.FLOAT.is_floating
        assert not ctypes.INT.is_floating

    def test_is_integral(self):
        assert ctypes.INT.is_integral
        assert not ctypes.DOUBLE.is_integral
        assert not ctypes.VOID.is_integral

    def test_strip_arrays(self):
        nested = ctypes.ArrayType(ctypes.ArrayType(ctypes.INT, 2), 3)
        assert ctypes.strip_arrays(nested) == ctypes.INT

    def test_pointee(self):
        assert ctypes.pointee(ctypes.PointerType(ctypes.INT)) == \
            ctypes.INT
        assert ctypes.pointee(ctypes.ArrayType(ctypes.INT, 3)) == \
            ctypes.INT
        assert ctypes.pointee(ctypes.INT) is None

    def test_named_type_resolves_arithmetic_predicates(self):
        real = ctypes.NamedType("real", ctypes.DOUBLE)
        count = ctypes.NamedType("count", ctypes.UINT)
        assert real.is_floating and not real.is_integral
        assert count.is_integral and not count.is_floating
        assert ctypes.resolve(real) == ctypes.DOUBLE
        assert ctypes.pointee(ctypes.PointerType(real)) == ctypes.DOUBLE

    def test_opaque_named_type_stays_opaque(self):
        handle = ctypes.NamedType("pthread_t")
        assert not (handle.is_floating or handle.is_integral
                    or handle.is_void)
        assert ctypes.resolve(handle) is handle
        assert handle.sizeof() == 4

    def test_equality(self):
        assert ctypes.PointerType(ctypes.INT) == \
            ctypes.PointerType(ctypes.INT)
        assert ctypes.PointerType(ctypes.INT) != \
            ctypes.PointerType(ctypes.DOUBLE)


class TestStructOffsets:
    def test_field_offsets(self):
        struct = ctypes.StructType("s", [
            ("a", ctypes.CHAR), ("b", ctypes.INT), ("c", ctypes.DOUBLE)])
        assert struct.field_offset("a") == 0
        assert struct.field_offset("b") == 4
        assert struct.field_offset("c") == 8

    def test_union_offsets_all_zero(self):
        union = ctypes.StructType("u", [("a", ctypes.INT),
                                        ("b", ctypes.DOUBLE)],
                                  is_union=True)
        assert union.field_offset("a") == 0
        assert union.field_offset("b") == 0

    def test_missing_field_raises(self):
        struct = ctypes.StructType("s", [("a", ctypes.INT)])
        with pytest.raises(KeyError):
            struct.field_offset("z")

    def test_field_type(self):
        struct = ctypes.StructType("s", [("a", ctypes.INT)])
        assert struct.field_type("a") == ctypes.INT
