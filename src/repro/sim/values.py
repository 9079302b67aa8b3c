"""Runtime value representations for the interpreter.

Scalars are plain Python ints/floats.  Pointers carry the address, the
pointee stride (for arithmetic), and whether the pointee is floating
(so loads return the right Python type).
"""

from repro.cfront import ctypes


class Pointer:
    """A typed address."""

    __slots__ = ("addr", "stride", "pointee")

    def __init__(self, addr, stride=4, pointee=None):
        self.addr = addr
        self.stride = max(stride, 1)
        self.pointee = pointee  # CType of what is pointed at, or None

    def offset(self, elements):
        return Pointer(self.addr + elements * self.stride, self.stride,
                       self.pointee)

    def __eq__(self, other):
        if isinstance(other, Pointer):
            return self.addr == other.addr
        if other in (0, None):
            return self.addr == 0
        return NotImplemented

    def __hash__(self):
        return hash(self.addr)

    def __bool__(self):
        return self.addr != 0

    def __repr__(self):
        return "Pointer(0x%x, stride=%d)" % (self.addr, self.stride)


NULL = Pointer(0, 1)


class FunctionRef:
    """A function designator value (for function pointers)."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, FunctionRef) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return "FunctionRef(%s)" % self.name


def pointer_for(ctype, addr):
    """Build a Pointer matching a declared pointer/array C type."""
    pointee = ctypes.pointee(ctype)
    if pointee is None:
        return Pointer(addr, 4, None)
    stride = pointee.sizeof() or 4
    return Pointer(addr, stride, pointee)


def default_value(ctype):
    """The zero value of a C type."""
    ctype = ctypes.resolve(ctype)
    if isinstance(ctype, ctypes.PrimitiveType) and ctype.is_floating:
        return 0.0
    if isinstance(ctype, (ctypes.PointerType, ctypes.ArrayType)):
        return NULL
    return 0


def coerce(ctype, value):
    """Convert ``value`` to the Python representation of ``ctype``."""
    if value is None:
        return default_value(ctype)
    if isinstance(ctype, ctypes.PrimitiveType):
        if ctype.is_floating:
            if isinstance(value, Pointer):
                return float(value.addr)
            return float(value)
        if ctype.is_integral:
            if isinstance(value, Pointer):
                return value.addr
            if isinstance(value, FunctionRef):
                return value
            return _truncate_int(int(value), ctype)
        return value  # void
    if isinstance(ctype, (ctypes.PointerType, ctypes.ArrayType)):
        if isinstance(value, (Pointer, FunctionRef)):
            if isinstance(value, Pointer):
                pointee = ctypes.pointee(ctype)
                if pointee is not None and not pointee.is_void:
                    return Pointer(value.addr, pointee.sizeof() or 1,
                                   pointee)
            return value
        if isinstance(value, (int, float)):
            pointee = ctypes.pointee(ctype)
            stride = (pointee.sizeof() or 1) if pointee else 1
            return Pointer(int(value), stride, pointee)
    if isinstance(ctype, ctypes.NamedType) and ctype.underlying is not None:
        return coerce(ctype.underlying, value)
    return value


_INT_BITS = {1: 8, 2: 16, 4: 32, 8: 64}


def _truncate_int(value, ctype):
    """Wrap to the C type's width (two's complement for signed)."""
    size = ctype.sizeof() or 4
    bits = _INT_BITS.get(size, 32)
    mask = (1 << bits) - 1
    value &= mask
    unsigned = ctype.name.startswith("unsigned")
    if not unsigned and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value
