"""C type model with IA-32 (SCC P54C) sizes.

Types are immutable value objects; ``sizeof`` follows the ILP32 model the
SCC's Pentium-class cores use: ``int``/``long``/pointers are 4 bytes,
``double`` is 8.  Pthread opaque types get fixed sizes so Stage 1 can fill
Table 4.1's Size column before Stage 5 removes them.
"""


class CType:
    """Base class for all C types."""

    def sizeof(self):
        raise NotImplementedError

    @property
    def is_pointer(self):
        return isinstance(self, PointerType)

    @property
    def is_array(self):
        return isinstance(self, ArrayType)

    @property
    def is_function(self):
        return isinstance(self, FunctionType)

    @property
    def is_void(self):
        return isinstance(self, PrimitiveType) and self.name == "void"

    @property
    def is_floating(self):
        return isinstance(self, PrimitiveType) and self.name in (
            "float", "double", "long double")

    @property
    def is_integral(self):
        return isinstance(self, PrimitiveType) and not self.is_floating \
            and not self.is_void

    def element_count(self):
        """Number of scalar elements (1 for scalars, N for arrays)."""
        return 1

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(repr(self))

    def __deepcopy__(self, memo):
        # types are immutable value objects (see module docstring):
        # deep copies of ASTs can safely share them, as c_ast.clone's
        # copies do
        return self

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.to_c())

    def to_c(self, declarator=""):
        """Render the type as C source around an optional declarator."""
        raise NotImplementedError


# IA-32 / ILP32 sizes (§5.1: SCC cores are P54C Pentium-class x86).
PRIMITIVE_SIZES = {
    "void": 0,
    "char": 1,
    "signed char": 1,
    "unsigned char": 1,
    "short": 2,
    "unsigned short": 2,
    "int": 4,
    "unsigned int": 4,
    "long": 4,
    "unsigned long": 4,
    "long long": 8,
    "unsigned long long": 8,
    "float": 4,
    "double": 8,
    "long double": 8,
}

POINTER_SIZE = 4

# Opaque pthread types: sized per 32-bit NPTL so Table 4.1 can be computed.
OPAQUE_TYPE_SIZES = {
    "pthread_t": 4,
    "pthread_attr_t": 36,
    "pthread_mutex_t": 24,
    "pthread_mutexattr_t": 4,
    "pthread_cond_t": 48,
    "pthread_condattr_t": 4,
    "pthread_barrier_t": 20,
    "pthread_barrierattr_t": 4,
    "size_t": 4,
    "ssize_t": 4,
    "FILE": 4,
    "RCCE_FLAG": 4,
    "RCCE_COMM": 4,
}


class PrimitiveType(CType):
    """A builtin arithmetic type or ``void``."""

    def __init__(self, name):
        if name not in PRIMITIVE_SIZES:
            raise ValueError("unknown primitive type %r" % name)
        self.name = name

    def sizeof(self):
        return PRIMITIVE_SIZES[self.name]

    def to_c(self, declarator=""):
        if declarator:
            return "%s %s" % (self.name, declarator)
        return self.name


class NamedType(CType):
    """A typedef-name (including the opaque pthread/RCCE types)."""

    def __init__(self, name, underlying=None):
        self.name = name
        self.underlying = underlying

    def sizeof(self):
        if self.underlying is not None:
            return self.underlying.sizeof()
        if self.name in OPAQUE_TYPE_SIZES:
            return OPAQUE_TYPE_SIZES[self.name]
        return POINTER_SIZE  # unknown opaque handle: assume word-sized

    def to_c(self, declarator=""):
        if declarator:
            return "%s %s" % (self.name, declarator)
        return self.name


class PointerType(CType):
    """Pointer to ``base``."""

    def __init__(self, base):
        self.base = base

    def sizeof(self):
        return POINTER_SIZE

    def to_c(self, declarator=""):
        inner = "*%s" % declarator
        if isinstance(self.base, (ArrayType, FunctionType)):
            inner = "(%s)" % inner
        return self.base.to_c(inner)


class ArrayType(CType):
    """Array of ``base``; ``length`` may be None (incomplete)."""

    def __init__(self, base, length=None):
        self.base = base
        self.length = length

    def sizeof(self):
        if self.length is None:
            return 0
        return self.base.sizeof() * self.length

    def element_count(self):
        if self.length is None:
            return 1
        return self.length * self.base.element_count()

    def to_c(self, declarator=""):
        dims = "[%s]" % ("" if self.length is None else self.length)
        return self.base.to_c("%s%s" % (declarator, dims))


class StructType(CType):
    """``struct name { fields }``; fields is a list of (name, CType)."""

    def __init__(self, name=None, fields=None, is_union=False):
        self.name = name
        self.fields = list(fields) if fields is not None else None
        self.is_union = is_union

    def sizeof(self):
        if not self.fields:
            return 0
        sizes = [ctype.sizeof() for _, ctype in self.fields]
        if self.is_union:
            return max(sizes)
        # 4-byte alignment, good enough for the IA-32 subset we model
        total = 0
        for size in sizes:
            align = min(size, 4) or 1
            total = (total + align - 1) // align * align
            total += size
        return (total + 3) // 4 * 4

    def field_type(self, name):
        for field_name, ctype in self.fields or []:
            if field_name == name:
                return ctype
        raise KeyError("struct %s has no field %r" % (self.name, name))

    def field_offset(self, name):
        """Byte offset of a field under the 4-byte-alignment layout."""
        if self.is_union:
            if any(field_name == name for field_name, _ in self.fields or []):
                return 0
            raise KeyError("union %s has no field %r" % (self.name, name))
        offset = 0
        for field_name, ctype in self.fields or []:
            size = ctype.sizeof()
            align = min(size, 4) or 1
            offset = (offset + align - 1) // align * align
            if field_name == name:
                return offset
            offset += size
        raise KeyError("struct %s has no field %r" % (self.name, name))

    def to_c(self, declarator=""):
        keyword = "union" if self.is_union else "struct"
        tag = ("%s %s" % (keyword, self.name)) if self.name else keyword
        if declarator:
            return "%s %s" % (tag, declarator)
        return tag


class FunctionType(CType):
    """Function returning ``ret`` taking ``params`` (list of CType)."""

    def __init__(self, ret, params=None, varargs=False):
        self.ret = ret
        self.params = list(params or [])
        self.varargs = varargs

    def sizeof(self):
        return POINTER_SIZE  # decays to a function pointer

    def to_c(self, declarator=""):
        parts = [param.to_c() for param in self.params]
        if self.varargs:
            parts.append("...")
        if not parts:
            parts = ["void"]
        return self.ret.to_c("%s(%s)" % (declarator, ", ".join(parts)))


# Singletons for the common cases
VOID = PrimitiveType("void")
CHAR = PrimitiveType("char")
INT = PrimitiveType("int")
UINT = PrimitiveType("unsigned int")
LONG = PrimitiveType("long")
ULONG = PrimitiveType("unsigned long")
FLOAT = PrimitiveType("float")
DOUBLE = PrimitiveType("double")
VOID_PTR = PointerType(VOID)
CHAR_PTR = PointerType(CHAR)
INT_PTR = PointerType(INT)


def strip_arrays(ctype):
    """Peel array layers off ``ctype`` and return the element type."""
    while isinstance(ctype, ArrayType):
        ctype = ctype.base
    return ctype


def pointee(ctype):
    """The type pointed at (arrays decay); None for non-pointers."""
    if isinstance(ctype, PointerType):
        return ctype.base
    if isinstance(ctype, ArrayType):
        return ctype.base
    return None
