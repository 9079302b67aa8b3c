"""AST node classes — the "Cetus IR" of the reproduction.

Every node lists its child-bearing attributes in ``_fields`` so generic
traversal (``walk``, visitors, transformers) works without per-node code.
Type information is carried by :mod:`repro.cfront.ctypes` objects attached
to declarations, not by type AST nodes.
"""

from repro.cfront.ctypes import CType


class Coord:
    """Source coordinate (filename, line, column)."""

    __slots__ = ("filename", "line", "column")

    def __init__(self, line, column, filename="<source>"):
        self.line = line
        self.column = column
        self.filename = filename

    def __repr__(self):
        return "%s:%d:%d" % (self.filename, self.line, self.column)

    def __eq__(self, other):
        return (isinstance(other, Coord)
                and (self.filename, self.line, self.column)
                == (other.filename, other.line, other.column))

    def __deepcopy__(self, memo):
        return self  # immutable; shared freely across AST copies


# leaf types whose values an AST copy shares with its master, as it
# shares CTypes: none of them can change in place
_SHARED_LEAVES = frozenset((str, int, float, bool, type(None), tuple,
                            Coord))


class Node:
    """Base AST node."""

    _fields = ()

    def __init__(self, coord=None):
        self.coord = coord
        self.parent = None  # filled lazily by link_parents()

    def children(self):
        """The child nodes, in field order, with list fields flattened."""
        found = []
        for field in self._fields:
            value = getattr(self, field, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        found.append(item)
            elif isinstance(value, Node):
                found.append(value)
        return found

    def __repr__(self):
        attrs = []
        for field in self._fields:
            value = getattr(self, field, None)
            if isinstance(value, Node):
                attrs.append("%s=%s" % (field, type(value).__name__))
            elif isinstance(value, list):
                attrs.append("%s=[%d]" % (field, len(value)))
            else:
                attrs.append("%s=%r" % (field, value))
        return "%s(%s)" % (type(self).__name__, ", ".join(attrs))


def link_parents(root):
    """Populate ``node.parent`` across the whole tree under ``root``.

    The walk is pre-order, as :func:`walk` is, and a node's parent is
    set when the node is visited.  Returns the first ``(field, node)``
    in that order whose list field holds None (a hole a transform left
    behind), or None when there is none."""
    hole = None
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        if parent is not None:
            node.parent = parent
        children = []
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        children.append((item, node))
                    elif item is None and hole is None:
                        hole = (field, node)
            elif isinstance(value, Node):
                children.append((value, node))
        children.reverse()
        stack += children
    return hole


def clone(root):
    """A structural copy of the tree under ``root``.

    Every node and every list is new; immutable leaves (C types,
    :class:`Coord`, strings, numbers, tuples) are shared with ``root``.
    Each copy's ``parent`` is the copy that holds it, and the root
    copy's is None.  Attributes are written into each copy's own
    ``__dict__`` in the master's key order, so the copies' instance
    dicts stay key-shared.  Any other mutable value raises
    ``TypeError``, so nothing is aliased silently."""
    top = root.__class__.__new__(root.__class__)
    stack = [(root, top, None)]
    while stack:
        node, copy, parent = stack.pop()
        attrs = copy.__dict__
        for key, value in node.__dict__.items():
            if key == "parent":
                attrs[key] = parent
            else:
                attrs[key] = _clone_value(value, copy, stack)
    return top


def _clone_value(value, holder, stack):
    """``value``'s copy for the clone of its holding node; a node's
    copy is filled in when ``clone`` pops it from ``stack``."""
    if type(value) in _SHARED_LEAVES or isinstance(value, CType):
        return value
    if isinstance(value, Node):
        copy = value.__class__.__new__(value.__class__)
        stack.append((value, copy, holder))
        return copy
    if type(value) is list:
        return [_clone_value(item, holder, stack) for item in value]
    raise TypeError("cannot clone a %s attribute of %s"
                    % (type(value).__name__, type(holder).__name__))


def walk(root):
    """Depth-first pre-order generator over all nodes.

    A node's fields are read only after the node has been yielded, so
    the consumer may rewrite them (say, a call's ``func`` and ``args``)
    and the walk descends into the new children."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        children = node.children()
        children.reverse()
        stack += children


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

class TranslationUnit(Node):
    """A whole source file: external declarations and function definitions."""

    _fields = ("decls",)

    def __init__(self, decls=None, coord=None, includes=None):
        super().__init__(coord)
        self.decls = decls if decls is not None else []
        self.includes = includes if includes is not None else []

    def functions(self):
        """All function definitions, in source order."""
        return [d for d in self.decls if isinstance(d, FuncDef)]

    def find_function(self, name):
        for func in self.functions():
            if func.name == name:
                return func
        return None

    def global_decls(self):
        """All file-scope variable declarations."""
        return [d for d in self.decls
                if isinstance(d, Decl) and not d.ctype.is_function]


class FuncDef(Node):
    """A function definition with its body."""

    _fields = ("params", "body")

    def __init__(self, name, return_type, params, body, coord=None,
                 storage=None):
        super().__init__(coord)
        self.name = name
        self.return_type = return_type
        self.params = params  # list of Decl
        self.body = body      # Compound
        self.storage = storage


class Decl(Node):
    """A declaration of one name (variable, parameter, or prototype)."""

    _fields = ("init",)

    def __init__(self, name, ctype, init=None, storage=None, quals=None,
                 coord=None):
        super().__init__(coord)
        self.name = name
        self.ctype = ctype
        self.init = init
        self.storage = storage       # 'static' / 'extern' / 'typedef' / None
        self.quals = quals or []     # ['const', 'volatile', ...]

    @property
    def is_typedef(self):
        return self.storage == "typedef"


class StructDecl(Node):
    """A bare ``struct name { ... };`` definition at file or block scope."""

    _fields = ()

    def __init__(self, struct_type, coord=None):
        super().__init__(coord)
        self.struct_type = struct_type


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement(Node):
    """Marker base class for statements."""


class Compound(Statement):
    _fields = ("items",)

    def __init__(self, items=None, coord=None):
        super().__init__(coord)
        self.items = items if items is not None else []


class ExprStmt(Statement):
    _fields = ("expr",)

    def __init__(self, expr, coord=None):
        super().__init__(coord)
        self.expr = expr


class DeclStmt(Statement):
    """One or more declarations appearing in statement position."""

    _fields = ("decls",)

    def __init__(self, decls, coord=None):
        super().__init__(coord)
        self.decls = decls


class If(Statement):
    _fields = ("cond", "then", "els")

    def __init__(self, cond, then, els=None, coord=None):
        super().__init__(coord)
        self.cond = cond
        self.then = then
        self.els = els


class While(Statement):
    _fields = ("cond", "body")

    def __init__(self, cond, body, coord=None):
        super().__init__(coord)
        self.cond = cond
        self.body = body


class DoWhile(Statement):
    _fields = ("body", "cond")

    def __init__(self, body, cond, coord=None):
        super().__init__(coord)
        self.body = body
        self.cond = cond


class For(Statement):
    _fields = ("init", "cond", "step", "body")

    def __init__(self, init, cond, step, body, coord=None):
        super().__init__(coord)
        self.init = init  # DeclStmt, ExprStmt, or None
        self.cond = cond
        self.step = step
        self.body = body


class Return(Statement):
    _fields = ("expr",)

    def __init__(self, expr=None, coord=None):
        super().__init__(coord)
        self.expr = expr


class Break(Statement):
    _fields = ()


class Continue(Statement):
    _fields = ()


class EmptyStmt(Statement):
    _fields = ()


class Switch(Statement):
    _fields = ("cond", "body")

    def __init__(self, cond, body, coord=None):
        super().__init__(coord)
        self.cond = cond
        self.body = body


class Case(Statement):
    _fields = ("expr", "stmts")

    def __init__(self, expr, stmts, coord=None):
        super().__init__(coord)
        self.expr = expr
        self.stmts = stmts


class Default(Statement):
    _fields = ("stmts",)

    def __init__(self, stmts, coord=None):
        super().__init__(coord)
        self.stmts = stmts


class Goto(Statement):
    _fields = ()

    def __init__(self, label, coord=None):
        super().__init__(coord)
        self.label = label


class Label(Statement):
    _fields = ("stmt",)

    def __init__(self, name, stmt, coord=None):
        super().__init__(coord)
        self.name = name
        self.stmt = stmt


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expression(Node):
    """Marker base class for expressions."""


class Id(Expression):
    _fields = ()

    def __init__(self, name, coord=None):
        super().__init__(coord)
        self.name = name


class Constant(Expression):
    """An int/float/char constant; ``value`` is the Python value."""

    _fields = ()

    def __init__(self, kind, value, text=None, coord=None):
        super().__init__(coord)
        self.kind = kind  # 'int' | 'float' | 'char'
        self.value = value
        self.text = text if text is not None else repr(value)


class StringLiteral(Expression):
    _fields = ()

    def __init__(self, value, coord=None):
        super().__init__(coord)
        self.value = value


class BinaryOp(Expression):
    _fields = ("left", "right")

    def __init__(self, op, left, right, coord=None):
        super().__init__(coord)
        self.op = op
        self.left = left
        self.right = right


class UnaryOp(Expression):
    """Prefix ops ('-', '+', '!', '~', '*', '&', '++', '--', 'sizeof')
    and postfix ops ('p++', 'p--')."""

    _fields = ("operand",)

    def __init__(self, op, operand, coord=None):
        super().__init__(coord)
        self.op = op
        self.operand = operand


class Assignment(Expression):
    _fields = ("lvalue", "rvalue")

    def __init__(self, op, lvalue, rvalue, coord=None):
        super().__init__(coord)
        self.op = op  # '=', '+=', '-=', ...
        self.lvalue = lvalue
        self.rvalue = rvalue


class TernaryOp(Expression):
    _fields = ("cond", "then", "els")

    def __init__(self, cond, then, els, coord=None):
        super().__init__(coord)
        self.cond = cond
        self.then = then
        self.els = els


class FuncCall(Expression):
    _fields = ("func", "args")

    def __init__(self, func, args=None, coord=None):
        super().__init__(coord)
        self.func = func
        self.args = args if args is not None else []

    @property
    def callee_name(self):
        """The direct callee name, or None for indirect calls."""
        if isinstance(self.func, Id):
            return self.func.name
        return None


class ArrayRef(Expression):
    _fields = ("base", "index")

    def __init__(self, base, index, coord=None):
        super().__init__(coord)
        self.base = base
        self.index = index


class MemberRef(Expression):
    _fields = ("base",)

    def __init__(self, base, member, arrow=False, coord=None):
        super().__init__(coord)
        self.base = base
        self.member = member
        self.arrow = arrow


class Cast(Expression):
    _fields = ("expr",)

    def __init__(self, ctype, expr, coord=None):
        super().__init__(coord)
        self.ctype = ctype
        self.expr = expr


class SizeofType(Expression):
    _fields = ()

    def __init__(self, ctype, coord=None):
        super().__init__(coord)
        self.ctype = ctype


class Comma(Expression):
    _fields = ("exprs",)

    def __init__(self, exprs, coord=None):
        super().__init__(coord)
        self.exprs = exprs


class InitList(Expression):
    """A braced initializer list ``{a, b, c}``."""

    _fields = ("exprs",)

    def __init__(self, exprs, coord=None):
        super().__init__(coord)
        self.exprs = exprs
