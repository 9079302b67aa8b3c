"""Generic AST traversal: visitors, transformers, and search helpers."""

from repro.cfront import c_ast


class NodeVisitor:
    """Dispatches ``visit_<ClassName>`` methods; falls back to
    ``generic_visit`` which recurses into children."""

    def visit(self, node):
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node):
        for child in node.children():
            self.visit(child)


class NodeTransformer:
    """Like :class:`NodeVisitor` but rebuilds the tree.

    ``visit_*`` methods return the replacement node, a list of nodes (to
    splice into list-valued fields), or ``None`` to delete the node.
    Returning the original node keeps it.
    """

    def visit(self, node):
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node):
        for field in node._fields:
            value = getattr(node, field, None)
            if value is None:
                continue
            if isinstance(value, list):
                new_items = []
                for item in value:
                    if not isinstance(item, c_ast.Node):
                        new_items.append(item)
                        continue
                    result = self.visit(item)
                    if result is None:
                        continue
                    if isinstance(result, list):
                        new_items.extend(result)
                    else:
                        new_items.append(result)
                setattr(node, field, new_items)
            elif isinstance(value, c_ast.Node):
                result = self.visit(value)
                if isinstance(result, list):
                    raise ValueError(
                        "cannot splice a list into scalar field %r of %s"
                        % (field, type(node).__name__))
                setattr(node, field, result)
        return node


def find_all(root, node_type, predicate=None):
    """All nodes of ``node_type`` under ``root`` matching ``predicate``."""
    found = []
    for node in c_ast.walk(root):
        if isinstance(node, node_type) and (
                predicate is None or predicate(node)):
            found.append(node)
    return found


def find_first(root, node_type, predicate=None):
    """First node of ``node_type`` under ``root`` or None."""
    for node in c_ast.walk(root):
        if isinstance(node, node_type) and (
                predicate is None or predicate(node)):
            return node
    return None


def find_calls(root, name):
    """All direct calls to function ``name`` under ``root``."""
    return find_all(root, c_ast.FuncCall,
                    lambda call: call.callee_name == name)


def enclosing(node, node_type):
    """Nearest ancestor of ``node`` with type ``node_type`` (needs
    ``link_parents`` to have been run), or None."""
    current = node.parent
    while current is not None:
        if isinstance(current, node_type):
            return current
        current = current.parent
    return None


def is_inside_loop(node):
    """True if ``node`` sits inside a For/While/DoWhile (via parent links)."""
    return enclosing(node, (c_ast.For, c_ast.While, c_ast.DoWhile)) is not None
