"""Recursive-descent parser for the C subset used by Pthreads programs.

Handles declarations (scalars, pointers, arrays, structs, typedefs,
function prototypes), function definitions, the full statement set, and
the complete expression grammar with standard precedence (binary
operators by precedence climbing).  Typedef names (including the
pthread/RCCE opaque types) are tracked, each with the type its typedef
gave it, so the classic "lexer hack" ambiguity is resolved in the parser.
"""

from repro.cfront import c_ast, ctypes
from repro.cfront.errors import ParseError
from repro.cfront.lexer import tokenize
from repro.cfront.tokens import TokenKind

K = TokenKind

_TYPE_KEYWORDS = {
    K.KW_VOID, K.KW_CHAR, K.KW_SHORT, K.KW_INT, K.KW_LONG,
    K.KW_FLOAT, K.KW_DOUBLE, K.KW_SIGNED, K.KW_UNSIGNED,
    K.KW_STRUCT, K.KW_UNION, K.KW_ENUM,
}
_STORAGE_KEYWORDS = {
    K.KW_TYPEDEF: "typedef",
    K.KW_STATIC: "static",
    K.KW_EXTERN: "extern",
    K.KW_AUTO: "auto",
    K.KW_REGISTER: "register",
}
_QUALIFIER_KEYWORDS = {
    K.KW_CONST: "const",
    K.KW_VOLATILE: "volatile",
    K.KW_RESTRICT: "restrict",
    K.KW_INLINE: "inline",
}

# typedef names assumed declared by environment headers (pthread.h, RCCE.h,
# stdio.h, stdlib.h); Stage 5 later strips the pthread ones.
DEFAULT_TYPEDEFS = sorted(ctypes.OPAQUE_TYPE_SIZES)

_ASSIGN_OPS = {
    K.ASSIGN: "=",
    K.PLUS_ASSIGN: "+=",
    K.MINUS_ASSIGN: "-=",
    K.STAR_ASSIGN: "*=",
    K.SLASH_ASSIGN: "/=",
    K.PERCENT_ASSIGN: "%=",
    K.AMP_ASSIGN: "&=",
    K.PIPE_ASSIGN: "|=",
    K.CARET_ASSIGN: "^=",
    K.LSHIFT_ASSIGN: "<<=",
    K.RSHIFT_ASSIGN: ">>=",
}

# binary operator precedence levels, low to high
_BINARY_LEVELS = [
    [(K.OROR, "||")],
    [(K.ANDAND, "&&")],
    [(K.PIPE, "|")],
    [(K.CARET, "^")],
    [(K.AMP, "&")],
    [(K.EQ, "=="), (K.NE, "!=")],
    [(K.LT, "<"), (K.GT, ">"), (K.LE, "<="), (K.GE, ">=")],
    [(K.LSHIFT, "<<"), (K.RSHIFT, ">>")],
    [(K.PLUS, "+"), (K.MINUS, "-")],
    [(K.STAR, "*"), (K.SLASH, "/"), (K.PERCENT, "%")],
]
# token kind -> (precedence level, operator), for precedence climbing
_BINARY_OPS = {kind: (level, op)
               for level, ops in enumerate(_BINARY_LEVELS)
               for kind, op in ops}

_UNARY_OPS = {
    K.PLUS: "+", K.MINUS: "-", K.BANG: "!", K.TILDE: "~",
    K.STAR: "*", K.AMP: "&",
}
_POSTFIX_KINDS = {K.LBRACKET, K.LPAREN, K.DOT, K.ARROW, K.PLUSPLUS,
                  K.MINUSMINUS}

# tokens after which a typedef-name is a type specifier: a declarator
# starts, or a type-name ends (casts, sizeof, unnamed parameters)
_AFTER_TYPEDEF_NAME = {K.IDENT, K.STAR, K.LPAREN, K.RPAREN, K.COMMA,
                       K.LBRACKET}


class Parser:
    """Parses a token stream into a :class:`c_ast.TranslationUnit`."""

    def __init__(self, tokens, filename="<source>", typedefs=None):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        # typedef-name -> its type; None for the environment's opaque
        # types and for names passed in ``typedefs``
        self.typedefs = dict.fromkeys(DEFAULT_TYPEDEFS)
        if typedefs:
            self.typedefs.update(dict.fromkeys(typedefs))
        self.struct_tags = {}

    # -- token stream helpers ------------------------------------------------

    def _peek(self, offset=0):
        # pos never passes the EOF token, which ends the list
        if not offset:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _advance(self):
        token = self.tokens[self.pos]
        if token.kind is not K.EOF:
            self.pos += 1
        return token

    def _check(self, kind):
        return self.tokens[self.pos].kind is kind

    def _accept(self, kind):
        if self.tokens[self.pos].kind is kind:
            return self._advance()
        return None

    def _expect(self, kind, what=None):
        token = self._peek()
        if token.kind is not kind:
            self.error("expected %s, found %r"
                       % (what or kind.name, token.value or "<eof>"), token)
        return self._advance()

    def error(self, message, token=None):
        token = token or self._peek()
        raise ParseError(message, token.line, token.column, self.filename)

    def _coord(self, token=None):
        token = token or self._peek()
        return c_ast.Coord(token.line, token.column, self.filename)

    # -- entry points ----------------------------------------------------------

    def parse_translation_unit(self, includes=None):
        decls = []
        while not self._check(K.EOF):
            if self._accept(K.SEMI):
                continue
            decls.extend(self._external_declaration())
        unit = c_ast.TranslationUnit(decls, includes=list(includes or []))
        c_ast.link_parents(unit)
        return unit

    def _external_declaration(self):
        start = self._peek()
        storage, quals, base_type = self._declaration_specifiers()

        # bare 'struct X {...};'
        if self._check(K.SEMI) and isinstance(base_type, ctypes.StructType):
            self._advance()
            return [c_ast.StructDecl(base_type, self._coord(start))]

        decls = []
        while True:
            ctype, name = self._declarator(base_type)
            if name is None:
                self.error("declarator without a name")
            if storage == "typedef":
                self.typedefs[name] = ctype
                decls.append(c_ast.Decl(name, ctype, storage="typedef",
                                        quals=quals, coord=self._coord(start)))
            elif ctype.is_function and self._check(K.LBRACE):
                body = self._compound()
                func = c_ast.FuncDef(name, ctype.ret, self._last_params,
                                     body, self._coord(start),
                                     storage=storage)
                decls.append(func)
                return decls
            else:
                init = None
                if self._accept(K.ASSIGN):
                    init = self._initializer()
                    ctype = _completed(ctype, init)
                decls.append(c_ast.Decl(name, ctype, init, storage, quals,
                                        self._coord(start)))
            if not self._accept(K.COMMA):
                break
        self._expect(K.SEMI, "';'")
        return decls

    # -- declaration specifiers -------------------------------------------------

    def _starts_type(self, offset=0):
        token = self._peek(offset)
        if token.kind in _TYPE_KEYWORDS or token.kind in _QUALIFIER_KEYWORDS \
                or token.kind in _STORAGE_KEYWORDS:
            return True
        return token.kind is K.IDENT and token.value in self.typedefs

    def _declaration_specifiers(self):
        storage = None
        quals = []
        prim_words = []
        named = None
        struct = None
        start = self._peek()
        while True:
            token = self._peek()
            if token.kind in _STORAGE_KEYWORDS:
                if storage is not None:
                    self.error("multiple storage-class specifiers")
                storage = _STORAGE_KEYWORDS[token.kind]
                self._advance()
            elif token.kind in _QUALIFIER_KEYWORDS:
                quals.append(_QUALIFIER_KEYWORDS[token.kind])
                self._advance()
            elif token.kind in (K.KW_STRUCT, K.KW_UNION):
                struct = self._struct_specifier()
            elif token.kind is K.KW_ENUM:
                self._enum_specifier()
                prim_words.append("int")  # enums are ints in this subset
            elif token.kind in _TYPE_KEYWORDS:
                prim_words.append(token.value)
                self._advance()
            elif (token.kind is K.IDENT and token.value in self.typedefs
                    and not prim_words and named is None and struct is None):
                # a typedef-name only counts as a type if we have no type yet
                # and the *next* token can follow a type specifier
                if self._peek(1).kind in _AFTER_TYPEDEF_NAME:
                    named = ctypes.NamedType(
                        token.value, self.typedefs[token.value])
                    self._advance()
                else:
                    break
            else:
                break

        if struct is not None:
            base = struct
        elif named is not None:
            base = named
        elif prim_words:
            base = self._primitive_from_words(prim_words, start)
        else:
            self.error("expected type specifier", start)
        return storage, quals, base

    def _primitive_from_words(self, words, start):
        canonical = {
            ("void",): "void",
            ("char",): "char",
            ("signed", "char"): "signed char",
            ("unsigned", "char"): "unsigned char",
            ("short",): "short",
            ("short", "int"): "short",
            ("unsigned", "short"): "unsigned short",
            ("unsigned", "short", "int"): "unsigned short",
            ("int",): "int",
            ("signed",): "int",
            ("signed", "int"): "int",
            ("unsigned",): "unsigned int",
            ("unsigned", "int"): "unsigned int",
            ("long",): "long",
            ("long", "int"): "long",
            ("signed", "long"): "long",
            ("unsigned", "long"): "unsigned long",
            ("unsigned", "long", "int"): "unsigned long",
            ("long", "long"): "long long",
            ("long", "long", "int"): "long long",
            ("unsigned", "long", "long"): "unsigned long long",
            ("unsigned", "long", "long", "int"): "unsigned long long",
            ("float",): "float",
            ("double",): "double",
            ("long", "double"): "long double",
        }
        key = tuple(words)
        if key not in canonical:
            key = tuple(sorted(words))
            for variant, name in canonical.items():
                if tuple(sorted(variant)) == key:
                    return ctypes.PrimitiveType(name)
            self.error("invalid type combination %r" % " ".join(words), start)
        return ctypes.PrimitiveType(canonical[key])

    def _struct_specifier(self):
        keyword = self._advance()  # struct / union
        is_union = keyword.kind is K.KW_UNION
        tag = None
        if self._check(K.IDENT):
            tag = self._advance().value
        fields = None
        if self._accept(K.LBRACE):
            fields = []
            while not self._accept(K.RBRACE):
                _, _, base = self._declaration_specifiers()
                while True:
                    ctype, name = self._declarator(base)
                    if name is None:
                        self.error("struct field without a name")
                    fields.append((name, ctype))
                    if not self._accept(K.COMMA):
                        break
                self._expect(K.SEMI, "';'")
            struct = ctypes.StructType(tag, fields, is_union)
            if tag:
                self.struct_tags[tag] = struct
            return struct
        if tag and tag in self.struct_tags:
            return self.struct_tags[tag]
        struct = ctypes.StructType(tag, None, is_union)
        if tag:
            self.struct_tags.setdefault(tag, struct)
        return struct

    def _enum_specifier(self):
        self._advance()  # enum
        if self._check(K.IDENT):
            self._advance()
        if self._accept(K.LBRACE):
            while not self._accept(K.RBRACE):
                self._expect(K.IDENT, "enumerator name")
                if self._accept(K.ASSIGN):
                    self._conditional_expr()
                if not self._accept(K.COMMA):
                    self._expect(K.RBRACE, "'}'")
                    break

    # -- declarators -----------------------------------------------------------

    def _declarator(self, base_type, abstract=False):
        """Parse a (possibly abstract) declarator; returns (ctype, name)."""
        while self._accept(K.STAR):
            while self._peek().kind in _QUALIFIER_KEYWORDS:
                self._advance()
            base_type = ctypes.PointerType(base_type)

        name = None
        inner_marker = None
        if self._check(K.IDENT):
            name = self._advance().value
        elif self._check(K.LPAREN) and not abstract \
                and self._declarator_paren_ahead():
            self._advance()
            inner_marker = self._declarator(_Hole(), abstract)
            self._expect(K.RPAREN, "')'")
        elif self._check(K.LPAREN) and abstract \
                and self._declarator_paren_ahead():
            self._advance()
            inner_marker = self._declarator(_Hole(), abstract)
            self._expect(K.RPAREN, "')'")

        suffix_type = base_type
        suffix_type = self._declarator_suffixes(suffix_type)

        if inner_marker is not None:
            inner_type, inner_name = inner_marker
            suffix_type = _fill_hole(inner_type, suffix_type)
            name = inner_name
        return suffix_type, name

    def _declarator_paren_ahead(self):
        """Is this '(' part of a declarator (e.g. ``(*fp)(...)``) rather
        than a parameter list?  Look at the token after '('."""
        nxt = self._peek(1)
        return nxt.kind in (K.STAR, K.IDENT, K.LPAREN) and not \
            (nxt.kind is K.IDENT and nxt.value in self.typedefs) and not \
            (nxt.kind is K.IDENT and self._peek(2).kind in
             (K.COMMA, K.RPAREN) and self._looks_like_param_list())

    def _looks_like_param_list(self):
        # '(name,' or '(name)' after an identifier declarator is ambiguous;
        # benchmarks never use K&R parameter lists, so treat as declarator
        return False

    def _declarator_suffixes(self, ctype):
        if self._check(K.LBRACKET):
            self._advance()
            length = None
            if not self._check(K.RBRACKET):
                expr = self._conditional_expr()
                length = _const_int(expr)
            self._expect(K.RBRACKET, "']'")
            inner = self._declarator_suffixes(ctype)
            return ctypes.ArrayType(inner, length)
        if self._check(K.LPAREN):
            self._advance()
            params, varargs, param_decls = self._parameter_list()
            self._expect(K.RPAREN, "')'")
            self._last_params = param_decls
            return ctypes.FunctionType(ctype, params, varargs)
        return ctype

    _last_params = []

    def _parameter_list(self):
        params = []
        decls = []
        varargs = False
        if self._check(K.RPAREN):
            return params, varargs, decls
        if self._check(K.KW_VOID) and self._peek(1).kind is K.RPAREN:
            self._advance()
            return params, varargs, decls
        while True:
            if self._accept(K.ELLIPSIS):
                varargs = True
                break
            _, quals, base = self._declaration_specifiers()
            ctype, name = self._declarator(base, abstract=True)
            # arrays in parameters decay to pointers
            if isinstance(ctype, ctypes.ArrayType):
                ctype = ctypes.PointerType(ctype.base)
            params.append(ctype)
            decls.append(c_ast.Decl(name, ctype, quals=quals,
                                    coord=self._coord()))
            if not self._accept(K.COMMA):
                break
        return params, varargs, decls

    def _type_name(self):
        """Parse a type-name (for casts / sizeof)."""
        _, _, base = self._declaration_specifiers()
        ctype, _ = self._declarator(base, abstract=True)
        return ctype

    # -- statements -----------------------------------------------------------

    def _compound(self):
        start = self._expect(K.LBRACE, "'{'")
        items = []
        while not self._check(K.RBRACE):
            if self._check(K.EOF):
                self.error("unterminated block", start)
            items.append(self._block_item())
        self._advance()
        return c_ast.Compound(items, self._coord(start))

    def _block_item(self):
        if self._starts_type():
            return self._declaration_stmt()
        return self._statement()

    def _declaration_stmt(self):
        start = self._peek()
        storage, quals, base = self._declaration_specifiers()
        if self._check(K.SEMI) and isinstance(base, ctypes.StructType):
            self._advance()
            return c_ast.StructDecl(base, self._coord(start))
        decls = []
        while True:
            ctype, name = self._declarator(base)
            if name is None:
                self.error("declarator without a name")
            if storage == "typedef":
                self.typedefs[name] = ctype
            init = None
            if self._accept(K.ASSIGN):
                init = self._initializer()
                ctype = _completed(ctype, init)
            decls.append(c_ast.Decl(name, ctype, init, storage, quals,
                                    self._coord(start)))
            if not self._accept(K.COMMA):
                break
        self._expect(K.SEMI, "';'")
        return c_ast.DeclStmt(decls, self._coord(start))

    def _initializer(self):
        if self._check(K.LBRACE):
            start = self._advance()
            exprs = []
            while not self._check(K.RBRACE):
                exprs.append(self._initializer())
                if not self._accept(K.COMMA):
                    break
            self._expect(K.RBRACE, "'}'")
            return c_ast.InitList(exprs, self._coord(start))
        return self._assignment_expr()

    def _statement(self):
        token = self._peek()
        kind = token.kind
        if kind is K.LBRACE:
            return self._compound()
        if kind is K.SEMI:
            self._advance()
            return c_ast.EmptyStmt(self._coord(token))
        if kind is K.KW_IF:
            return self._if_stmt()
        if kind is K.KW_WHILE:
            return self._while_stmt()
        if kind is K.KW_DO:
            return self._do_stmt()
        if kind is K.KW_FOR:
            return self._for_stmt()
        if kind is K.KW_RETURN:
            self._advance()
            expr = None
            if not self._check(K.SEMI):
                expr = self._expression()
            self._expect(K.SEMI, "';'")
            return c_ast.Return(expr, self._coord(token))
        if kind is K.KW_BREAK:
            self._advance()
            self._expect(K.SEMI, "';'")
            return c_ast.Break(self._coord(token))
        if kind is K.KW_CONTINUE:
            self._advance()
            self._expect(K.SEMI, "';'")
            return c_ast.Continue(self._coord(token))
        if kind is K.KW_SWITCH:
            return self._switch_stmt()
        if kind is K.KW_GOTO:
            self._advance()
            label = self._expect(K.IDENT, "label").value
            self._expect(K.SEMI, "';'")
            return c_ast.Goto(label, self._coord(token))
        if kind is K.IDENT and self._peek(1).kind is K.COLON:
            name = self._advance().value
            self._advance()  # ':'
            stmt = self._statement()
            return c_ast.Label(name, stmt, self._coord(token))
        expr = self._expression()
        self._expect(K.SEMI, "';'")
        return c_ast.ExprStmt(expr, self._coord(token))

    def _if_stmt(self):
        start = self._advance()
        self._expect(K.LPAREN, "'('")
        cond = self._expression()
        self._expect(K.RPAREN, "')'")
        then = self._statement()
        els = None
        if self._accept(K.KW_ELSE):
            els = self._statement()
        return c_ast.If(cond, then, els, self._coord(start))

    def _while_stmt(self):
        start = self._advance()
        self._expect(K.LPAREN, "'('")
        cond = self._expression()
        self._expect(K.RPAREN, "')'")
        body = self._statement()
        return c_ast.While(cond, body, self._coord(start))

    def _do_stmt(self):
        start = self._advance()
        body = self._statement()
        self._expect(K.KW_WHILE, "'while'")
        self._expect(K.LPAREN, "'('")
        cond = self._expression()
        self._expect(K.RPAREN, "')'")
        self._expect(K.SEMI, "';'")
        return c_ast.DoWhile(body, cond, self._coord(start))

    def _for_stmt(self):
        start = self._advance()
        self._expect(K.LPAREN, "'('")
        init = None
        if not self._check(K.SEMI):
            if self._starts_type():
                init = self._declaration_stmt()  # consumes ';'
            else:
                expr = self._expression()
                self._expect(K.SEMI, "';'")
                init = c_ast.ExprStmt(expr, expr.coord)
        else:
            self._advance()
        cond = None
        if not self._check(K.SEMI):
            cond = self._expression()
        self._expect(K.SEMI, "';'")
        step = None
        if not self._check(K.RPAREN):
            step = self._expression()
        self._expect(K.RPAREN, "')'")
        body = self._statement()
        return c_ast.For(init, cond, step, body, self._coord(start))

    def _switch_stmt(self):
        start = self._advance()
        self._expect(K.LPAREN, "'('")
        cond = self._expression()
        self._expect(K.RPAREN, "')'")
        self._expect(K.LBRACE, "'{'")
        items = []
        while not self._accept(K.RBRACE):
            if self._accept(K.KW_CASE):
                expr = self._conditional_expr()
                self._expect(K.COLON, "':'")
                stmts = self._case_body()
                items.append(c_ast.Case(expr, stmts, self._coord(start)))
            elif self._accept(K.KW_DEFAULT):
                self._expect(K.COLON, "':'")
                stmts = self._case_body()
                items.append(c_ast.Default(stmts, self._coord(start)))
            else:
                self.error("expected 'case' or 'default' in switch body")
        body = c_ast.Compound(items, self._coord(start))
        return c_ast.Switch(cond, body, self._coord(start))

    def _case_body(self):
        stmts = []
        while self._peek().kind not in (K.KW_CASE, K.KW_DEFAULT, K.RBRACE):
            stmts.append(self._block_item())
        return stmts

    # -- expressions ------------------------------------------------------------

    # The expression chain runs once per operand, so it reads the
    # current token as self.tokens[self.pos] and steps past a token it
    # has matched (never EOF) with self.pos += 1.

    def _expression(self):
        start = self.tokens[self.pos]
        expr = self._assignment_expr()
        if self.tokens[self.pos].kind is K.COMMA:
            exprs = [expr]
            while self._accept(K.COMMA):
                exprs.append(self._assignment_expr())
            return c_ast.Comma(exprs, self._coord(start))
        return expr

    def _assignment_expr(self):
        start = self.tokens[self.pos]
        left = self._conditional_expr()
        token = self.tokens[self.pos]
        if token.kind in _ASSIGN_OPS:
            self.pos += 1
            right = self._assignment_expr()
            return c_ast.Assignment(_ASSIGN_OPS[token.kind], left, right,
                                    self._coord(start))
        return left

    def _conditional_expr(self):
        start = self.tokens[self.pos]
        cond = self._binary_expr(0)
        if self._accept(K.QUESTION):
            then = self._expression()
            self._expect(K.COLON, "':'")
            els = self._conditional_expr()
            return c_ast.TernaryOp(cond, then, els, self._coord(start))
        return cond

    def _binary_expr(self, min_level):
        """Precedence climbing: a cast expression, then every binary
        operator of ``min_level`` or above with its right operand
        (which binds only tighter operators).  All levels associate
        to the left; each BinaryOp's coord is its left operand's first
        token."""
        tokens = self.tokens
        start = tokens[self.pos]
        left = self._cast_expr()
        while True:
            entry = _BINARY_OPS.get(tokens[self.pos].kind)
            if entry is None or entry[0] < min_level:
                return left
            self.pos += 1
            right = self._binary_expr(entry[0] + 1)
            left = c_ast.BinaryOp(entry[1], left, right,
                                  self._coord(start))

    def _cast_expr(self):
        if self.tokens[self.pos].kind is K.LPAREN and self._starts_type(1):
            start = self._advance()
            ctype = self._type_name()
            self._expect(K.RPAREN, "')'")
            expr = self._cast_expr()
            return c_ast.Cast(ctype, expr, self._coord(start))
        return self._unary_expr()

    def _unary_expr(self):
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is K.PLUSPLUS:
            self.pos += 1
            return c_ast.UnaryOp("++", self._unary_expr(),
                                 self._coord(token))
        if kind is K.MINUSMINUS:
            self.pos += 1
            return c_ast.UnaryOp("--", self._unary_expr(),
                                 self._coord(token))
        if kind in _UNARY_OPS:
            self.pos += 1
            return c_ast.UnaryOp(_UNARY_OPS[kind], self._cast_expr(),
                                 self._coord(token))
        if kind is K.KW_SIZEOF:
            self.pos += 1
            if self._check(K.LPAREN) and self._starts_type(1):
                self._advance()
                ctype = self._type_name()
                self._expect(K.RPAREN, "')'")
                return c_ast.SizeofType(ctype, self._coord(token))
            return c_ast.UnaryOp("sizeof", self._unary_expr(),
                                 self._coord(token))
        return self._postfix_expr()

    def _postfix_expr(self):
        expr = self._primary_expr()
        while True:
            token = self.tokens[self.pos]
            if token.kind not in _POSTFIX_KINDS:
                return expr
            self.pos += 1
            if token.kind is K.LBRACKET:
                index = self._expression()
                self._expect(K.RBRACKET, "']'")
                expr = c_ast.ArrayRef(expr, index, self._coord(token))
            elif token.kind is K.LPAREN:
                args = []
                if not self._check(K.RPAREN):
                    args.append(self._assignment_expr())
                    while self._accept(K.COMMA):
                        args.append(self._assignment_expr())
                self._expect(K.RPAREN, "')'")
                expr = c_ast.FuncCall(expr, args, self._coord(token))
            elif token.kind is K.DOT:
                member = self._expect(K.IDENT, "member name").value
                expr = c_ast.MemberRef(expr, member, False,
                                       self._coord(token))
            elif token.kind is K.ARROW:
                member = self._expect(K.IDENT, "member name").value
                expr = c_ast.MemberRef(expr, member, True,
                                       self._coord(token))
            elif token.kind is K.PLUSPLUS:
                expr = c_ast.UnaryOp("p++", expr, self._coord(token))
            else:
                expr = c_ast.UnaryOp("p--", expr, self._coord(token))

    def _primary_expr(self):
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is K.IDENT:
            self.pos += 1
            return c_ast.Id(token.value, self._coord(token))
        if kind is K.INT_CONST:
            self.pos += 1
            return c_ast.Constant("int", _int_value(token.value),
                                  token.value, self._coord(token))
        if kind is K.FLOAT_CONST:
            self.pos += 1
            return c_ast.Constant("float", float(token.value), token.value,
                                  self._coord(token))
        if kind is K.CHAR_CONST:
            self.pos += 1
            return c_ast.Constant("char", ord(token.value),
                                  "'%s'" % token.value, self._coord(token))
        if kind is K.STRING:
            self.pos += 1
            value = token.value
            while self._check(K.STRING):  # adjacent literal concatenation
                value += self._advance().value
            return c_ast.StringLiteral(value, self._coord(token))
        if kind is K.LPAREN:
            self.pos += 1
            expr = self._expression()
            self._expect(K.RPAREN, "')'")
            return expr
        self.error("unexpected token %r in expression"
                   % (token.value or "<eof>"), token)


class _Hole(ctypes.CType):
    """Placeholder base type used while parsing parenthesized declarators."""

    def sizeof(self):
        return 0

    def to_c(self, declarator=""):
        return declarator


def _fill_hole(ctype, replacement):
    """Substitute the :class:`_Hole` leaf of ``ctype`` with ``replacement``."""
    if isinstance(ctype, _Hole):
        return replacement
    if isinstance(ctype, ctypes.PointerType):
        return ctypes.PointerType(_fill_hole(ctype.base, replacement))
    if isinstance(ctype, ctypes.ArrayType):
        return ctypes.ArrayType(_fill_hole(ctype.base, replacement),
                                ctype.length)
    if isinstance(ctype, ctypes.FunctionType):
        return ctypes.FunctionType(_fill_hole(ctype.ret, replacement),
                                   ctype.params, ctype.varargs)
    return ctype


def _completed(ctype, init):
    """An array declared without a size takes it from its initializer
    (C11 6.7.9p22): the entries of a brace list, or a string literal's
    characters and its terminating NUL."""
    if not isinstance(ctype, ctypes.ArrayType) or ctype.length is not None:
        return ctype
    if isinstance(init, c_ast.InitList):
        return ctypes.ArrayType(ctype.base, len(init.exprs))
    if isinstance(init, c_ast.StringLiteral):
        return ctypes.ArrayType(ctype.base, len(init.value) + 1)
    return ctype


def _int_value(text):
    """The value of an integer constant's text (suffix already gone):
    hex after 0x, octal after a leading 0, else decimal."""
    if text[:2] in ("0x", "0X"):
        return int(text, 16)
    return int(text, 8 if text[0] == "0" else 10)


def _const_int(expr):
    """Evaluate a constant integer expression for array lengths."""
    if isinstance(expr, c_ast.Constant) and expr.kind == "int":
        return expr.value
    if isinstance(expr, c_ast.BinaryOp):
        left = _const_int(expr.left)
        right = _const_int(expr.right)
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a // b,
            "%": lambda a, b: a % b,
            "<<": lambda a, b: a << b,
            ">>": lambda a, b: a >> b,
        }
        if expr.op in ops:
            return ops[expr.op](left, right)
    if isinstance(expr, c_ast.UnaryOp) and expr.op == "-":
        return -_const_int(expr.operand)
    raise ParseError("array length is not a constant expression",
                     expr.coord.line if expr.coord else None)


def parse(source, filename="<source>", includes=None, typedefs=None):
    """Parse already-preprocessed C ``source`` into a TranslationUnit."""
    tokens = tokenize(source, filename)
    parser = Parser(tokens, filename, typedefs)
    return parser.parse_translation_unit(includes)
