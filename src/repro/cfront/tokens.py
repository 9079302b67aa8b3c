"""Token kinds and the Token record produced by the lexer."""

from enum import Enum, auto


class TokenKind(Enum):
    # literals / identifiers
    IDENT = auto()
    INT_CONST = auto()
    FLOAT_CONST = auto()
    CHAR_CONST = auto()
    STRING = auto()

    # keywords
    KW_AUTO = auto()
    KW_BREAK = auto()
    KW_CASE = auto()
    KW_CHAR = auto()
    KW_CONST = auto()
    KW_CONTINUE = auto()
    KW_DEFAULT = auto()
    KW_DO = auto()
    KW_DOUBLE = auto()
    KW_ELSE = auto()
    KW_ENUM = auto()
    KW_EXTERN = auto()
    KW_FLOAT = auto()
    KW_FOR = auto()
    KW_GOTO = auto()
    KW_IF = auto()
    KW_INLINE = auto()
    KW_INT = auto()
    KW_LONG = auto()
    KW_REGISTER = auto()
    KW_RESTRICT = auto()
    KW_RETURN = auto()
    KW_SHORT = auto()
    KW_SIGNED = auto()
    KW_SIZEOF = auto()
    KW_STATIC = auto()
    KW_STRUCT = auto()
    KW_SWITCH = auto()
    KW_TYPEDEF = auto()
    KW_UNION = auto()
    KW_UNSIGNED = auto()
    KW_VOID = auto()
    KW_VOLATILE = auto()
    KW_WHILE = auto()

    # punctuation / operators
    LPAREN = auto()      # (
    RPAREN = auto()      # )
    LBRACE = auto()      # {
    RBRACE = auto()      # }
    LBRACKET = auto()    # [
    RBRACKET = auto()    # ]
    SEMI = auto()        # ;
    COMMA = auto()       # ,
    DOT = auto()         # .
    ARROW = auto()       # ->
    ELLIPSIS = auto()    # ...
    QUESTION = auto()    # ?
    COLON = auto()       # :

    PLUS = auto()        # +
    MINUS = auto()       # -
    STAR = auto()        # *
    SLASH = auto()       # /
    PERCENT = auto()     # %
    AMP = auto()         # &
    PIPE = auto()        # |
    CARET = auto()       # ^
    TILDE = auto()       # ~
    BANG = auto()        # !
    LSHIFT = auto()      # <<
    RSHIFT = auto()      # >>
    LT = auto()          # <
    GT = auto()          # >
    LE = auto()          # <=
    GE = auto()          # >=
    EQ = auto()          # ==
    NE = auto()          # !=
    ANDAND = auto()      # &&
    OROR = auto()        # ||
    PLUSPLUS = auto()    # ++
    MINUSMINUS = auto()  # --

    ASSIGN = auto()          # =
    PLUS_ASSIGN = auto()     # +=
    MINUS_ASSIGN = auto()    # -=
    STAR_ASSIGN = auto()     # *=
    SLASH_ASSIGN = auto()    # /=
    PERCENT_ASSIGN = auto()  # %=
    AMP_ASSIGN = auto()      # &=
    PIPE_ASSIGN = auto()     # |=
    CARET_ASSIGN = auto()    # ^=
    LSHIFT_ASSIGN = auto()   # <<=
    RSHIFT_ASSIGN = auto()   # >>=

    EOF = auto()

    # Members are singletons compared by identity, so the C-level
    # identity hash serves; Enum's own __hash__ is a Python call on
    # every dict and set lookup the parser makes.
    __hash__ = object.__hash__


KEYWORDS = {
    "auto": TokenKind.KW_AUTO,
    "break": TokenKind.KW_BREAK,
    "case": TokenKind.KW_CASE,
    "char": TokenKind.KW_CHAR,
    "const": TokenKind.KW_CONST,
    "continue": TokenKind.KW_CONTINUE,
    "default": TokenKind.KW_DEFAULT,
    "do": TokenKind.KW_DO,
    "double": TokenKind.KW_DOUBLE,
    "else": TokenKind.KW_ELSE,
    "enum": TokenKind.KW_ENUM,
    "extern": TokenKind.KW_EXTERN,
    "float": TokenKind.KW_FLOAT,
    "for": TokenKind.KW_FOR,
    "goto": TokenKind.KW_GOTO,
    "if": TokenKind.KW_IF,
    "inline": TokenKind.KW_INLINE,
    "int": TokenKind.KW_INT,
    "long": TokenKind.KW_LONG,
    "register": TokenKind.KW_REGISTER,
    "restrict": TokenKind.KW_RESTRICT,
    "return": TokenKind.KW_RETURN,
    "short": TokenKind.KW_SHORT,
    "signed": TokenKind.KW_SIGNED,
    "sizeof": TokenKind.KW_SIZEOF,
    "static": TokenKind.KW_STATIC,
    "struct": TokenKind.KW_STRUCT,
    "switch": TokenKind.KW_SWITCH,
    "typedef": TokenKind.KW_TYPEDEF,
    "union": TokenKind.KW_UNION,
    "unsigned": TokenKind.KW_UNSIGNED,
    "void": TokenKind.KW_VOID,
    "volatile": TokenKind.KW_VOLATILE,
    "while": TokenKind.KW_WHILE,
}

# Multi-character punctuators, longest first so the lexer can greedily match.
PUNCTUATORS = [
    ("...", TokenKind.ELLIPSIS),
    ("<<=", TokenKind.LSHIFT_ASSIGN),
    (">>=", TokenKind.RSHIFT_ASSIGN),
    ("->", TokenKind.ARROW),
    ("++", TokenKind.PLUSPLUS),
    ("--", TokenKind.MINUSMINUS),
    ("<<", TokenKind.LSHIFT),
    (">>", TokenKind.RSHIFT),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("&&", TokenKind.ANDAND),
    ("||", TokenKind.OROR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("&=", TokenKind.AMP_ASSIGN),
    ("|=", TokenKind.PIPE_ASSIGN),
    ("^=", TokenKind.CARET_ASSIGN),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (";", TokenKind.SEMI),
    (",", TokenKind.COMMA),
    (".", TokenKind.DOT),
    ("?", TokenKind.QUESTION),
    (":", TokenKind.COLON),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("&", TokenKind.AMP),
    ("|", TokenKind.PIPE),
    ("^", TokenKind.CARET),
    ("~", TokenKind.TILDE),
    ("!", TokenKind.BANG),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
    ("=", TokenKind.ASSIGN),
]


class Token:
    """A single lexical token with its source coordinates."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (
            self.kind.name,
            self.value,
            self.line,
            self.column,
        )

    def __eq__(self, other):
        if not isinstance(other, Token):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self):
        return hash((self.kind, self.value))

    @property
    def is_keyword(self):
        return self.kind.name.startswith("KW_")
