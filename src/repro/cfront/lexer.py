"""Lexer for the C subset: one compiled master regex.

Every token is one match of ``_TOKEN_RE``.  The ``SKIP`` alternative
swallows whitespace, both comment styles and line splices; line and
column come from the newline offsets in what it swallowed.
Preprocessor directives (lines starting with ``#``) are left to the
preprocessor — when the lexer is handed already-preprocessed text it
treats a stray ``#`` as an error.
"""

import re

from repro.cfront.errors import LexError
from repro.cfront.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_SIMPLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}

# One named group per token class, tried in order: the first that
# matches wins, so hex comes before the decimal classes, floats before
# ints, and the punctuators (already longest first) after both
# comment openers.  A string or character constant the STRING/CHAR
# patterns reject falls to OTHER, whose scan names the error.
_TOKEN_RE = re.compile("|".join("(?P<%s>%s)" % pair for pair in (
    ("SKIP", r"(?:[ \t\r\n\f\v]+|//[^\n]*|/\*.*?\*/|\\\n)+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("HEX", r"0[xX][0-9a-fA-F]+[uUlL]*"),
    ("BADHEX", r"0[xX]"),
    ("FLOAT", r"(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fFlL]?"
              r"|[0-9]+[eE][+-]?[0-9]+[fFlL]?"),
    ("INT", r"[0-9]+[uUlL]*"),
    ("STRING", r'"(?:[^"\\\n]|\\[^\n])*"'),
    ("CHAR", r"'(?:[^'\\]|\\(?:x[0-9a-fA-F]+|[^x\n]))'"),
    ("OPENCOMMENT", r"/\*"),
    ("PUNCT", "|".join(re.escape(text) for text, _ in PUNCTUATORS)),
    ("OTHER", r"."),
)), re.DOTALL)

_HEX_RUN = re.compile(r"[0-9a-fA-F]*")
_PUNCT_KINDS = dict(PUNCTUATORS)


def _error(message, source, offset, filename):
    """Raise a LexError at ``offset``, placed by its newline count."""
    line = source.count("\n", 0, offset) + 1
    column = offset - source.rfind("\n", 0, offset)
    raise LexError(message, line, column, filename)


def tokenize(source, filename="<source>"):
    """Tokenize ``source``; the list ends with an EOF token."""
    tokens = []
    append = tokens.append
    ident = TokenKind.IDENT
    keywords = KEYWORDS
    puncts = _PUNCT_KINDS
    line = 1
    line_start = 0          # offset of the current line's first char
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        text = match.group()
        if group == "SKIP":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
            continue
        start = match.start()
        column = start - line_start + 1
        if group == "PUNCT":
            append(Token(puncts[text], text, line, column))
        elif group == "IDENT":
            append(Token(keywords.get(text, ident), text, line, column))
        elif group == "INT":
            value = text.rstrip("uUlL")
            # a leading 0 makes the constant octal
            bad = value[0] == "0" and value.lstrip("01234567")
            if bad:
                _error("invalid digit %r in octal constant" % bad[0],
                       source, start, filename)
            append(Token(TokenKind.INT_CONST, value, line, column))
        elif group == "FLOAT":
            append(Token(TokenKind.FLOAT_CONST, text.rstrip("fFlL"),
                         line, column))
        elif group == "HEX":
            append(Token(TokenKind.INT_CONST, text.rstrip("uUlL"),
                         line, column))
        elif group == "STRING":
            value = text[1:-1]
            if "\\" in value:
                value = _scan_string(source, start, filename)
            append(Token(TokenKind.STRING, value, line, column))
        elif group == "CHAR":
            if text[1] == "\\":
                value = _scan_char(source, start, filename)
            else:
                value = text[1]
            append(Token(TokenKind.CHAR_CONST, value, line, column))
            if text[1] == "\n":        # a raw newline between the quotes
                line += 1
                line_start = start + 2
        elif group == "BADHEX":
            _error("malformed hex constant", source, start + 2, filename)
        elif group == "OPENCOMMENT":
            _error("unterminated block comment", source, len(source),
                   filename)
        elif text == '"':
            _scan_string(source, start, filename)
        elif text == "'":
            _scan_char(source, start, filename)
        elif text == "#":
            _error("preprocessor directive reached the lexer; "
                   "run the Preprocessor first", source, start, filename)
        else:
            _error("unexpected character %r" % text, source, start,
                   filename)
    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens


class Lexer:
    """Tokenizes a C source string; :func:`tokenize` does the work."""

    def __init__(self, source, filename="<source>"):
        self.source = source
        self.filename = filename

    def tokenize(self):
        """Return the full token list, terminated by an EOF token."""
        return tokenize(self.source, self.filename)


# -- string and character constants -------------------------------------------
#
# Cursor scans, used to decode escapes and to place the error of a
# literal the master regex rejected.


def _scan_string(source, start, filename):
    """The value of the string literal whose quote is at ``start``."""
    pos = start + 1
    end = len(source)
    chars = []
    while True:
        if pos >= end:
            _error("unterminated string literal", source, pos, filename)
        ch = source[pos]
        if ch == '"':
            return "".join(chars)
        if ch == "\n":
            _error("newline in string literal", source, pos, filename)
        if ch == "\\":
            ch, pos = _read_escape(source, pos + 1, filename)
        else:
            pos += 1
        chars.append(ch)


def _scan_char(source, start, filename):
    """The value of the character constant whose quote is at
    ``start``."""
    pos = start + 1
    if pos >= len(source):
        _error("unterminated character constant", source, pos, filename)
    ch = source[pos]
    if ch == "\\":
        value, pos = _read_escape(source, pos + 1, filename)
    elif ch == "'":
        _error("empty character constant", source, pos, filename)
    else:
        value = ch
        pos += 1
    if source[pos:pos + 1] != "'":
        _error("unterminated character constant", source, pos, filename)
    return value


def _read_escape(source, pos, filename):
    """Decode the escape whose backslash is at ``pos - 1``; returns the
    character and the offset after the escape.  Past the end of the
    input it reads "\\0", a character source text never holds."""
    ch = source[pos] if pos < len(source) else "\0"
    if ch in _SIMPLE_ESCAPES:
        return _SIMPLE_ESCAPES[ch], pos + 1
    if ch == "x":
        digits = _HEX_RUN.match(source, pos + 1).group()
        if not digits:
            _error("malformed hex escape", source, pos + 1, filename)
        return chr(int(digits, 16)), pos + 1 + len(digits)
    _error("unknown escape sequence \\%s" % ch, source, pos, filename)
