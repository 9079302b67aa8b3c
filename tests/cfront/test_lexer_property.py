"""Property: random token sequences, joined by random whitespace,
comments and line splices, lex back to the same kinds and values at
the line and column where the generator put them."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.lexer import tokenize
from repro.cfront.tokens import KEYWORDS, PUNCTUATORS, TokenKind as K

_INT_SUFFIXES = ["", "u", "U", "l", "L", "ul", "UL", "lu", "LL", "ull"]
_FLOAT_SUFFIXES = ["", "f", "F", "l", "L"]
# plain literal characters: no hex digit, so none can extend a \x
# escape before it, and no quote, backslash or newline
_PLAIN = ("ghijklmnopqrstuvwxyzGHIJKLMNOPQRSTUVWXYZ"
          " !#$%&()*+,-./:;<=>?@[]^_`{|}~")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
            "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f",
            "v": "\v"}

_digits = st.text("0123456789", min_size=1, max_size=4)


def _token(kind, value, text=None):
    return (kind, value, value if text is None else text)


_identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}",
                             fullmatch=True).filter(
    lambda name: name not in KEYWORDS).map(
    lambda name: _token(K.IDENT, name))
_keywords = st.sampled_from(sorted(KEYWORDS)).map(
    lambda word: _token(KEYWORDS[word], word))
_punctuators = st.sampled_from(PUNCTUATORS).map(
    lambda pair: _token(pair[1], pair[0]))


@st.composite
def _int_constants(draw):
    form = draw(st.sampled_from(["hex", "octal", "decimal"]))
    if form == "hex":
        value = draw(st.sampled_from(["0x", "0X"])) + draw(
            st.text("0123456789abcdefABCDEF", min_size=1, max_size=6))
    elif form == "octal":
        value = "0" + draw(st.text("01234567", max_size=5))
    else:
        value = draw(st.sampled_from("123456789")) + draw(
            st.text("0123456789", max_size=5))
    return _token(K.INT_CONST, value,
                  value + draw(st.sampled_from(_INT_SUFFIXES)))


@st.composite
def _float_constants(draw):
    form = draw(st.sampled_from(["point", "leading", "exponent"]))
    if form == "point":
        value = draw(_digits) + "." + draw(
            st.text("0123456789", max_size=4))
    elif form == "leading":
        value = "." + draw(_digits)
    else:
        value = draw(_digits)
    if form == "exponent" or draw(st.booleans()):
        value += draw(st.sampled_from(["e", "E"])) + draw(
            st.sampled_from(["", "+", "-"])) + draw(_digits)
    return _token(K.FLOAT_CONST, value,
                  value + draw(st.sampled_from(_FLOAT_SUFFIXES)))


@st.composite
def _literal_char(draw, quote):
    """One character of a string or char literal: (value, text)."""
    form = draw(st.sampled_from(["plain", "escape", "hex"]))
    if form == "plain":
        ch = draw(st.sampled_from(_PLAIN + ('"' if quote == "'" else "'")))
        return ch, ch
    if form == "escape":
        key = draw(st.sampled_from(sorted(_ESCAPES)))
        return _ESCAPES[key], "\\" + key
    code = draw(st.integers(min_value=1, max_value=255))
    return chr(code), "\\x%02x" % code


@st.composite
def _strings(draw):
    pieces = draw(st.lists(_literal_char('"'), max_size=6))
    return _token(K.STRING, "".join(value for value, _ in pieces),
                  '"%s"' % "".join(text for _, text in pieces))


@st.composite
def _chars(draw):
    value, text = draw(_literal_char("'"))
    return _token(K.CHAR_CONST, value, "'%s'" % text)


_tokens = st.one_of(_identifiers, _keywords, _punctuators,
                    _int_constants(), _float_constants(), _strings(),
                    _chars())

_comment_text = st.text("abc xyz+-=;\t", max_size=8)
_separator_parts = st.one_of(
    st.sampled_from([" ", "\t", "\n", "\r\n", "\f", "\v", "\\\n"]),
    _comment_text.map(lambda text: "//%s\n" % text),
    st.text("abc xyz+-=;\n\t", max_size=8).map(
        lambda text: "/*%s*/" % text),
)
# whitespace first, so a comment never follows a '/' token directly
_separators = st.tuples(
    st.sampled_from([" ", "\t", "\n"]),
    st.lists(_separator_parts, max_size=3),
).map(lambda parts: parts[0] + "".join(parts[1]))


def _position(text):
    """Line and column of the next character appended to ``text``."""
    return text.count("\n") + 1, len(text) - text.rfind("\n")


class TestTokenStreamRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_separators, _tokens), max_size=25),
           _separators)
    def test_tokens_come_back_where_they_were_put(self, items, tail):
        source = ""
        expected = []
        for separator, (kind, value, text) in items:
            source += separator
            line, column = _position(source)
            expected.append((kind, value, line, column))
            source += text
        source += tail
        expected.append((K.EOF, "") + _position(source))
        tokens = tokenize(source, "gen.c")
        assert [(t.kind, t.value, t.line, t.column)
                for t in tokens] == expected
