"""Lexer unit tests."""

import pytest

from repro.cfront.errors import LexError
from repro.cfront.lexer import Lexer, tokenize
from repro.cfront.tokens import TokenKind as K


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [t.value for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is K.EOF

    def test_whitespace_only(self):
        assert kinds("  \t\n  \r\n") == []

    def test_identifier(self):
        assert kinds("foo") == [K.IDENT]

    def test_identifier_with_underscore_and_digits(self):
        assert values("_foo_2bar") == ["_foo_2bar"]

    def test_keyword_recognized(self):
        assert kinds("while") == [K.KW_WHILE]

    def test_keyword_prefix_is_identifier(self):
        assert kinds("whilex") == [K.IDENT]

    def test_all_keywords(self):
        source = "int char void for if else return struct typedef"
        assert kinds(source) == [
            K.KW_INT, K.KW_CHAR, K.KW_VOID, K.KW_FOR, K.KW_IF,
            K.KW_ELSE, K.KW_RETURN, K.KW_STRUCT, K.KW_TYPEDEF,
        ]


class TestNumbers:
    def test_decimal_int(self):
        token = tokenize("42")[0]
        assert token.kind is K.INT_CONST
        assert token.value == "42"

    def test_hex_int(self):
        token = tokenize("0xFF")[0]
        assert token.kind is K.INT_CONST
        assert int(token.value, 0) == 255

    def test_int_suffixes_skipped(self):
        assert kinds("10UL 5LL 7u") == [K.INT_CONST] * 3

    def test_float(self):
        token = tokenize("3.25")[0]
        assert token.kind is K.FLOAT_CONST

    def test_float_exponent(self):
        assert kinds("1e10 1.5e-3 2E+4") == [K.FLOAT_CONST] * 3

    def test_float_leading_dot(self):
        assert kinds(".5") == [K.FLOAT_CONST]

    def test_float_suffix(self):
        assert kinds("1.0f") == [K.FLOAT_CONST]

    def test_integer_then_member_access_not_float(self):
        # "x.y" after ident must not eat the dot as a float
        assert kinds("a.b") == [K.IDENT, K.DOT, K.IDENT]

    def test_malformed_hex_raises(self):
        with pytest.raises(LexError):
            tokenize("0x")

    @pytest.mark.parametrize("literal, digit", [
        ("08", "8"), ("09", "9"), ("0189", "8"), ("0791L", "9")])
    def test_octal_rejects_8_and_9_at_the_literal(self, literal, digit):
        with pytest.raises(LexError) as info:
            tokenize("int x =\n  %s;" % literal, "oct.c")
        assert info.value.message == \
            "invalid digit '%s' in octal constant" % digit
        assert (info.value.line, info.value.column) == (2, 3)
        assert info.value.filename == "oct.c"

    def test_only_integer_constants_are_octal(self):
        # a leading zero makes an integer octal; floats stay decimal
        tokens = tokenize("017u 00 010.5 09.5 08e1")[:-1]
        assert [(t.kind, t.value) for t in tokens] == [
            (K.INT_CONST, "017"), (K.INT_CONST, "00"),
            (K.FLOAT_CONST, "010.5"), (K.FLOAT_CONST, "09.5"),
            (K.FLOAT_CONST, "08e1")]
        with pytest.raises(LexError):
            tokenize("08u")


class TestStringsAndChars:
    def test_string(self):
        token = tokenize('"hello"')[0]
        assert token.kind is K.STRING
        assert token.value == "hello"

    def test_string_escapes(self):
        token = tokenize(r'"a\nb\tc\\d"')[0]
        assert token.value == "a\nb\tc\\d"

    def test_hex_escape(self):
        token = tokenize(r'"\x41"')[0]
        assert token.value == "A"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')

    def test_char_constant(self):
        token = tokenize("'x'")[0]
        assert token.kind is K.CHAR_CONST
        assert token.value == "x"

    def test_char_escape(self):
        token = tokenize(r"'\n'")[0]
        assert token.value == "\n"

    def test_empty_char_raises(self):
        with pytest.raises(LexError):
            tokenize("''")


class TestOperators:
    def test_multichar_greedy(self):
        assert kinds("<<= >>= ... -> ++ -- << >>") == [
            K.LSHIFT_ASSIGN, K.RSHIFT_ASSIGN, K.ELLIPSIS, K.ARROW,
            K.PLUSPLUS, K.MINUSMINUS, K.LSHIFT, K.RSHIFT,
        ]

    def test_compound_assignment(self):
        assert kinds("+= -= *= /= %= &= |= ^=") == [
            K.PLUS_ASSIGN, K.MINUS_ASSIGN, K.STAR_ASSIGN,
            K.SLASH_ASSIGN, K.PERCENT_ASSIGN, K.AMP_ASSIGN,
            K.PIPE_ASSIGN, K.CARET_ASSIGN,
        ]

    def test_comparison(self):
        assert kinds("< > <= >= == !=") == [
            K.LT, K.GT, K.LE, K.GE, K.EQ, K.NE,
        ]

    def test_plusplus_vs_plus(self):
        assert kinds("a+++b") == [K.IDENT, K.PLUSPLUS, K.PLUS, K.IDENT]


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\n b") == [K.IDENT, K.IDENT]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [K.IDENT, K.IDENT]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* oops")

    def test_comment_inside_string_preserved(self):
        token = tokenize('"/* not a comment */"')[0]
        assert token.value == "/* not a comment */"


class TestCoordinates:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  bb\nccc")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)
        assert (tokens[2].line, tokens[2].column) == (3, 1)

    def test_error_carries_position(self):
        with pytest.raises(LexError) as info:
            tokenize("abc\n  @")
        assert info.value.line == 2
        assert info.value.column == 3

    def test_preprocessor_directive_rejected(self):
        with pytest.raises(LexError):
            tokenize("#include <x.h>")

    def test_line_continuation_in_code(self):
        assert kinds("a\\\nb") == [K.IDENT, K.IDENT]


class TestFullProgram:
    def test_example_4_1_token_stream(self):
        source = """
        int sum[3] = {0};
        void *tf(void *tid) { return NULL; }
        """
        token_kinds = kinds(source)
        assert K.KW_INT in token_kinds
        assert K.LBRACKET in token_kinds
        assert K.STAR in token_kinds
        assert token_kinds[-1] is K.RBRACE

    def test_lexer_object_reusable_state(self):
        lexer = Lexer("int x;")
        tokens = lexer.tokenize()
        assert [t.kind for t in tokens] == [
            K.KW_INT, K.IDENT, K.SEMI, K.EOF]
