"""Lexer unit tests."""

import pytest

from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind
from repro.util.errors import ParseError


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind not in
            (TokenKind.NEWLINE, TokenKind.EOF)]


def test_simple_assignment():
    assert kinds("x = 1") == [TokenKind.NAME, TokenKind.ASSIGN, TokenKind.INT]


def test_keywords_are_recognized():
    assert kinds("do enddo if then else endif goto continue") == [
        TokenKind.DO, TokenKind.ENDDO, TokenKind.IF, TokenKind.THEN,
        TokenKind.ELSE, TokenKind.ENDIF, TokenKind.GOTO, TokenKind.CONTINUE,
    ]


def test_case_insensitive_keywords_and_names():
    tokens = tokenize("DO I = 1, N")
    assert tokens[0].kind == TokenKind.DO
    assert tokens[1].text == "i"
    assert tokens[5].text == "n"


def test_dots_token():
    assert kinds("x = ...") == [TokenKind.NAME, TokenKind.ASSIGN, TokenKind.DOTS]


def test_operators():
    assert kinds("a + b - c * d / e") == [
        TokenKind.NAME, TokenKind.PLUS, TokenKind.NAME, TokenKind.MINUS,
        TokenKind.NAME, TokenKind.STAR, TokenKind.NAME, TokenKind.SLASH,
        TokenKind.NAME,
    ]


def test_comparisons():
    assert kinds("a < b <= c > d >= e == f != g") == [
        TokenKind.NAME, TokenKind.LT, TokenKind.NAME, TokenKind.LE,
        TokenKind.NAME, TokenKind.GT, TokenKind.NAME, TokenKind.GE,
        TokenKind.NAME, TokenKind.EQ, TokenKind.NAME, TokenKind.NE,
        TokenKind.NAME,
    ]


def test_parens_comma_colon():
    assert kinds("x(1:n, i)") == [
        TokenKind.NAME, TokenKind.LPAREN, TokenKind.INT, TokenKind.COLON,
        TokenKind.NAME, TokenKind.COMMA, TokenKind.NAME, TokenKind.RPAREN,
    ]


def test_bang_comment_stripped():
    assert kinds("x = 1 ! a comment with do if") == [
        TokenKind.NAME, TokenKind.ASSIGN, TokenKind.INT,
    ]


def test_classic_comment_line():
    assert kinds("c this is a comment\nx = 1") == [
        TokenKind.NAME, TokenKind.ASSIGN, TokenKind.INT,
    ]


def test_star_comment_line():
    assert kinds("* comment\nx = 2") == [
        TokenKind.NAME, TokenKind.ASSIGN, TokenKind.INT,
    ]


def test_positions_are_one_based():
    tokens = tokenize("x = 1\n  y = 2")
    y = [t for t in tokens if t.text == "y"][0]
    assert (y.line, y.column) == (2, 3)


def test_newline_tokens_separate_statements():
    tokens = tokenize("x = 1\ny = 2")
    assert TokenKind.NEWLINE in [t.kind for t in tokens]


def test_unexpected_character_raises():
    with pytest.raises(ParseError) as excinfo:
        tokenize("x = @")
    assert "line 1" in str(excinfo.value)


def test_distribution_keywords():
    assert kinds("distribute x(block)") == [
        TokenKind.DISTRIBUTE, TokenKind.NAME, TokenKind.LPAREN,
        TokenKind.BLOCK, TokenKind.RPAREN,
    ]


def test_numbers_lex_as_integers():
    tokens = [t for t in tokenize("77 x = 123") if t.kind == TokenKind.INT]
    assert [t.text for t in tokens] == ["77", "123"]


def test_eof_is_last():
    assert tokenize("")[-1].kind == TokenKind.EOF


def test_names_and_integers_use_the_ascii_character_set():
    tokens = tokenize("x_1 = A2 + 10b")
    assert [(t.kind, t.text) for t in tokens[:6]] == [
        (TokenKind.NAME, "x_1"), (TokenKind.ASSIGN, "="),
        (TokenKind.NAME, "a2"), (TokenKind.PLUS, "+"),
        (TokenKind.INT, "10"), (TokenKind.NAME, "b"),
    ]


@pytest.mark.parametrize("source, char, column", [
    ("x(1) = \u00b2", "\u00b2", 8),     # superscript two: str.isdigit()
    ("y = \u0663 + 1", "\u0663", 5),    # Arabic-Indic three: a digit too
    ("\u00e9 = 1", "\u00e9", 1),        # a non-ASCII letter cannot start
    ("x\u00e9 = 1", "\u00e9", 2),       # ... or continue a name
    ("x = 1\u00a0+ 2", "\u00a0", 6),    # a no-break space is no blank
])
def test_non_ascii_characters_are_unexpected(source, char, column):
    with pytest.raises(ParseError) as excinfo:
        tokenize("real x(10)\n" + source)
    assert (excinfo.value.line, excinfo.value.column) == (2, column)
    assert str(excinfo.value).endswith(f"unexpected character {char!r}")


def test_tokens_are_named_tuples_with_positions():
    token = tokenize("do")[0]
    assert token == (TokenKind.DO, "do", 1, 1)
    assert (token.kind, token.text, token.line, token.column) == tuple(token)
    assert repr(token) == "Token(DO, 'do', 1:1)"
