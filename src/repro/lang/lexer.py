"""Regex lexer for the mini-Fortran language.

The language is line oriented, as Fortran is: each physical line is a
statement (there is no continuation syntax in this subset), and a line
that holds a token ends with a NEWLINE token.  Comments start with ``!``
or a leading ``c``/``*`` column-1 marker and run to end of line.
Identifiers and keywords are case-insensitive and normalized to lower
case.

The character set is Fortran's: names are ``[A-Za-z_][A-Za-z0-9_]*`` and
integers ``[0-9]+``.  Any other character outside whitespace and the
operators — a non-ASCII letter or digit included — is a
:class:`ParseError` at its 1-based column.
"""

import re

from repro.lang.tokens import KEYWORDS, Token, TokenKind
from repro.util.errors import ParseError

#: Splits the source into consecutive pieces: every character lies in
#: exactly one match.  The alternatives are tried in order, so ``...``
#: and the two-character operators win over their one-character
#: prefixes, ``!=`` over a ``!`` comment, and the last alternative
#: catches every character nothing else accepts.  A column-1 comment
#: belongs to the newline before it (the scan starts at a virtual
#: newline, so the first line's comment does too); ``c`` starts one
#: only when a blank or the end of the line follows.
_TOKEN = re.compile(r"""
    [ \t\r]+
  | \n (?: \*[^\n]* | [cC](?![^ \n])[^\n]* )?
  | !(?!=)[^\n]*
  | [0-9]+
  | [A-Za-z_][A-Za-z0-9_]*
  | \.\.\. | [=/!<>]= | [<>=(),+\-*/:]
  | .
""", re.VERBOSE)

#: The kind of a piece that reads as an operator or a keyword.
_KINDS = {
    "...": TokenKind.DOTS,
    "==": TokenKind.EQ,
    "/=": TokenKind.NE,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "=": TokenKind.ASSIGN,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    ":": TokenKind.COLON,
    **KEYWORDS,
}

#: Blanks and ``!`` comments.
_SKIP = object()

#: The kind of any other piece, by its first character; a character
#: absent here is unexpected.
_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_"
                    "abcdefghijklmnopqrstuvwxyz", TokenKind.NAME),
    **dict.fromkeys("0123456789", TokenKind.INT),
    **dict.fromkeys(" \t\r!", _SKIP),
    "\n": TokenKind.NEWLINE,
}

#: Kinds the loop tests, as globals: ``TokenKind.NAME`` goes through the
#: enum's metaclass and costs about ten times a global lookup.
_NAME = TokenKind.NAME
_INT = TokenKind.INT
_NEWLINE = TokenKind.NEWLINE
#: Builds a :class:`Token` without the named tuple's Python-level
#: ``__new__``.
_token = tuple.__new__


def tokenize(source):
    """Tokenize ``source`` into a list of :class:`Token`, ending with EOF.

    Raises :class:`ParseError` on unrecognized characters.
    """
    tokens = []
    append = tokens.append
    kinds = _KINDS
    line = 0
    line_start = end = 0
    for text in _TOKEN.findall("\n" + source):
        start = end
        end += len(text)
        kind = kinds.get(text)
        if kind is None:
            kind = _FIRST.get(text[0])
            if kind is _NAME:
                text = text.lower()
                kind = kinds.get(text, _NAME)
            elif kind is not _INT:
                if kind is _SKIP:
                    continue
                if kind is not _NEWLINE:
                    raise ParseError(f"unexpected character {text!r}",
                                     line, start - line_start + 1)
                if tokens and tokens[-1][0] is not _NEWLINE:
                    append(_token(Token, (_NEWLINE, "\n", line,
                                          start - line_start + 1)))
                line += 1
                line_start = start + 1
                continue
        append(_token(Token, (kind, text, line, start - line_start + 1)))
    if tokens and tokens[-1][0] is not _NEWLINE:
        append(_token(Token, (_NEWLINE, "\n", line, end - line_start + 1)))
    append(_token(Token, (TokenKind.EOF, "", line, 1)))
    return tokens
