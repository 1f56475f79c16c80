"""Regex lexer for the mini-Fortran language.

The lexer is line oriented, as Fortran is: each physical line is a
statement (there is no continuation syntax in this subset).  Comments start
with ``!`` or a leading ``c``/``*`` column-1 marker and run to end of line.
Identifiers and keywords are case-insensitive and normalized to lower case.

The character set is Fortran's: names are ``[A-Za-z_][A-Za-z0-9_]*`` and
integers ``[0-9]+``.  Any other character outside whitespace and the
operators — a non-ASCII letter or digit included — is a
:class:`ParseError` at its 1-based column.
"""

import re

from repro.lang.tokens import KEYWORDS, Token, TokenKind
from repro.util.errors import ParseError

#: One token per match; the alternatives are tried in order, so ``...``
#: and the two-character operators win over their one-character
#: prefixes, and ``bad`` catches every character nothing else accepts.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r]+)
  | (?P<int>[0-9]+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\.\.\.|==|/=|!=|<=|>=|[<>=(),+\-*/:])
  | (?P<bad>.)
""", re.VERBOSE)

_OPERATORS = {
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
}


def tokenize(source):
    """Tokenize ``source`` into a list of :class:`Token`, ending with EOF.

    Raises :class:`ParseError` on unrecognized characters.
    """
    tokens = []
    append = tokens.append
    for line_number, raw_line in enumerate(source.split("\n"), start=1):
        for match in _TOKEN.finditer(_strip_comment(raw_line)):
            group = match.lastgroup
            if group == "space":
                continue
            text = match.group()
            if group == "name":
                text = text.lower()
                kind = KEYWORDS.get(text, TokenKind.NAME)
            elif group == "int":
                kind = TokenKind.INT
            elif group == "op":
                kind = _OPERATORS[text]
            else:
                raise ParseError(f"unexpected character {text!r}",
                                 line_number, match.start() + 1)
            append(Token(kind, text, line_number, match.start() + 1))
        if tokens and tokens[-1].kind is not TokenKind.NEWLINE:
            append(Token(TokenKind.NEWLINE, "\n", line_number,
                         len(raw_line) + 1))
    append(Token(TokenKind.EOF, "", source.count("\n") + 1, 1))
    return tokens


def _strip_comment(line):
    """Remove a ``!`` comment and classic column-1 ``c``/``*`` comments.

    A ``!`` immediately followed by ``=`` is the not-equal operator, not
    a comment start.
    """
    if line[:1] in ("*",) or (line[:1] in ("c", "C") and line[1:2] in ("", " ")):
        return ""
    cut = 0
    while True:
        cut = line.find("!", cut)
        if cut < 0:
            return line
        if line[cut:cut + 2] == "!=":
            cut += 2
            continue
        return line[:cut]
