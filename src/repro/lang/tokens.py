"""Token kinds and the Token record for the mini-Fortran lexer."""

from enum import Enum, auto
from typing import NamedTuple


class TokenKind(Enum):
    """Lexical categories."""

    NAME = auto()        # identifiers: i, x, test
    INT = auto()         # integer literals: 77, 100
    DOTS = auto()        # the opaque expression '...'
    NEWLINE = auto()     # statement separator
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    ASSIGN = auto()      # =
    COLON = auto()       # : (used in section descriptors when re-parsing)
    LT = auto()
    GT = auto()
    LE = auto()
    GE = auto()
    EQ = auto()          # == (also .eq.)
    NE = auto()
    EOF = auto()

    # Keywords (lowercased in source, Fortran is case-insensitive)
    DO = auto()
    ENDDO = auto()
    IF = auto()
    THEN = auto()
    ELSE = auto()
    ENDIF = auto()
    GOTO = auto()
    CONTINUE = auto()
    REAL = auto()
    INTEGER = auto()
    PARAMETER = auto()
    DISTRIBUTE = auto()
    BLOCK = auto()
    CYCLIC = auto()
    REPLICATED = auto()


KEYWORDS = {
    "do": TokenKind.DO,
    "enddo": TokenKind.ENDDO,
    "if": TokenKind.IF,
    "then": TokenKind.THEN,
    "else": TokenKind.ELSE,
    "endif": TokenKind.ENDIF,
    "goto": TokenKind.GOTO,
    "continue": TokenKind.CONTINUE,
    "real": TokenKind.REAL,
    "integer": TokenKind.INTEGER,
    "parameter": TokenKind.PARAMETER,
    "distribute": TokenKind.DISTRIBUTE,
    "block": TokenKind.BLOCK,
    "cyclic": TokenKind.CYCLIC,
    "replicated": TokenKind.REPLICATED,
}


class Token(NamedTuple):
    """A single token with its source position (1-based).

    A named tuple, not a frozen dataclass: a program lexes into a few
    hundred tokens, and a tuple builds in about half the time."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self):
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"
