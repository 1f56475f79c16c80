"""Recursive-descent parser for the mini-Fortran language.

The grammar (one statement per line)::

    program    :=  line*
    line       :=  [INT] statement NEWLINE
    statement  :=  assignment | do | if | goto | continue
                 | declaration | parameter | distribute
    do         :=  'do' NAME '=' expr ',' expr [',' expr] NEWLINE
                   line* 'enddo'
    if         :=  'if' expr 'then' NEWLINE line* ['else' NEWLINE line*] 'endif'
                 | 'if' expr 'goto' INT
    assignment :=  lvalue '=' expr
    lvalue     :=  NAME ['(' arguments ')'] | '...'
    expr       :=  operand (binary-operator operand)*
    operand    :=  '-' operand | INT | '...' | '(' expr ')'
                 | NAME ['(' arguments ')']
    arguments  :=  argument (',' argument)*
    argument   :=  expr [':' expr]

Binary operators bind as usual: ``* /`` tighter than ``+ -``, both
tighter than the comparisons, all of them to the left; a unary minus
binds tightest and parses as ``0 - operand``.  :meth:`_Parser._parse_expr`
climbs the binding powers of :data:`_BINARY` in one loop.

Conditions may be written with or without parentheses (the paper writes
``if test then``).
"""

from repro.lang import ast
from repro.lang.tokens import TokenKind
from repro.lang.lexer import tokenize
from repro.util.errors import ParseError

#: Binary operators by token text, which only operator tokens spell this
#: way: the operator's AST spelling and its binding power.  String
#: keys, because a ``TokenKind`` key costs a Python-level
#: ``Enum.__hash__`` call on every lookup.
_BINARY = {
    "<": ("<", 1),
    ">": (">", 1),
    "<=": ("<=", 1),
    ">=": (">=", 1),
    "==": ("==", 1),
    "/=": ("!=", 1),
    "!=": ("!=", 1),
    "+": ("+", 2),
    "-": ("-", 2),
    "*": ("*", 3),
    "/": ("/", 3),
}

#: Token kinds as module globals: ``TokenKind.NAME`` goes through the
#: enum's metaclass and costs about ten times a global lookup.
_NAME = TokenKind.NAME
_INT = TokenKind.INT
_DOTS = TokenKind.DOTS
_NEWLINE = TokenKind.NEWLINE
_EOF = TokenKind.EOF
_LPAREN = TokenKind.LPAREN
_RPAREN = TokenKind.RPAREN
_COMMA = TokenKind.COMMA
_COLON = TokenKind.COLON
_MINUS = TokenKind.MINUS
_ASSIGN = TokenKind.ASSIGN
_DO = TokenKind.DO
_ENDDO = TokenKind.ENDDO
_IF = TokenKind.IF
_THEN = TokenKind.THEN
_ELSE = TokenKind.ELSE
_ENDIF = TokenKind.ENDIF
_GOTO = TokenKind.GOTO
_CONTINUE = TokenKind.CONTINUE
_DECLARATIONS = (TokenKind.REAL, TokenKind.INTEGER)
_PARAMETER = TokenKind.PARAMETER
_DISTRIBUTE = TokenKind.DISTRIBUTE
_SCHEMES = (TokenKind.BLOCK, TokenKind.CYCLIC, TokenKind.REPLICATED)


def parse(source):
    """Parse ``source`` text into an :class:`repro.lang.ast.Program`."""
    return _Parser(tokenize(source)).parse_program()


class _Parser:
    """Reads ``self._tokens[self._position]`` directly and steps past a
    token only once its kind is known, so it never steps past EOF."""

    def __init__(self, tokens):
        self._tokens = tokens
        self._position = 0

    def _expect(self, kind, what):
        token = self._tokens[self._position]
        if token.kind is not kind:
            raise ParseError(f"expected {what}, found {token.text!r}",
                             token.line, token.column)
        self._position += 1
        return token

    def _end_of_statement(self):
        """Step past the NEWLINE that ends a statement; a body's loop
        (:meth:`_parse_body`) skips any further ones."""
        token = self._tokens[self._position]
        if token.kind is _NEWLINE:
            self._position += 1
        elif token.kind is not _EOF:
            raise ParseError(f"unexpected trailing input {token.text!r}",
                             token.line, token.column)

    # -- statements ---------------------------------------------------------

    def parse_program(self):
        return ast.Program(self._parse_body(()))

    def _parse_body(self, terminators):
        """Parse statements until one of ``terminators`` (or EOF) is next."""
        tokens = self._tokens
        statements = []
        while True:
            kind = tokens[self._position].kind
            if kind is _NEWLINE:
                self._position += 1
            elif kind is _EOF or kind in terminators:
                return statements
            else:
                statements.append(self._parse_labeled_statement())

    def _parse_labeled_statement(self):
        token = self._tokens[self._position]
        label = None
        if token.kind is _INT:
            label = int(token.text)
            self._position += 1
            token = self._tokens[self._position]
        kind = token.kind
        if kind is _NAME or kind is _DOTS:
            statement = self._parse_assignment(token)
        elif kind is _DO:
            statement = self._parse_do(token)
        elif kind is _IF:
            statement = self._parse_if(token)
        elif kind is _GOTO:
            self._position += 1
            target = int(self._expect(_INT, "label").text)
            self._end_of_statement()
            statement = ast.Goto(target, line=token.line)
        elif kind is _CONTINUE:
            self._position += 1
            self._end_of_statement()
            statement = ast.Continue(line=token.line)
        elif kind in _DECLARATIONS:
            statement = self._parse_declaration(token)
        elif kind is _PARAMETER:
            self._position += 1
            name = self._expect(_NAME, "parameter name").text
            self._expect(_ASSIGN, "'='")
            value = self._parse_expr()
            self._end_of_statement()
            statement = ast.ParameterDef(name, value, line=token.line)
        elif kind is _DISTRIBUTE:
            statement = self._parse_distribute(token)
        else:
            raise ParseError(f"unexpected token {token.text!r}", token.line,
                             token.column)
        statement.label = label
        return statement

    def _parse_assignment(self, start):
        target = self._parse_operand()
        self._expect(_ASSIGN, "'='")
        value = self._parse_expr()
        self._end_of_statement()
        return ast.Assign(target, value, line=start.line)

    def _parse_do(self, do_token):
        self._position += 1
        var = self._expect(_NAME, "loop variable").text
        self._expect(_ASSIGN, "'='")
        lo = self._parse_expr()
        self._expect(_COMMA, "','")
        hi = self._parse_expr()
        if self._tokens[self._position].kind is _COMMA:
            self._position += 1
            step = self._parse_expr()
        else:
            step = ast.Num(1)
        self._end_of_statement()
        body = self._parse_body((_ENDDO,))
        self._expect(_ENDDO, "'enddo'")
        self._end_of_statement()
        return ast.Do(var, lo, hi, step, body, line=do_token.line)

    def _parse_if(self, if_token):
        self._position += 1
        cond = self._parse_expr()
        if self._tokens[self._position].kind is _GOTO:
            self._position += 1
            target = int(self._expect(_INT, "label").text)
            self._end_of_statement()
            return ast.IfGoto(cond, target, line=if_token.line)
        self._expect(_THEN, "'then' or 'goto'")
        self._end_of_statement()
        then_body = self._parse_body((_ELSE, _ENDIF))
        else_body = []
        if self._tokens[self._position].kind is _ELSE:
            self._position += 1
            self._end_of_statement()
            else_body = self._parse_body((_ENDIF,))
        self._expect(_ENDIF, "'endif'")
        self._end_of_statement()
        return ast.If(cond, then_body, else_body, line=if_token.line)

    def _parse_declaration(self, type_token):
        self._position += 1
        name = self._expect(_NAME, "variable name").text
        size = None
        if self._tokens[self._position].kind is _LPAREN:
            self._position += 1
            size = self._parse_expr()
            self._expect(_RPAREN, "')'")
        self._end_of_statement()
        return ast.Declaration(type_token.text, name, size,
                               line=type_token.line)

    def _parse_distribute(self, distribute_token):
        self._position += 1
        name = self._expect(_NAME, "array name").text
        self._expect(_LPAREN, "'('")
        scheme_token = self._tokens[self._position]
        if scheme_token.kind not in _SCHEMES:
            raise ParseError(
                "expected distribution scheme (block/cyclic/replicated), "
                f"found {scheme_token.text!r}",
                scheme_token.line,
                scheme_token.column,
            )
        self._position += 1
        self._expect(_RPAREN, "')'")
        self._end_of_statement()
        return ast.Distribute(name, scheme_token.text,
                              line=distribute_token.line)

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self, min_power=1):
        """An expression whose binary operators bind at least as tightly
        as ``min_power``: each operand is followed by operators of that
        power or more, whose right operands bind one step tighter, so
        operators of equal power group to the left."""
        left = self._parse_operand()
        tokens = self._tokens
        while True:
            binary = _BINARY.get(tokens[self._position].text)
            if binary is None or binary[1] < min_power:
                return left
            self._position += 1
            op, power = binary
            left = ast.BinOp(op, left, self._parse_expr(power + 1))

    def _parse_operand(self):
        tokens = self._tokens
        token = tokens[self._position]
        kind = token.kind
        if kind is _NAME:
            self._position += 1
            if tokens[self._position].kind is _LPAREN:
                return ast.ArrayRef(token.text, self._parse_arguments())
            return ast.Var(token.text)
        if kind is _INT:
            self._position += 1
            return ast.Num(int(token.text))
        if kind is _DOTS:
            self._position += 1
            return ast.Opaque()
        if kind is _MINUS:
            self._position += 1
            return ast.BinOp("-", ast.Num(0), self._parse_operand())
        if kind is _LPAREN:
            self._position += 1
            inner = self._parse_expr()
            self._expect(_RPAREN, "')'")
            return inner
        raise ParseError(f"expected expression, found {token.text!r}",
                         token.line, token.column)

    def _parse_arguments(self):
        """``'(' argument (',' argument)* ')'``, the opening parenthesis
        next; an argument is an expression or a range ``lo:hi``."""
        tokens = self._tokens
        arguments = []
        while True:
            self._position += 1  # past '(' or ','
            argument = self._parse_expr()
            if tokens[self._position].kind is _COLON:
                self._position += 1
                argument = ast.RangeExpr(argument, self._parse_expr())
            arguments.append(argument)
            if tokens[self._position].kind is not _COMMA:
                break
        self._expect(_RPAREN, "')'")
        return tuple(arguments)
