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
    lvalue     :=  NAME ['(' arguments ')']
    expr       :=  comparison; usual precedence, '...' is a primary

Conditions may be written with or without parentheses (the paper writes
``if test then``).
"""

from repro.lang import ast
from repro.lang.tokens import TokenKind
from repro.lang.lexer import tokenize
from repro.util.errors import ParseError

#: Binary operators by token text, which only operator tokens spell
#: this way.  String keys, because a ``TokenKind`` key costs a
#: Python-level ``Enum.__hash__`` call on every lookup.
_COMPARISON_OPS = {
    "<": "<",
    ">": ">",
    "<=": "<=",
    ">=": ">=",
    "==": "==",
    "/=": "!=",
    "!=": "!=",
}

_ADDITIVE_OPS = {"+": "+", "-": "-"}
_MULTIPLICATIVE_OPS = {"*": "*", "/": "/"}


def parse(source):
    """Parse ``source`` text into an :class:`repro.lang.ast.Program`."""
    return _Parser(tokenize(source)).parse_program()


class _Parser:
    def __init__(self, tokens):
        self._tokens = tokens
        self._position = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self):
        return self._tokens[self._position]

    def _at(self, *kinds):
        return self._peek().kind in kinds

    def _advance(self):
        token = self._tokens[self._position]
        if token.kind != TokenKind.EOF:
            self._position += 1
        return token

    def _expect(self, kind, what=None):
        token = self._peek()
        if token.kind != kind:
            expected = what or kind.name.lower()
            raise ParseError(
                f"expected {expected}, found {token.text!r}", token.line, token.column
            )
        return self._advance()

    def _skip_newlines(self):
        tokens = self._tokens
        while tokens[self._position].kind is TokenKind.NEWLINE:
            self._position += 1

    def _end_of_statement(self):
        token = self._peek()
        if not self._at(TokenKind.NEWLINE, TokenKind.EOF):
            raise ParseError(
                f"unexpected trailing input {token.text!r}", token.line, token.column
            )
        self._skip_newlines()

    # -- statements ---------------------------------------------------------

    def parse_program(self):
        body = self._parse_body(terminators=())
        self._expect(TokenKind.EOF, "end of program")
        return ast.Program(body)

    def _parse_body(self, terminators):
        """Parse statements until one of ``terminators`` (or EOF) is next."""
        statements = []
        self._skip_newlines()
        while not self._at(TokenKind.EOF, *terminators):
            statements.append(self._parse_labeled_statement())
            self._skip_newlines()
        return statements

    def _parse_labeled_statement(self):
        label = None
        if self._at(TokenKind.INT):
            label_token = self._advance()
            label = int(label_token.text)
        statement = self._parse_statement()
        statement.label = label
        return statement

    def _parse_statement(self):
        token = self._peek()
        if token.kind == TokenKind.DO:
            return self._parse_do()
        if token.kind == TokenKind.IF:
            return self._parse_if()
        if token.kind == TokenKind.GOTO:
            return self._parse_goto()
        if token.kind == TokenKind.CONTINUE:
            self._advance()
            statement = ast.Continue(line=token.line)
            self._end_of_statement()
            return statement
        if token.kind in (TokenKind.REAL, TokenKind.INTEGER):
            return self._parse_declaration()
        if token.kind == TokenKind.PARAMETER:
            return self._parse_parameter()
        if token.kind == TokenKind.DISTRIBUTE:
            return self._parse_distribute()
        if token.kind in (TokenKind.NAME, TokenKind.DOTS):
            return self._parse_assignment()
        raise ParseError(f"unexpected token {token.text!r}", token.line, token.column)

    def _parse_do(self):
        do_token = self._expect(TokenKind.DO)
        var = self._expect(TokenKind.NAME, "loop variable").text
        self._expect(TokenKind.ASSIGN, "'='")
        lo = self._parse_expr()
        self._expect(TokenKind.COMMA, "','")
        hi = self._parse_expr()
        step = ast.Num(1)
        if self._at(TokenKind.COMMA):
            self._advance()
            step = self._parse_expr()
        self._end_of_statement()
        body = self._parse_body(terminators=(TokenKind.ENDDO,))
        self._expect(TokenKind.ENDDO, "'enddo'")
        self._end_of_statement()
        return ast.Do(var, lo, hi, step, body, line=do_token.line)

    def _parse_if(self):
        if_token = self._expect(TokenKind.IF)
        cond = self._parse_expr()
        if self._at(TokenKind.GOTO):
            self._advance()
            target = int(self._expect(TokenKind.INT, "label").text)
            self._end_of_statement()
            return ast.IfGoto(cond, target, line=if_token.line)
        self._expect(TokenKind.THEN, "'then' or 'goto'")
        self._end_of_statement()
        then_body = self._parse_body(terminators=(TokenKind.ELSE, TokenKind.ENDIF))
        else_body = []
        if self._at(TokenKind.ELSE):
            self._advance()
            self._end_of_statement()
            else_body = self._parse_body(terminators=(TokenKind.ENDIF,))
        self._expect(TokenKind.ENDIF, "'endif'")
        self._end_of_statement()
        return ast.If(cond, then_body, else_body, line=if_token.line)

    def _parse_goto(self):
        goto_token = self._expect(TokenKind.GOTO)
        target = int(self._expect(TokenKind.INT, "label").text)
        self._end_of_statement()
        return ast.Goto(target, line=goto_token.line)

    def _parse_declaration(self):
        type_token = self._advance()
        name = self._expect(TokenKind.NAME, "variable name").text
        size = None
        if self._at(TokenKind.LPAREN):
            self._advance()
            size = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
        self._end_of_statement()
        return ast.Declaration(type_token.text, name, size, line=type_token.line)

    def _parse_parameter(self):
        parameter_token = self._expect(TokenKind.PARAMETER)
        name = self._expect(TokenKind.NAME, "parameter name").text
        self._expect(TokenKind.ASSIGN, "'='")
        value = self._parse_expr()
        self._end_of_statement()
        return ast.ParameterDef(name, value, line=parameter_token.line)

    def _parse_distribute(self):
        distribute_token = self._expect(TokenKind.DISTRIBUTE)
        name = self._expect(TokenKind.NAME, "array name").text
        self._expect(TokenKind.LPAREN, "'('")
        scheme_token = self._peek()
        if scheme_token.kind not in (
            TokenKind.BLOCK,
            TokenKind.CYCLIC,
            TokenKind.REPLICATED,
        ):
            raise ParseError(
                "expected distribution scheme (block/cyclic/replicated), "
                f"found {scheme_token.text!r}",
                scheme_token.line,
                scheme_token.column,
            )
        self._advance()
        self._expect(TokenKind.RPAREN, "')'")
        self._end_of_statement()
        return ast.Distribute(name, scheme_token.text, line=distribute_token.line)

    def _parse_assignment(self):
        start = self._peek()
        target = self._parse_primary()
        if not isinstance(target, (ast.Var, ast.ArrayRef, ast.Opaque)):
            raise ParseError("invalid assignment target", start.line, start.column)
        self._expect(TokenKind.ASSIGN, "'='")
        value = self._parse_expr()
        self._end_of_statement()
        return ast.Assign(target, value, line=start.line)

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self):
        return self._parse_comparison()

    def _parse_comparison(self):
        left = self._parse_additive()
        while self._peek().text in _COMPARISON_OPS:
            op = _COMPARISON_OPS[self._advance().text]
            right = self._parse_additive()
            left = ast.BinOp(op, left, right)
        return left

    def _parse_additive(self):
        left = self._parse_multiplicative()
        while self._peek().text in _ADDITIVE_OPS:
            op = _ADDITIVE_OPS[self._advance().text]
            right = self._parse_multiplicative()
            left = ast.BinOp(op, left, right)
        return left

    def _parse_multiplicative(self):
        left = self._parse_unary()
        while self._peek().text in _MULTIPLICATIVE_OPS:
            op = _MULTIPLICATIVE_OPS[self._advance().text]
            right = self._parse_unary()
            left = ast.BinOp(op, left, right)
        return left

    def _parse_unary(self):
        if self._at(TokenKind.MINUS):
            token = self._advance()
            operand = self._parse_unary()
            return ast.BinOp("-", ast.Num(0), operand)
        return self._parse_primary()

    def _parse_primary(self):
        token = self._peek()
        if token.kind == TokenKind.INT:
            self._advance()
            return ast.Num(int(token.text))
        if token.kind == TokenKind.DOTS:
            self._advance()
            return ast.Opaque()
        if token.kind == TokenKind.LPAREN:
            self._advance()
            inner = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            return inner
        if token.kind == TokenKind.NAME:
            self._advance()
            if self._at(TokenKind.LPAREN):
                self._advance()
                arguments = self._parse_arguments()
                self._expect(TokenKind.RPAREN, "')'")
                return ast.ArrayRef(token.text, tuple(arguments))
            return ast.Var(token.text)
        raise ParseError(f"expected expression, found {token.text!r}", token.line, token.column)

    def _parse_arguments(self):
        arguments = [self._parse_argument()]
        while self._at(TokenKind.COMMA):
            self._advance()
            arguments.append(self._parse_argument())
        return arguments

    def _parse_argument(self):
        lo = self._parse_expr()
        if self._at(TokenKind.COLON):
            self._advance()
            hi = self._parse_expr()
            return ast.RangeExpr(lo, hi)
        return lo
