"""Parser unit tests."""

import pytest

from repro.lang import ast
from repro.lang.parser import parse
from repro.util.errors import ParseError


def first(source):
    return parse(source).body[0]


def test_scalar_assignment():
    stmt = first("x = 1")
    assert isinstance(stmt, ast.Assign)
    assert stmt.target == ast.Var("x")
    assert stmt.value == ast.Num(1)


def test_array_assignment_with_indirect_subscript():
    stmt = first("y(a(i)) = 2")
    assert stmt.target == ast.ArrayRef("y", (ast.ArrayRef("a", (ast.Var("i"),)),))


def test_opaque_rhs():
    assert first("x = ...").value == ast.Opaque()


def test_binop_precedence():
    stmt = first("x = a + b * c")
    assert stmt.value == ast.BinOp("+", ast.Var("a"),
                                   ast.BinOp("*", ast.Var("b"), ast.Var("c")))


def test_parenthesized_expression():
    stmt = first("x = (a + b) * c")
    assert stmt.value == ast.BinOp("*", ast.BinOp("+", ast.Var("a"), ast.Var("b")),
                                   ast.Var("c"))


def test_unary_minus():
    stmt = first("x = -a")
    assert stmt.value == ast.BinOp("-", ast.Num(0), ast.Var("a"))


def test_do_loop_default_step():
    stmt = first("do i = 1, n\nx = 1\nenddo")
    assert isinstance(stmt, ast.Do)
    assert (stmt.var, stmt.lo, stmt.hi, stmt.step) == (
        "i", ast.Num(1), ast.Var("n"), ast.Num(1))
    assert len(stmt.body) == 1


def test_do_loop_explicit_step():
    stmt = first("do i = 1, n, 2\nenddo")
    assert stmt.step == ast.Num(2)


def test_nested_loops():
    stmt = first("do i = 1, n\ndo j = 1, m\nx = 1\nenddo\nenddo")
    inner = stmt.body[0]
    assert isinstance(inner, ast.Do) and inner.var == "j"


def test_if_then_else():
    stmt = first("if test then\nx = 1\nelse\ny = 2\nendif")
    assert isinstance(stmt, ast.If)
    assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1


def test_if_without_else():
    stmt = first("if test then\nx = 1\nendif")
    assert stmt.else_body == []


def test_if_condition_with_parens():
    stmt = first("if (a < b) then\nendif")
    assert stmt.cond == ast.BinOp("<", ast.Var("a"), ast.Var("b"))


def test_logical_if_goto():
    stmt = first("if test(i) goto 77")
    assert isinstance(stmt, ast.IfGoto)
    assert stmt.target == 77
    assert stmt.cond == ast.ArrayRef("test", (ast.Var("i"),))


def test_goto():
    stmt = first("goto 10")
    assert isinstance(stmt, ast.Goto) and stmt.target == 10


def test_labels_attach_to_statements():
    program = parse("10 x = 1\n20 continue")
    assert [s.label for s in program.body] == [10, 20]


def test_label_on_do():
    stmt = first("77 do k = 1, n\nenddo")
    assert isinstance(stmt, ast.Do) and stmt.label == 77


def test_declarations():
    program = parse("real x(100)\ninteger a(50)\nreal s")
    decls = program.body
    assert decls[0] == ast.Declaration("real", "x", ast.Num(100), line=1)
    assert decls[1] == ast.Declaration("integer", "a", ast.Num(50), line=2)
    assert decls[2].size is None


def test_parameter():
    stmt = first("parameter n = 100")
    assert stmt == ast.ParameterDef("n", ast.Num(100), line=1)


def test_distribute():
    stmt = first("distribute x(block)")
    assert stmt == ast.Distribute("x", "block", line=1)


def test_distribute_bad_scheme():
    with pytest.raises(ParseError):
        parse("distribute x(diagonal)")


def test_range_argument():
    stmt = first("x = y(1:n)")
    assert stmt.value == ast.ArrayRef("y", (ast.RangeExpr(ast.Num(1), ast.Var("n")),))


def test_missing_enddo_raises():
    with pytest.raises(ParseError):
        parse("do i = 1, n\nx = 1")


def test_missing_endif_raises():
    with pytest.raises(ParseError):
        parse("if t then\nx = 1")


def test_trailing_junk_raises():
    with pytest.raises(ParseError):
        parse("x = 1 y")


def test_empty_program():
    assert parse("").body == []


def test_program_split_helpers():
    program = parse("real x(10)\nx(1) = 2")
    assert len(program.declarations()) == 1
    assert len(program.executables()) == 1


def test_multi_subscript_arrays():
    stmt = first("x(i, j) = 1")
    assert stmt.target == ast.ArrayRef("x", (ast.Var("i"), ast.Var("j")))


def test_source_lines_recorded():
    program = parse("x = 1\n\ny = 2")
    assert [s.line for s in program.body] == [1, 3]


# -- the grammar, pinned case by case ----------------------------------------

A, B, C = ast.Var("a"), ast.Var("b"), ast.Var("c")


def neg(operand):
    """Unary minus as the parser builds it: ``0 - operand``."""
    return ast.BinOp("-", ast.Num(0), operand)


@pytest.mark.parametrize("text, tree", [
    ("a - b - c", ast.BinOp("-", ast.BinOp("-", A, B), C)),
    ("a / b * c", ast.BinOp("*", ast.BinOp("/", A, B), C)),
    ("a < b < c", ast.BinOp("<", ast.BinOp("<", A, B), C)),
    ("a + b - c", ast.BinOp("-", ast.BinOp("+", A, B), C)),
    ("a * b + c", ast.BinOp("+", ast.BinOp("*", A, B), C)),
    ("a + b < c * a", ast.BinOp("<", ast.BinOp("+", A, B),
                                ast.BinOp("*", C, A))),
    ("a == b + c", ast.BinOp("==", A, ast.BinOp("+", B, C))),
    ("a /= b", ast.BinOp("!=", A, B)),
    ("a != b", ast.BinOp("!=", A, B)),
    ("a <= b", ast.BinOp("<=", A, B)),
    ("a >= b", ast.BinOp(">=", A, B)),
    ("a > b", ast.BinOp(">", A, B)),
    ("-a * b", ast.BinOp("*", neg(A), B)),
    ("a * -b", ast.BinOp("*", A, neg(B))),
    ("- -a", neg(neg(A))),
    ("a - -b", ast.BinOp("-", A, neg(B))),
    ("-a + b", ast.BinOp("+", neg(A), B)),
    ("-(a + b)", neg(ast.BinOp("+", A, B))),
    ("-1", neg(ast.Num(1))),
    ("a < -b", ast.BinOp("<", A, neg(B))),
    ("007", ast.Num(7)),
    ("... + a(...)", ast.BinOp("+", ast.Opaque(),
                               ast.ArrayRef("a", (ast.Opaque(),)))),
    ("((a))", A),
])
def test_expression_grammar(text, tree):
    stmt = first(f"x = {text}")
    assert stmt.value == tree
    assert repr(stmt.value) == repr(tree)


def test_range_inside_nested_subscripts():
    stmt = first("x = y(a(1:n), 2:m + 1, i - 1:i)")
    assert stmt.value == ast.ArrayRef("y", (
        ast.ArrayRef("a", (ast.RangeExpr(ast.Num(1), ast.Var("n")),)),
        ast.RangeExpr(ast.Num(2), ast.BinOp("+", ast.Var("m"), ast.Num(1))),
        ast.RangeExpr(ast.BinOp("-", ast.Var("i"), ast.Num(1)),
                      ast.Var("i")),
    ))


def test_opaque_assignment_target_and_logical_if_condition():
    program = parse("... = x\nif (a < b) goto 5\n5 continue")
    assert program.body[0].target == ast.Opaque()
    assert program.body[1].cond == ast.BinOp("<", A, B)


#: One case per :class:`ParseError` the parser raises on some input:
#: ``(source, message, line, column)``.  Two raise sites cannot fail:
#: ``invalid assignment target`` (an assignment starts at a name or
#: ``...``, which always parse to a target) and ``end of program`` (the
#: top-level body stops only at the end of input).
PARSE_ERRORS = [
    ("do 5 = 1, n\nenddo", "expected loop variable, found '5'", 1, 4),
    ("do i 1, n\nenddo", "expected '=', found '1'", 1, 6),
    ("do i = 1 n\nenddo", "expected ',', found 'n'", 1, 10),
    ("do i = 1, n\nx = 1\n", "expected 'enddo', found ''", 3, 1),
    ("do i = 1, n\nx = 1", "expected 'enddo', found ''", 2, 1),
    ("do i = 1, n, 2, 3\nenddo", "unexpected trailing input ','", 1, 15),
    ("do i = 1, n\nenddo x", "unexpected trailing input 'x'", 2, 7),
    ("do i = 1, n\nelse\nenddo", "unexpected token 'else'", 2, 1),
    ("if t goto x", "expected label, found 'x'", 1, 11),
    ("if t x = 1", "expected 'then' or 'goto', found 'x'", 1, 6),
    ("if t then x = 1\nendif", "unexpected trailing input 'x'", 1, 11),
    ("if t then\nx = 1\n", "expected 'endif', found ''", 3, 1),
    ("if t then\nelse y\nendif", "unexpected trailing input 'y'", 2, 6),
    ("if t then\nelse\nelse\nendif", "unexpected token 'else'", 3, 1),
    ("if t then\nenddo", "unexpected token 'enddo'", 2, 1),
    ("if t then\nendif 5", "unexpected trailing input '5'", 2, 7),
    ("goto x", "expected label, found 'x'", 1, 6),
    ("continue 5", "unexpected trailing input '5'", 1, 10),
    ("real 5", "expected variable name, found '5'", 1, 6),
    ("real x(10", "expected ')', found '\\n'", 1, 10),
    ("real x(10) y", "unexpected trailing input 'y'", 1, 12),
    ("parameter 5 = 1", "expected parameter name, found '5'", 1, 11),
    ("parameter n 1", "expected '=', found '1'", 1, 13),
    ("distribute 5(block)", "expected array name, found '5'", 1, 12),
    ("distribute x block", "expected '(', found 'block'", 1, 14),
    ("distribute x(foo)", "expected distribution scheme "
     "(block/cyclic/replicated), found 'foo'", 1, 14),
    ("distribute x(block", "expected ')', found '\\n'", 1, 19),
    ("x 1", "expected '=', found '1'", 1, 3),
    ("x(1 = 2", "expected ')', found '='", 1, 5),
    ("x = (1 + 2", "expected ')', found '\\n'", 1, 11),
    ("x = (1:2)", "expected ')', found ':'", 1, 7),
    ("x = a(1, 2", "expected ')', found '\\n'", 1, 11),
    ("x = ,", "expected expression, found ','", 1, 5),
    ("x = a(1:)", "expected expression, found ')'", 1, 9),
    ("x =", "expected expression, found '\\n'", 1, 4),
    ("x = ! a comment", "expected expression, found '\\n'", 1, 16),
    ("x =\r\n", "expected expression, found '\\n'", 1, 5),
    ("y = 2\nx = -", "expected expression, found '\\n'", 2, 6),
    ("x = 1 y", "unexpected trailing input 'y'", 1, 7),
    ("x = 1)", "unexpected trailing input ')'", 1, 6),
    ("x = 1:n", "unexpected trailing input ':'", 1, 6),
    ("enddo", "unexpected token 'enddo'", 1, 1),
    ("= 1", "unexpected token '='", 1, 1),
    ("77", "unexpected token '\\n'", 1, 3),
    ("x = 1\n\n   77\n", "unexpected token '\\n'", 3, 6),
    ("10 ! label only\n x = 1", "unexpected token '\\n'", 1, 16),
]


@pytest.mark.parametrize("source, message, line, column", PARSE_ERRORS)
def test_parse_error_message_and_position(source, message, line, column):
    with pytest.raises(ParseError) as excinfo:
        parse(source)
    error = excinfo.value
    assert (error.line, error.column) == (line, column)
    assert str(error) == f"line {line}, column {column}: {message}"
