"""Pretty printer regenerating mini-Fortran source from the AST.

The output format follows the paper's figures: four-space indentation,
labels in the left margin, and communication statements rendered as e.g.
``READ_Send{x(11:n+10)}``.
"""

from repro.lang import ast
from repro.util.text import format_set

_PRECEDENCE = {
    "<": 1, ">": 1, "<=": 1, ">=": 1, "==": 1, "!=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3,
}


def format_expr(expr, parent_precedence=0):
    """Render an expression as source text."""
    if isinstance(expr, ast.Num):
        return str(expr.value)
    if isinstance(expr, ast.Var):
        return expr.name
    if isinstance(expr, ast.Opaque):
        return "..."
    if isinstance(expr, ast.ArrayRef):
        inner = ", ".join(format_expr(s) for s in expr.subscripts)
        return f"{expr.name}({inner})"
    if isinstance(expr, ast.RangeExpr):
        return f"{format_expr(expr.lo)}:{format_expr(expr.hi)}"
    if isinstance(expr, ast.BinOp):
        precedence = _PRECEDENCE[expr.op]
        left = format_expr(expr.left, precedence)
        right = format_expr(expr.right, precedence + 1)
        text = f"{left} {expr.op} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text
    raise TypeError(f"cannot format expression {expr!r}")


def format_statement(stmt, indent=0):
    """Render one statement (recursively) as a list of source lines."""
    lines = []
    _emit(stmt, indent, lines)
    return lines


def format_program(program):
    """Render a whole program as source text."""
    lines = []
    for stmt in program.body:
        _emit(stmt, 0, lines)
    return "\n".join(lines) + "\n"


_LABEL_WIDTH = 4


def _prefix(stmt, indent):
    label = str(stmt.label) if stmt.label is not None else ""
    return label.ljust(_LABEL_WIDTH) + "    " * indent


def _emit(stmt, indent, lines):
    lines.append(_first_line(stmt, _prefix(stmt, indent)))
    if isinstance(stmt, ast.Do):
        for child in stmt.body:
            _emit(child, indent + 1, lines)
        lines.append(_closing(indent, "enddo"))
    elif isinstance(stmt, ast.If):
        for child in stmt.then_body:
            _emit(child, indent + 1, lines)
        if stmt.else_body:
            lines.append(_closing(indent, "else"))
            for child in stmt.else_body:
                _emit(child, indent + 1, lines)
        lines.append(_closing(indent, "endif"))


def _closing(indent, keyword):
    return f"{' ' * _LABEL_WIDTH}{'    ' * indent}{keyword}"


def format_first_line(stmt):
    """The first line :func:`format_statement` renders for ``stmt`` —
    all of a simple statement, the ``do``/``if`` line of a block —
    without rendering any nested body."""
    return _first_line(stmt, _prefix(stmt, 0))


def _first_line(stmt, prefix):
    if isinstance(stmt, ast.Assign):
        return f"{prefix}{format_expr(stmt.target)} = {format_expr(stmt.value)}"
    if isinstance(stmt, ast.Do):
        header = f"{prefix}do {stmt.var} = {format_expr(stmt.lo)}, {format_expr(stmt.hi)}"
        if not (isinstance(stmt.step, ast.Num) and stmt.step.value == 1):
            header += f", {format_expr(stmt.step)}"
        return header
    if isinstance(stmt, ast.If):
        return f"{prefix}if {format_expr(stmt.cond)} then"
    if isinstance(stmt, ast.IfGoto):
        return f"{prefix}if {format_expr(stmt.cond)} goto {stmt.target}"
    if isinstance(stmt, ast.Goto):
        return f"{prefix}goto {stmt.target}"
    if isinstance(stmt, ast.Continue):
        return f"{prefix}continue"
    if isinstance(stmt, ast.Declaration):
        size = f"({format_expr(stmt.size)})" if stmt.size is not None else ""
        return f"{prefix}{stmt.type_name} {stmt.name}{size}"
    if isinstance(stmt, ast.ParameterDef):
        return f"{prefix}parameter {stmt.name} = {format_expr(stmt.value)}"
    if isinstance(stmt, ast.Distribute):
        return f"{prefix}distribute {stmt.name}({stmt.scheme})"
    if isinstance(stmt, ast.Comm):
        return f"{prefix}{format_comm(stmt)}"
    raise TypeError(f"cannot format statement {stmt!r}")


def format_comm(stmt):
    """Render a communication statement: ``READ_Send{...}``,
    ``WRITE_Sum_Recv{...}``, ``PREFETCH{...}``/``WAIT{...}``, …"""
    if stmt.kind == "prefetch":
        # prefetching renders as issue/wait markers instead of send/recv
        head = "WAIT" if stmt.phase == "recv" else "PREFETCH"
        return f"{head}{format_set(stmt.args)}"
    kind = stmt.kind.upper()
    reduce_tag = f"_{stmt.reduce.capitalize()}" if stmt.reduce else ""
    phase = f"_{stmt.phase.capitalize()}" if stmt.phase else ""
    return f"{kind}{reduce_tag}{phase}{format_set(stmt.args)}"
