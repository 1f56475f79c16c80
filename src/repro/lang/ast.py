"""Abstract syntax tree for the mini-Fortran language.

Expressions are immutable and hashable (:class:`~repro.util.record.
FrozenRecord`); statements are mutable (:class:`~repro.util.record.
Record`) so the communication annotator can splice :class:`Comm`
statements into bodies.  Both compare equal by their fields and print
as ``Name(field=value, ...)``.  Every statement carries an optional
numeric ``label`` (the target of ``goto``) and the 1-based source
``line`` it came from (0 for synthesized statements), both keyword-only.
"""

from repro.util.record import FrozenRecord, Record


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(FrozenRecord):
    """Base class for expressions."""

    __slots__ = ()


class Num(Expr):
    """Integer literal."""

    _fields = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)


class Var(Expr):
    """Scalar variable reference (or parameter), e.g. ``n`` or ``test``."""

    _fields = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)


class ArrayRef(Expr):
    """Array element reference ``name(subscripts...)``.

    Syntactically this also covers function calls like ``test(i)``; the
    reference analysis consults the symbol table to tell them apart.
    """

    _fields = ("name", "subscripts")

    def __init__(self, name, subscripts):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "subscripts", subscripts)

    def __str__(self):
        inner = ", ".join(str(s) for s in self.subscripts)
        return f"{self.name}({inner})"


class BinOp(Expr):
    """Binary operation; ``op`` is one of ``+ - * / < > <= >= == !=``."""

    _fields = ("op", "left", "right")

    def __init__(self, op, left, right):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Opaque(Expr):
    """The ``...`` placeholder used throughout the paper's figures.

    It stands for an arbitrary computation with no array accesses that the
    analysis cares about.
    """


class RangeExpr(Expr):
    """A section range ``lo:hi``, used in communication argument lists."""

    _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Record):
    """Base class for statements."""

    _fields = ("label", "line")

    def __init__(self, *, label=None, line=0):
        self.label = label
        self.line = line


class Assign(Stmt):
    """``target = value`` where target is a :class:`Var` or :class:`ArrayRef`."""

    _fields = ("label", "line", "target", "value")

    def __init__(self, target, value, *, label=None, line=0):
        self.label = label
        self.line = line
        self.target = target
        self.value = value


class Do(Stmt):
    """``do var = lo, hi [, step] ... enddo``.

    Fortran DO loops may execute zero times (``lo > hi``), which is exactly
    the zero-trip construct GIVE-N-TAKE hoists out of.
    """

    _fields = ("label", "line", "var", "lo", "hi", "step", "body")

    def __init__(self, var, lo, hi, step, body, *, label=None, line=0):
        self.label = label
        self.line = line
        self.var = var
        self.lo = lo
        self.hi = hi
        self.step = step
        self.body = body


class If(Stmt):
    """Block ``if cond then ... [else ...] endif``."""

    _fields = ("label", "line", "cond", "then_body", "else_body")

    def __init__(self, cond, then_body, else_body, *, label=None, line=0):
        self.label = label
        self.line = line
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body


class IfGoto(Stmt):
    """Logical ``if (cond) goto target`` — the paper's jump out of a loop."""

    _fields = ("label", "line", "cond", "target")

    def __init__(self, cond, target, *, label=None, line=0):
        self.label = label
        self.line = line
        self.cond = cond
        self.target = target


class Goto(Stmt):
    """Unconditional ``goto target``."""

    _fields = ("label", "line", "target")

    def __init__(self, target, *, label=None, line=0):
        self.label = label
        self.line = line
        self.target = target


class Continue(Stmt):
    """``continue`` — a no-op, usually a label carrier."""


class Declaration(Stmt):
    """``real name(size)`` or ``integer name(size)`` (size may be None
    for scalars)."""

    _fields = ("label", "line", "type_name", "name", "size")

    def __init__(self, type_name, name, size, *, label=None, line=0):
        self.label = label
        self.line = line
        self.type_name = type_name
        self.name = name
        self.size = size


class ParameterDef(Stmt):
    """``parameter name = value``."""

    _fields = ("label", "line", "name", "value")

    def __init__(self, name, value, *, label=None, line=0):
        self.label = label
        self.line = line
        self.name = name
        self.value = value


class Distribute(Stmt):
    """``distribute name(scheme)`` with scheme in block/cyclic/replicated."""

    _fields = ("label", "line", "name", "scheme")

    def __init__(self, name, scheme, *, label=None, line=0):
        self.label = label
        self.line = line
        self.name = name
        self.scheme = scheme


class Comm(Stmt):
    """A communication statement inserted by the annotator.

    ``kind`` is ``"read"`` or ``"write"``; ``phase`` is ``"send"``,
    ``"recv"`` or ``None`` for an atomic operation; ``args`` is a list of
    printable section descriptors (see :mod:`repro.analysis.sections`);
    ``reduce`` optionally names a reduction operation combined with a
    WRITE (e.g. ``"sum"`` — the owner accumulates rather than overwrites);
    ``timing`` records which of the paper's two solutions placed this
    statement (``"EAGER"`` or ``"LAZY"``), so downstream consumers like
    the overlap scheduler know each statement's legal-window endpoint.
    """

    _fields = ("label", "line", "kind", "phase", "args", "reduce", "timing")

    def __init__(self, kind, phase, args, reduce=None, timing=None, *,
                 label=None, line=0):
        self.label = label
        self.line = line
        self.kind = kind
        self.phase = phase
        self.args = args
        self.reduce = reduce
        self.timing = timing


class Program(Record):
    """A whole program: declarations followed by executable statements."""

    _fields = ("body",)

    def __init__(self, body):
        self.body = body

    def declarations(self):
        """Return the leading declaration-like statements."""
        return [s for s in self.body if isinstance(s, (Declaration, ParameterDef, Distribute))]

    def executables(self):
        """Return the non-declaration statements."""
        return [
            s
            for s in self.body
            if not isinstance(s, (Declaration, ParameterDef, Distribute))
        ]


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_statements(body):
    """Yield every statement in ``body`` recursively, in source order."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, Do):
            yield from walk_statements(stmt.body)
        elif isinstance(stmt, If):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)


def walk_expressions(expr):
    """Yield ``expr`` and every sub-expression, outside in."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expressions(expr.left)
        yield from walk_expressions(expr.right)
    elif isinstance(expr, ArrayRef):
        for subscript in expr.subscripts:
            yield from walk_expressions(subscript)
    elif isinstance(expr, RangeExpr):
        yield from walk_expressions(expr.lo)
        yield from walk_expressions(expr.hi)


def statement_expressions(stmt):
    """Yield the top-level expressions appearing in ``stmt``."""
    if isinstance(stmt, Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, Do):
        yield stmt.lo
        yield stmt.hi
        yield stmt.step
    elif isinstance(stmt, (If, IfGoto)):
        yield stmt.cond
    elif isinstance(stmt, ParameterDef):
        yield stmt.value
