"""Collection of array accesses, attached to flow-graph nodes."""

from repro.analysis.value_numbering import LoopContext, ValueNumbering
from repro.lang import ast
from repro.lang.symbols import SymbolTable
from repro.util.record import Record


class ArrayAccess(Record):
    """One array read or definition.

    ``node`` is the CFG node of the statement, ``ref`` the AST
    reference, ``descriptor`` its normalized section (the value number),
    ``is_def`` whether the access writes the array, ``context`` the loop
    context the reference sits in, and ``reduction`` names the reduction
    operation when the definition is an accumulation like
    ``y(b(k)) = y(b(k)) + …`` (the old value is then combined at the
    owner instead of being fetched).
    """

    _fields = ("node", "array", "ref", "descriptor", "is_def", "context",
               "reduction")

    def __init__(self, node, array, ref, descriptor, is_def, context,
                 reduction=None):
        self.node = node
        self.array = array
        self.ref = ref
        self.descriptor = descriptor
        self.is_def = is_def
        self.context = context
        self.reduction = reduction

    def __repr__(self):
        kind = f"reduce-{self.reduction}" if self.reduction else (
            "def" if self.is_def else "ref")
        return f"<{kind} {self.descriptor} at {self.node}>"


#: operators recognized as reductions in ``x(i) = x(i) <op> expr``
REDUCTION_OPS = {"+": "sum", "*": "prod"}


def detect_reduction(stmt):
    """If ``stmt`` is an accumulating assignment ``T = T op expr`` (or
    ``T = expr op T`` for commutative op), return the reduction name."""
    if not isinstance(stmt, ast.Assign) or not isinstance(stmt.target, ast.ArrayRef):
        return None
    value = stmt.value
    if not isinstance(value, ast.BinOp) or value.op not in REDUCTION_OPS:
        return None
    if value.left == stmt.target or value.right == stmt.target:
        return REDUCTION_OPS[value.op]
    return None


def collect_accesses(analyzed, symbols=None, numbering=None):
    """All array accesses of an analyzed program, in statement order.

    ``analyzed`` is a :class:`repro.testing.programs.AnalyzedProgram`
    (any object with ``program`` and ``ifg``).  Returns
    (accesses, value_numbering).
    """
    if symbols is None:
        symbols = SymbolTable.from_program(analyzed.program)
    if numbering is None:
        numbering = ValueNumbering(symbols)

    # A statement usually has one node, but node splitting ([CM69]) may
    # duplicate it — every copy must carry the statement's accesses.
    nodes_of = {}
    for node in analyzed.ifg.real_nodes():
        if node.stmt is not None:
            nodes_of.setdefault(id(node.stmt), []).append(node)

    accesses = []
    _walk(analyzed.program.executables(), LoopContext(), nodes_of, symbols,
          numbering, accesses)
    return accesses, numbering


def _walk(body, context, nodes_of, symbols, numbering, out):
    for stmt in body:
        nodes = nodes_of.get(id(stmt), [])
        if isinstance(stmt, ast.Do):
            _exprs(stmt.lo, nodes, context, symbols, numbering, out, False)
            _exprs(stmt.hi, nodes, context, symbols, numbering, out, False)
            inner = context.push(stmt.var, stmt.lo, stmt.hi)
            _walk(stmt.body, inner, nodes_of, symbols, numbering, out)
        elif isinstance(stmt, ast.If):
            _exprs(stmt.cond, nodes, context, symbols, numbering, out, False)
            _walk(stmt.then_body, context, nodes_of, symbols, numbering, out)
            _walk(stmt.else_body, context, nodes_of, symbols, numbering, out)
        elif isinstance(stmt, ast.IfGoto):
            _exprs(stmt.cond, nodes, context, symbols, numbering, out, False)
        elif isinstance(stmt, ast.Assign):
            reduction = detect_reduction(stmt)
            if isinstance(stmt.target, ast.ArrayRef) and symbols.is_array(stmt.target.name):
                for node in nodes:
                    out.append(_access(stmt.target, node, context, symbols,
                                       numbering, is_def=True,
                                       reduction=reduction))
                # subscripts of the target are themselves reads
                for sub in stmt.target.subscripts:
                    _exprs(sub, nodes, context, symbols, numbering, out, False)
            if reduction is not None:
                # The old value is combined at the owner; only the
                # non-target operand of the accumulation is a read here.
                value = stmt.value
                other = value.right if value.left == stmt.target else value.left
                _exprs(other, nodes, context, symbols, numbering, out, False)
            else:
                _exprs(stmt.value, nodes, context, symbols, numbering, out, False)


def _exprs(expr, nodes, context, symbols, numbering, out, is_def):
    for sub in ast.walk_expressions(expr):
        if isinstance(sub, ast.ArrayRef) and symbols.is_array(sub.name):
            for node in nodes:
                out.append(_access(sub, node, context, symbols, numbering,
                                   is_def))


def _access(ref, node, context, symbols, numbering, is_def, reduction=None):
    descriptor = numbering.descriptor(ref, context)
    return ArrayAccess(node, ref.name, ref, descriptor, is_def, context,
                       reduction)
