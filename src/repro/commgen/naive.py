"""The naive baseline: element-wise communication at each reference.

This is the left-hand side of the paper's Figure 2: every non-owned
reference gets its own ``READ_Send``/``READ_Recv`` pair immediately
before the referencing statement — one message per loop iteration, no
vectorization, no latency hiding, no reuse across references.  The
pairs go in through the :class:`~repro.commgen.annotate.Annotator`, so
a label on the referencing statement moves onto the first send and a
``goto`` to it runs the communication too.
"""

from repro.analysis.ownership import OwnershipModel
from repro.analysis.references import collect_accesses
from repro.commgen.annotate import Annotator
from repro.core.placement import Position
from repro.lang import ast
from repro.lang.parser import parse
from repro.lang.printer import format_program, format_expr
from repro.lang.symbols import SymbolTable
from repro.testing.programs import AnalyzedProgram


class NaiveResult:
    """The naively annotated program."""

    def __init__(self, analyzed):
        self.analyzed = analyzed

    @property
    def annotated_program(self):
        return self.analyzed.program

    def annotated_source(self):
        return format_program(self.analyzed.program)


def naive_communication(source, owner_computes=False, split_irreducible=False,
                        max_splits=None):
    """Annotate ``source`` with per-reference element communication.

    ``split_irreducible`` repairs irreducible control flow by node
    splitting instead of raising (the hardened pipeline's last rung must
    accept everything the upper rungs accepted)."""
    program = parse(source) if isinstance(source, str) else source
    analyzed = AnalyzedProgram(program, split_irreducible=split_irreducible,
                               max_splits=max_splits)
    symbols = SymbolTable.from_program(program)
    ownership = OwnershipModel(symbols, owner_computes=owner_computes)
    accesses, _ = collect_accesses(analyzed, symbols)

    annotator = Annotator(analyzed)
    for access in accesses:
        if access.node.stmt is None:
            continue
        arg = format_expr(access.ref)
        if ownership.read_needs_communication(access):
            kind, position = "read", Position.BEFORE
        elif ownership.def_needs_writeback(access):
            kind, position = "write", Position.AFTER
        else:
            continue
        for phase in ("send", "recv"):
            annotator.place_statement(access.node, position,
                                      ast.Comm(kind, phase, [arg]))

    return NaiveResult(analyzed)
