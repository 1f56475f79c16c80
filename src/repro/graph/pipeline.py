"""Convenience entry points: program text or AST → interval flow graph.

:func:`analyzed_program_for` is the frontend the batch layer calls:
parse → CFG → normalize → ``IntervalFlowGraph`` for one source text.
"""

from repro.lang.parser import parse
from repro.graph.builder import build_cfg
from repro.graph.normalize import normalize
from repro.graph.interval_graph import IntervalFlowGraph


def interval_graph_for_program(program):
    """Build the normalized interval flow graph of a program.

    ``program`` may be source text or a parsed
    :class:`repro.lang.ast.Program`.  Returns the
    :class:`~repro.graph.interval_graph.IntervalFlowGraph`.
    """
    if isinstance(program, str):
        program = parse(program)
    cfg = build_cfg(program)
    normalize(cfg)
    return IntervalFlowGraph(cfg)


def analyzed_program_for(text, split_irreducible=False, max_splits=None):
    """An :class:`~repro.testing.programs.AnalyzedProgram` for ``text``."""
    from repro.testing.programs import AnalyzedProgram

    return AnalyzedProgram(parse(text), split_irreducible=split_irreducible,
                           max_splits=max_splits)
