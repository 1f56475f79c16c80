"""Small shared utilities: error types, ordered sets, formatting helpers,
and the lazy package exports of :mod:`repro.util.lazy`."""

from repro.util.errors import (
    ReproError,
    ParseError,
    GraphError,
    IrreducibleGraphError,
    SolverError,
    SolverBudgetError,
    AnalysisError,
    ExecutionError,
    CommunicationTimeoutError,
    FaultSpecError,
)
from repro.util.orderedset import OrderedSet
from repro.util.text import indent_block, format_set

__all__ = [
    "ReproError",
    "ParseError",
    "GraphError",
    "IrreducibleGraphError",
    "SolverError",
    "SolverBudgetError",
    "AnalysisError",
    "ExecutionError",
    "CommunicationTimeoutError",
    "FaultSpecError",
    "OrderedSet",
    "indent_block",
    "format_set",
]
