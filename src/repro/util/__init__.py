"""Small shared utilities: error types, ordered sets, formatting helpers,
and the lazy package exports of :mod:`repro.util.lazy`."""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.util.errors": (
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
    ),
    "repro.util.orderedset": ("OrderedSet",),
    "repro.util.text": ("indent_block", "format_set"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
