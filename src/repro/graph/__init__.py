"""Flow graphs for GIVE-N-TAKE.

The pipeline is::

    AST --builder--> ControlFlowGraph --normalize--> (reducible, unique
    latch & body entry, no critical edges) --IntervalFlowGraph--> edge
    classification (ENTRY/CYCLE/JUMP/FORWARD/SYNTHETIC), Tarjan intervals,
    traversal orders, and the Forward/Backward views the solver runs on.
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.graph.cfg": ("ControlFlowGraph", "Node", "NodeKind"),
    "repro.graph.builder": ("build_cfg",),
    "repro.graph.normalize": ("normalize", "validate_normalized"),
    "repro.graph.intervals": (
        "compute_dominators",
        "find_back_edges",
        "LoopForest",
        "check_reducible",
    ),
    "repro.graph.interval_graph": ("IntervalFlowGraph", "EdgeType"),
    "repro.graph.views": ("ForwardView", "BackwardView"),
    "repro.graph.pipeline": ("interval_graph_for_program",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
