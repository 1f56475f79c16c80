"""Node splitting: making irreducible graphs reducible (paper §3.3,
citing Cocke & Miller [CM69]).

An irreducible graph has a cycle with two or more entry nodes.  The
classic remedy duplicates the offending entry: each retreating edge
whose target does not dominate its source is redirected to a fresh copy
of the target (same statement, same successors).  Peeling one improper
entry at a time terminates on real programs quickly; a split budget
guards against the exponential worst case.

The duplicated nodes share their AST statement with the original, so
problem builders that annotate statements must annotate *every* copy —
``repro.analysis.references.collect_accesses`` does (it maps a statement
to all nodes carrying it).
"""

from repro.graph.cfg import NodeKind
from repro.graph.intervals import improper_entries
from repro.obs.collector import current_collector
from repro.util.errors import GraphError


def make_reducible(cfg, max_splits=None):
    """Split nodes until ``cfg`` is reducible; return the list of
    (original, copy) pairs created.

    ``max_splits`` bounds the number of duplications (default: four per
    node); exceeding it raises :class:`GraphError`.  Each duplication is
    reported to an active tracing collector as a ``graph/node_split``
    event.
    """
    obs = current_collector()
    if max_splits is None:
        max_splits = 4 * len(cfg)
    splits = []
    while True:
        offending = improper_entries(cfg)
        if not offending:
            return splits
        if len(splits) >= max_splits:
            raise GraphError(
                f"node splitting exceeded the budget of {max_splits} copies"
            )
        source, target = offending[0]
        copy = _peel(cfg, source, target)
        splits.append((target, copy))
        if obs.enabled:
            obs.event("graph", "node_split", original=target.name,
                      copy=copy.name, budget=max_splits,
                      used=len(splits))


def _peel(cfg, source, target):
    """Duplicate ``target`` for the improper edge (source, target)."""
    copy = cfg.new_node(
        target.kind if target.kind is not NodeKind.LABEL else NodeKind.STMT,
        stmt=target.stmt,
        name=f"{target.name}'",
        order_after=source,
    )
    for successor in cfg.succs(target):
        cfg.add_edge(copy, successor if successor is not target else copy)
    cfg.remove_edge(source, target)
    cfg.add_edge(source, copy)
    return copy


def nodes_for_statement(cfg, stmt):
    """All nodes carrying ``stmt`` (more than one after splitting)."""
    return [node for node in cfg.nodes() if node.stmt is stmt]
