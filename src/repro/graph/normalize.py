"""CFG normalization establishing the invariants GIVE-N-TAKE needs.

After :func:`normalize` the graph satisfies (paper §3.3 plus one extra
invariant needed for AFTER problems, §5.3):

1. every node is reachable from the entry (dead code pruned);
2. the graph is reducible (checked; we do not node-split — the frontend
   only produces irreducible graphs for gotos *into* loops, which are
   rejected with a clear error);
3. every loop has a unique CYCLE edge — a single latch (``LASTCHILD``);
4. every loop has a unique ENTRY edge — a single body-entry node, so that
   the *reversed* graph used by AFTER problems also has a unique latch;
5. there are no critical edges (edges from a multi-successor node to a
   multi-predecessor node); splits insert flagged synthetic nodes.

Synthetic nodes are positioned in the deterministic tie-break order so
that preorder numbering matches the paper's Figure 12: a split of a back
edge sits right after its source (it is the end of the loop body), any
other split sits right before its target.

The passes ask :mod:`repro.graph.intervals` for dominators and the loop
forest, which are memoized per graph version: a pass that leaves the
graph unchanged costs the next one nothing, and the latch pass updates
the dominator tree in step with its edits instead of invalidating it.
A normalized graph thus builds at most two dominator trees and two
loop forests — the last of each on the final graph, where
:func:`validate_normalized` checks every invariant.
"""

from repro.graph.cfg import NodeKind
from repro.graph.intervals import (
    check_reducible,
    dominates,
    dominators,
    find_back_edges,
    loop_forest,
    nearest_common_dominator,
)
from repro.obs.collector import current_collector
from repro.util.errors import GraphError


def normalize(cfg, split_irreducible=False, max_splits=None):
    """Normalize ``cfg`` in place and return it.

    With ``split_irreducible=True``, irreducible control flow (jumps
    into loops) is repaired by node splitting ([CM69], §3.3) instead of
    rejected; ``max_splits`` bounds the duplication budget and the
    (original, copy) pairs are recorded on ``cfg.splits``.

    An active tracing collector receives one ``graph/normalize`` event
    with the per-pass node deltas (pruned, irreducible splits, latches,
    body entries, critical-edge splits).
    """
    obs = current_collector()
    removed = prune_unreachable(cfg)
    cfg.splits = []
    if split_irreducible:
        from repro.graph.splitting import make_reducible

        cfg.splits = make_reducible(cfg, max_splits=max_splits)
    check_reducible(cfg)
    size = len(cfg)
    ensure_unique_latch(cfg)
    latches_added = len(cfg) - size
    size = len(cfg)
    ensure_unique_body_entry(cfg)
    body_entries_added = len(cfg) - size
    size = len(cfg)
    split_critical_edges(cfg)
    critical_splits = len(cfg) - size
    validate_normalized(cfg)
    if obs.enabled:
        obs.event("graph", "normalize",
                  pruned_unreachable=len(removed),
                  irreducible_splits=len(cfg.splits),
                  latches_added=latches_added,
                  body_entries_added=body_entries_added,
                  critical_edge_splits=critical_splits,
                  nodes=len(cfg))
        obs.count("graph", "normalize_runs")
        obs.count("graph", "nodes_split",
                  n=len(cfg.splits) + latches_added + body_entries_added
                  + critical_splits)
    return cfg


def prune_unreachable(cfg):
    """Remove nodes unreachable from the entry; return the removed list."""
    reachable = cfg.reachable_from_entry()
    removed = [node for node in cfg.nodes() if node not in reachable]
    for node in removed:
        if node is cfg.exit:
            raise GraphError("program exit is unreachable (infinite loop)")
        cfg.remove_node(node)
    return removed


def ensure_unique_latch(cfg):
    """Give every loop a single back-edge source.

    When a header has several back edges (e.g. an ``if`` at the end of a
    loop body), redirect them through a fresh LATCH node.

    A latch only merges back edges, so dominance among the existing
    nodes is unchanged and the latch's immediate dominator is the
    nearest common dominator of its sources: the pass hands the updated
    tree on to the next pass instead of invalidating it.
    """
    idom = dominators(cfg)
    sources_by_header = {}
    for source, header in find_back_edges(cfg, idom):
        sources_by_header.setdefault(header, []).append(source)
    merges = [(header, sources, max(sources, key=cfg.order_index))
              for header, sources in sources_by_header.items()
              if len(sources) > 1]
    if not merges:
        return
    idom = dict(idom)
    for header, sources, last in merges:
        latch = cfg.new_node(NodeKind.LATCH, name="latch", order_after=last)
        for source in sources:
            cfg.remove_edge(source, header)
            cfg.add_edge(source, latch)
        cfg.add_edge(latch, header)
        idom[latch] = nearest_common_dominator(idom, sources)
    cfg.remember("idom", idom)


def ensure_unique_body_entry(cfg):
    """Give every loop a single ENTRY edge (header → body).

    Needed so the reversed graph (AFTER problems) has a unique CYCLE edge.
    The frontend's ``do`` loops already satisfy this; the pass matters for
    hand-built or random graphs.
    """
    forest = loop_forest(cfg)
    for header in forest.headers():
        members = forest.members(header)
        body_targets = [succ for succ in cfg.succs(header) if succ in members]
        if len(body_targets) <= 1:
            continue
        first = min(body_targets, key=cfg.order_index)
        body_entry = cfg.new_node(
            NodeKind.BODY_ENTRY, name="body entry", order_before=first
        )
        for target in body_targets:
            cfg.remove_edge(header, target)
            cfg.add_edge(body_entry, target)
        cfg.add_edge(header, body_entry)


def split_critical_edges(cfg):
    """Split every critical edge with a synthetic node.

    A split of a back edge yields the loop's LATCH (ordered right after
    the source, i.e. at the end of the loop body); any other split yields
    a SYNTH node ordered right before its target.  Edges are processed
    fall-through-before-jump so that the Figure 12 numbering (node 9 from
    the loop-exit path, node 10 from the goto) comes out of the
    deterministic order.
    """
    idom = dominators(cfg)
    forest = loop_forest(cfg)
    critical = [
        (src, dst)
        for src, dst in cfg.edges()
        if len(cfg.succs(src)) > 1 and len(cfg.preds(dst)) > 1
    ]

    def is_jump(src, dst):
        return any(
            dst is not header and not forest.contains(header, dst)
            for header in forest.enclosing_headers(src)
        )

    def sort_key(edge):
        src, dst = edge
        return (cfg.order_index(dst), is_jump(src, dst), cfg.order_index(src))

    for src, dst in sorted(critical, key=sort_key):
        if dominates(idom, dst, src):  # back edge: new node is the latch
            cfg.split_edge(src, dst, kind=NodeKind.LATCH, name="latch",
                           order_after=src)
        else:
            cfg.split_edge(src, dst, kind=NodeKind.SYNTH, name="synth",
                           order_before=dst)


def validate_normalized(cfg):
    """Check all normalization invariants; raise :class:`GraphError` on
    violation.  Returns the :class:`LoopForest` for reuse.

    The verdict is memoized per graph version, so an interval graph
    built right after :func:`normalize` does not check again, while one
    built on a graph edited since is checked afresh."""
    return cfg.analysis("normalized", _validate)


def _validate(cfg):
    if len(cfg.reachable_from_entry()) != len(cfg):
        raise GraphError("unreachable nodes remain after normalization")
    check_reducible(cfg)
    forest = loop_forest(cfg)
    for header in forest.headers():
        forest.latch(header)  # raises when not unique
        members = forest.members(header)
        entries = [succ for succ in cfg.succs(header) if succ in members]
        if len(entries) != 1:
            raise GraphError(f"loop at {header} has {len(entries)} entry edges")
    for src, dst in cfg.edges():
        if len(cfg.succs(src)) > 1 and len(cfg.preds(dst)) > 1:
            raise GraphError(f"critical edge ({src}, {dst}) remains")
    return forest
