"""The interval flow graph ``G = (N, E)`` of the paper (§3.3–3.4).

Wraps a normalized CFG and its loop forest, adds the virtual ``ROOT``
(level 0, header of the whole program, with a pseudo ENTRY edge to the
program entry and a pseudo CYCLE edge from the program exit), classifies
every edge as ENTRY / CYCLE / JUMP / FORWARD, and materializes the
SYNTHETIC edges induced by JUMP edges: for every interval ``T(h)`` and
every jump ``(m, s)`` with ``m ∈ T(h)``, ``s ∉ T+(h)``, a synthetic edge
``(h, s)`` — hence ``LEVEL(m) − LEVEL(s)`` synthetic edges per jump.

Neighbor queries use the paper's notation: ``succs(n, "FJS")`` is
``SUCCS^{FJS}(n)``, the sinks of FORWARD, JUMP and SYNTHETIC edges out of
``n``.  Results are deterministic lists.

Adjacency is stored per edge letter (``"E"``, ``"C"``, ``"F"``,
``"J"``, ``"S"``), each letter mapping a node to its neighbors along
edges of that letter; nodes without such edges are absent.  Letter keys
because string hashes are cached, while an :class:`EdgeType` key would
cost a Python-level ``Enum.__hash__`` call under every
``succs``/``preds``; letter-major so that a compiled solver plan reads
each letter's edges in one pass (:meth:`IntervalFlowGraph.letter_adjacency`).
``EdgeType`` stays the public type of :meth:`IntervalFlowGraph.edge_type`
and :meth:`IntervalFlowGraph.edges`.

The solver layer caches its views and compiled plans on the graph
(:meth:`IntervalFlowGraph.solver_cache`); like the CFG's analysis memos
they are rebuilt on demand, so pickles leave them out.
"""

from enum import Enum

from repro.graph.cfg import Node, NodeKind
from repro.graph.normalize import validate_normalized
from repro.obs.collector import current_collector
from repro.util.errors import GraphError


class EdgeType(Enum):
    """Edge classification of §3.3."""

    ENTRY = "E"
    CYCLE = "C"
    FORWARD = "F"
    JUMP = "J"
    SYNTHETIC = "S"


_BY_LETTER = {t.value: t for t in EdgeType}

#: Edge letters in :class:`EdgeType` order.
_LETTERS = "".join(_BY_LETTER)

#: ``__dict__`` key prefix of the solver layer's per-graph caches.
_SOLVER_CACHE = "_solver_"


def _neighbors(adjacency, node, letters):
    result = []
    for letter in letters:
        nodes = adjacency[letter].get(node)
        if nodes:
            result.extend(nodes)
    return result


class IntervalFlowGraph:
    """The analyzed flow graph the GIVE-N-TAKE equations run on.

    ``cfg`` must pass :func:`~repro.graph.normalize.validate_normalized`
    (memoized per graph version, so a graph fresh from
    :func:`~repro.graph.normalize.normalize` is not checked twice)."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.forest = validate_normalized(cfg)
        self.root = Node(-1, NodeKind.ROOT, name="ROOT")

        edges = cfg.edges()
        for src, dst in edges:
            if src is dst:
                raise GraphError(f"self loop at {src} is not supported")

        self._succs = {letter: {} for letter in _LETTERS}  # node -> [node]
        self._preds = {letter: {} for letter in _LETTERS}
        self._types = {}  # (src, dst) -> EdgeType of the real edge

        for src, dst in edges:
            self._add(src, dst, self._classify(src, dst))
        self._add(self.root, cfg.entry, "E")
        self._add(cfg.exit, self.root, "C")

        self._jump_edges = [
            (src, dst) for (src, dst), t in self._types.items() if t is EdgeType.JUMP
        ]
        self._add_synthetic_edges()

        obs = current_collector()
        if obs.enabled:
            edge_counts = {
                edge_type.name: sum(
                    map(len, self._succs[edge_type.value].values()))
                for edge_type in EdgeType
            }
            obs.event("graph", "interval_graph",
                      nodes=len(cfg),
                      headers=len(self.forest.headers()),
                      max_level=max(self.level(n) for n in self.nodes()),
                      jump_edges=len(self._jump_edges),
                      edges=edge_counts)
            obs.count("graph", "interval_graphs")

    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items()
                if not key.startswith(_SOLVER_CACHE)}

    def solver_cache(self, kind):
        """The dict in which the solver layer caches its per-graph
        ``kind`` (``"views"``, ``"plans"``); pickles leave it out."""
        return self.__dict__.setdefault(_SOLVER_CACHE + kind, {})

    # -- construction -------------------------------------------------------

    def _classify(self, src, dst):
        """The letter of the real edge (src, dst)."""
        forest = self.forest
        if forest.contains(src, dst):
            return "E"
        if forest.contains(dst, src):
            return "C"
        for header in forest.enclosing_headers(src):
            if dst is not header and not forest.contains(header, dst):
                return "J"
        return "F"

    def _add(self, src, dst, letter):
        self._link(src, dst, letter)
        self._types[(src, dst)] = _BY_LETTER[letter]

    def _link(self, src, dst, letter):
        self._succs[letter].setdefault(src, []).append(dst)
        self._preds[letter].setdefault(dst, []).append(src)

    def _add_synthetic_edges(self):
        seen = set()
        for src, dst in self._jump_edges:
            for header in self.forest.enclosing_headers(src):
                inside = dst is header or self.forest.contains(header, dst)
                if inside:
                    continue
                if (header, dst) in seen:
                    continue
                seen.add((header, dst))
                self._link(header, dst, "S")

    # -- nodes ----------------------------------------------------------------

    def nodes(self):
        """ROOT followed by the real nodes in tie-break order."""
        return [self.root] + self.cfg.nodes()

    def real_nodes(self):
        return self.cfg.nodes()

    def order_index(self, node):
        return -1 if node is self.root else self.cfg.order_index(node)

    def level(self, node):
        """Loop nesting level; ``LEVEL(ROOT) = 0``."""
        return 0 if node is self.root else self.forest.level(node)

    def interval(self, node):
        """``T(node)``: all real nodes for ROOT, the loop members for a
        header, the empty list otherwise."""
        if node is self.root:
            return self.cfg.nodes()
        return list(self.forest.members(node))

    def in_interval(self, header, node):
        """True if ``node ∈ T(header)``."""
        if header is self.root:
            return node is not self.root
        return self.forest.contains(header, node)

    def children(self, node):
        """``CHILDREN(node)``: interval members one level deeper, in
        tie-break order."""
        if node is self.root:
            return [n for n in self.cfg.nodes() if self.forest.innermost(n) is None]
        return sorted(self.forest.children(node), key=self.cfg.order_index)

    def lastchild(self, node):
        """``LASTCHILD(node)``: the unique CYCLE-edge source of the
        interval, or None for non-headers."""
        if node is self.root:
            return self.cfg.exit
        if self.forest.is_header(node):
            return self.forest.latch(node)
        return None

    def body_entry(self, node):
        """The unique ENTRY-edge sink of the interval (None for
        non-headers); this is ``LASTCHILD`` of the reversed graph."""
        if node is self.root:
            return self.cfg.entry
        entries = self._succs["E"].get(node)
        return entries[0] if entries else None

    def header_of(self, node):
        """``HEADER(node)``: source of the ENTRY edge reaching ``node``,
        or None."""
        sources = self._preds["E"].get(node)
        return sources[0] if sources else None

    def is_header(self, node):
        return node is self.root or self.forest.is_header(node)

    # -- edges ----------------------------------------------------------------

    def succs(self, node, letters="CEFJ"):
        """``SUCCS^letters(node)``; default CEFJ are the conventional
        successors."""
        return _neighbors(self._succs, node, letters)

    def preds(self, node, letters="CEFJ"):
        """``PREDS^letters(node)``."""
        return _neighbors(self._preds, node, letters)

    def letter_adjacency(self):
        """``(succs, preds)``: per edge letter, a dict from each node to
        its successors (predecessors) along edges of that letter, in
        :meth:`succs` order; nodes without such edges are absent.  The
        graph's own dicts, shared: read them, never mutate them."""
        return self._succs, self._preds

    def edge_type(self, src, dst):
        """Type of the real edge (src, dst); KeyError if absent."""
        return self._types[(src, dst)]

    def edges(self, letters="CEFJS"):
        """All (src, dst, type) triples of the requested types, including
        the pseudo ROOT edges and synthetic edges."""
        wanted = [(letter, _BY_LETTER[letter]) for letter in _LETTERS
                  if letter in letters]
        result = []
        for node in self.nodes():
            for letter, edge_type in wanted:
                for dst in self._succs[letter].get(node, ()):
                    result.append((node, dst, edge_type))
        return result

    def jump_edges(self):
        return list(self._jump_edges)

    def headers_with_jump_sources(self):
        """Headers whose interval contains the source of a JUMP edge that
        leaves the interval.  For AFTER problems these loops would become
        irreducible under reversal; hoisting out of them is suppressed
        (paper §5.3)."""
        result = []
        for header in [self.root] + self.forest.headers():
            for src, dst in self._jump_edges:
                if not self.in_interval(header, src):
                    continue
                if dst is header or self.in_interval(header, dst):
                    continue
                result.append(header)
                break
        return result
