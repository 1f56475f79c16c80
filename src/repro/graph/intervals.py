"""Dominators, reducibility, and Tarjan-interval (natural loop) analysis.

A *Tarjan interval* ``T(h)`` is the set of nodes of the natural loop headed
by ``h``, excluding ``h`` itself (paper §3.3).  For reducible graphs the
natural loops of distinct headers are either disjoint or properly nested,
so they form a forest; :class:`LoopForest` materializes it together with
the paper's ``LEVEL`` / ``CHILDREN`` / ``LASTCHILD`` accessors.

:func:`dominators`, :func:`check_reducible` and :func:`loop_forest`
answer from the graph's per-version memo
(:meth:`~repro.graph.cfg.ControlFlowGraph.analysis`), so every pass
that asks about an unchanged graph shares one dominator tree, one
reducibility verdict and one forest.
"""

import hashlib

from repro.util.errors import GraphError, IrreducibleGraphError
from repro.util.orderedset import OrderedSet


def reverse_postorder(cfg):
    """Nodes in reverse postorder of a DFS from entry (iterative)."""
    visited = set()
    postorder = []
    # Iterative DFS with explicit stack of (node, successor iterator).
    stack = [(cfg.entry, iter(cfg.succs(cfg.entry)))]
    visited.add(cfg.entry)
    while stack:
        node, successors = stack[-1]
        advanced = False
        for succ in successors:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(cfg.succs(succ))))
                advanced = True
                break
        if not advanced:
            postorder.append(node)
            stack.pop()
    postorder.reverse()
    return postorder


def compute_dominators(cfg):
    """Immediate dominators via the Cooper–Harvey–Kennedy iteration.

    Returns a dict node -> idom; the entry node maps to itself.  All nodes
    must be reachable from entry.
    """
    order = reverse_postorder(cfg)
    if len(order) != len(cfg):
        unreachable = [n for n in cfg.nodes() if n not in set(order)]
        raise GraphError(f"unreachable nodes present: {unreachable}")
    position = {node: index for index, node in enumerate(order)}
    idom = {cfg.entry: cfg.entry}

    def intersect(a, b):
        while a is not b:
            while position[a] > position[b]:
                a = idom[a]
            while position[b] > position[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node is cfg.entry:
                continue
            candidates = [p for p in cfg.preds(node) if p in idom]
            if not candidates:
                continue
            new_idom = candidates[0]
            for pred in candidates[1:]:
                new_idom = intersect(new_idom, pred)
            if idom.get(node) is not new_idom:
                idom[node] = new_idom
                changed = True
    return idom


def dominators(cfg):
    """:func:`compute_dominators` of ``cfg``, built once per version."""
    return cfg.analysis("idom", compute_dominators)


def nearest_common_dominator(idom, nodes):
    """The deepest node dominating every node of ``nodes``."""
    common, *rest = nodes
    for node in rest:
        while not dominates(idom, common, node):
            common = idom[common]
    return common


def dominates(idom, a, b):
    """True if ``a`` dominates ``b`` (reflexive)."""
    node = b
    while True:
        if node is a:
            return True
        parent = idom[node]
        if parent is node:
            return False
        node = parent


def find_back_edges(cfg, idom=None):
    """Edges (u, v) whose target dominates their source, in edge order."""
    if idom is None:
        idom = dominators(cfg)
    return [(u, v) for u, v in cfg.edges() if dominates(idom, v, u)]


def find_retreating_edges(cfg):
    """Edges into a DFS ancestor (the candidates for loop back edges)."""
    state = {}  # 0 = on stack, 1 = finished
    retreating = []
    stack = [(cfg.entry, iter(cfg.succs(cfg.entry)))]
    state[cfg.entry] = 0
    while stack:
        node, successors = stack[-1]
        advanced = False
        for succ in successors:
            if succ not in state:
                state[succ] = 0
                stack.append((succ, iter(cfg.succs(succ))))
                advanced = True
                break
            if state[succ] == 0:
                retreating.append((node, succ))
        if not advanced:
            state[node] = 1
            stack.pop()
    return retreating


def improper_entries(cfg):
    """Retreating edges whose target does not dominate their source —
    the second entries of improper cycles; empty iff reducible.  Built
    once per version."""
    return cfg.analysis("improper", _improper_entries)


def _improper_entries(cfg):
    idom = dominators(cfg)
    return [
        (u, v) for u, v in find_retreating_edges(cfg) if not dominates(idom, v, u)
    ]


def check_reducible(cfg):
    """Raise :class:`IrreducibleGraphError` unless the graph is reducible.

    A graph is reducible iff every retreating edge's target dominates its
    source (every cycle has a unique entry node).
    """
    offending = improper_entries(cfg)
    if offending:
        raise IrreducibleGraphError(
            "irreducible control flow (cycle with multiple entries); "
            f"offending retreating edges: {offending}",
            offending_nodes=[u for u, _ in offending],
        )


def natural_loop(cfg, back_edges_to_header, header):
    """Members of the natural loop of ``header`` (header excluded).

    ``back_edges_to_header`` are the sources of back edges targeting
    ``header``; the loop is everything that reaches them without passing
    through the header.
    """
    members = OrderedSet()
    stack = []
    for source in back_edges_to_header:
        if source is not header and source not in members:
            members.add(source)
            stack.append(source)
    while stack:
        node = stack.pop()
        for pred in cfg.preds(node):
            if pred is not header and pred not in members:
                members.add(pred)
                stack.append(pred)
    return members


def loop_forest(cfg):
    """The :class:`LoopForest` of ``cfg``, built once per version."""
    return cfg.analysis("forest", LoopForest)


class LoopForest:
    """The nesting forest of natural loops of a reducible CFG.

    Provides the paper's accessors:

    * ``members(h)`` — the Tarjan interval ``T(h)`` (header excluded),
    * ``level(n)`` — nesting depth with top level 1 (``ROOT`` is level 0
      and lives in :class:`repro.graph.interval_graph.IntervalFlowGraph`),
    * ``innermost(n)`` — header of the innermost loop containing ``n``
      (None at top level),
    * ``children(h)`` — members exactly one level below ``h``,
    * ``latch(h)`` — the unique back-edge source (requires normalization).
    """

    def __init__(self, cfg):
        check_reducible(cfg)
        self._cfg = cfg
        self._back_edges = find_back_edges(cfg)

        sources_by_header = {}
        for source, header in self._back_edges:
            sources_by_header.setdefault(header, []).append(source)
        self._members = {
            header: natural_loop(cfg, sources, header)
            for header, sources in sources_by_header.items()
        }
        self._latch_sources = sources_by_header

        # Innermost enclosing header per node: the header of the smallest
        # loop containing the node.  Reducibility guarantees proper nesting.
        self._innermost = {}
        ordered_headers = sorted(
            self._members, key=lambda h: len(self._members[h]), reverse=True
        )
        for header in ordered_headers:  # big loops first, small overwrite
            for member in self._members[header]:
                self._innermost[member] = header

        self._level = {}
        for node in cfg.nodes():
            depth = 1
            enclosing = self._innermost.get(node)
            # A header's own level is that of its surroundings, not its loop.
            while enclosing is not None:
                depth += 1
                enclosing = self._innermost.get(enclosing)
            self._level[node] = depth

    # -- queries ----------------------------------------------------------

    def headers(self):
        """Loop headers in deterministic (tie-break order) sequence."""
        order = self._cfg.order_map()
        return sorted(self._members, key=lambda h: order[h])

    def is_header(self, node):
        return node in self._members

    def members(self, header):
        """``T(header)`` — loop members excluding the header; empty set for
        non-headers (paper: ``T(n) = ∅`` for all non-header nodes)."""
        return self._members.get(header, OrderedSet())

    def members_plus(self, header):
        """``T+(header) = T(header) ∪ {header}``."""
        result = OrderedSet([header])
        result.update(self.members(header))
        return result

    def innermost(self, node):
        """Header of the innermost loop containing ``node`` (None if at
        top level).  For a header this is the *enclosing* loop's header."""
        return self._innermost.get(node)

    def level(self, node):
        """Loop nesting level; top-level nodes are level 1."""
        return self._level[node]

    def children(self, header):
        """``CHILDREN(header)``: members one level deeper, i.e. members
        whose innermost enclosing loop is this header's loop."""
        return [m for m in self.members(header) if self._innermost.get(m) is header]

    def enclosing_headers(self, node):
        """Headers of all loops containing ``node``, innermost first."""
        result = []
        enclosing = self._innermost.get(node)
        while enclosing is not None:
            result.append(enclosing)
            enclosing = self._innermost.get(enclosing)
        return result

    def contains(self, header, node):
        """True if ``node ∈ T(header)``."""
        members = self._members.get(header)
        return members is not None and node in members

    def latch(self, header):
        """The unique source of the CYCLE edge into ``header``.

        Raises :class:`GraphError` when the loop has multiple back edges
        (run :func:`repro.graph.normalize.normalize` first).
        """
        sources = self._latch_sources.get(header, [])
        if len(sources) != 1:
            raise GraphError(
                f"loop at {header} has {len(sources)} back edges; expected 1"
            )
        return sources[0]

    def back_edges(self):
        return list(self._back_edges)

    def interval_fingerprints(self, render):
        """Merkle-style content fingerprints over the interval tree.

        Each interval's fingerprint hashes the header's own rendering,
        the renderings of its direct (same-level) members in program
        order, and — in place of each nested loop's members — the
        *fingerprint* of that child interval.  An edit therefore changes
        exactly the fingerprints of the intervals on the path from the
        edited statement to the root, which is how the incremental
        compile layer reports which intervals an edit touched
        (``docs/scaling.md``).

        ``render`` maps a node to stable text (e.g. its formatted
        statement).  Returns ``{header: hexdigest}`` with ``None`` keying
        the virtual top-level interval, whose fingerprint covers the
        whole program.
        """
        order = self._cfg.order_map()
        fingerprints = {}

        def fingerprint(header):
            digest = hashlib.sha256()
            digest.update(b"interval")
            if header is not None:
                digest.update(b"\x00h\x00" + render(header).encode())
                members = self.children(header)
            else:
                members = [n for n in self._cfg.nodes()
                           if self._innermost.get(n) is None]
            for member in sorted(members, key=lambda n: order[n]):
                if self.is_header(member):
                    digest.update(b"\x00i\x00" + fingerprint(member).encode())
                else:
                    digest.update(b"\x00s\x00" + render(member).encode())
            value = digest.hexdigest()
            fingerprints[header] = value
            return value

        fingerprint(None)
        return fingerprints
