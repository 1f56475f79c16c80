"""Directional views over an interval flow graph.

The GIVE-N-TAKE equations are identical for BEFORE and AFTER problems
(§3.4, §5.3); only the flow of control is reversed.  The solver is
therefore written against the small protocol implemented here:

* :class:`ForwardView` — BEFORE problems (e.g. READ generation); a thin
  delegate to the :class:`~repro.graph.interval_graph.IntervalFlowGraph`.
* :class:`BackwardView` — AFTER problems (e.g. WRITE generation).  Control
  flow is reversed while keeping the *original* interval structure, as in
  the paper's implementation: predecessor and successor roles swap, edge
  types remap ENTRY↔CYCLE (FORWARD/JUMP/SYNTHETIC are self-dual),
  ``LASTCHILD`` becomes the loop's unique body-entry node, and loops whose
  interval contains a JUMP source are blocked (``steal_all``) — under reversal
  those jumps enter the loop mid-body, so hoisting consumption out of the
  loop would be unsafe (paper §5.3, Figure 16).

Traversal orders and child orders sit on the solver's hot path, so both
views compute them once: ``nodes_preorder()``/``nodes_reverse_preorder()``
return cached tuples (never copies) — the graph's own PREORDER and
POSTORDER, shared by every view — ``position`` maps each node to its
index in ``nodes_preorder()``, and ``children()`` memoizes the sorted
order per view.  ``plan_key`` identifies the view's *shape* —
everything a compiled :class:`~repro.core.kernel.plan.SolverPlan`
depends on — so equal keys share one cached plan per graph.

The per-node queries (``succs``, ``preds``, ``children``, ``lastchild``,
``header_of``, ``steal_all``) are the protocol the reference solver
walks.  A plan instead reads the whole graph at once:
``letter_adjacency()`` hands over the interval graph's per-letter
adjacency in the view's own edge letters, and ``blocked_headers`` lists
the nodes ``steal_all`` is true for.
"""

from repro.graph.traversal import preorder, postorder

_BACKWARD_TYPE_MAP = str.maketrans({"E": "C", "C": "E"})


def _swap_entry_cycle(adjacency):
    """Per-letter adjacency with the ENTRY and CYCLE letters exchanged."""
    return {letter.translate(_BACKWARD_TYPE_MAP): nodes
            for letter, nodes in adjacency.items()}


class ForwardView:
    """BEFORE-problem view: the graph as it is."""

    direction = "before"

    #: Plan-cache key: all ForwardViews of one graph share one shape.
    plan_key = ("before",)

    #: No node steals the whole universe in the forward direction.
    blocked_headers = frozenset()

    def __init__(self, ifg):
        self.ifg = ifg
        self.root = ifg.root
        self._preorder = preorder(ifg)
        self._reverse_preorder = tuple(reversed(self._preorder))
        self.position = {node: i for i, node in enumerate(self._preorder)}
        self._children = {}

    def nodes_preorder(self):
        """This view's FORWARD+DOWNWARD order (a cached tuple — shared,
        not copied, across all sweeps)."""
        return self._preorder

    def nodes_reverse_preorder(self):
        return self._reverse_preorder

    def succs(self, node, letters):
        return self.ifg.succs(node, letters)

    def preds(self, node, letters):
        return self.ifg.preds(node, letters)

    def letter_adjacency(self):
        """The graph's own ``(succs, preds)`` per edge letter."""
        return self.ifg.letter_adjacency()

    def lastchild(self, node):
        return self.ifg.lastchild(node)

    def header_of(self, node):
        return self.ifg.header_of(node)

    def children(self, node):
        """CHILDREN(node) in this view's FORWARD order (memoized — the
        S2 loop asks per node per sweep)."""
        cached = self._children.get(node)
        if cached is None:
            cached = self._children[node] = tuple(
                sorted(self.ifg.children(node),
                       key=self.position.__getitem__))
        return cached

    def is_header(self, node):
        return self.ifg.is_header(node)

    def steal_all(self, node):
        """Whether the solver must treat ``node`` as stealing the whole
        universe (see BackwardView).  Never in the forward direction."""
        return False

    @property
    def requires_consumption_iteration(self):
        """Whether the S1/S2 sweep needs repeating to reach the fixpoint.

        Never in the forward direction: the paper's evaluation-order
        constraints hold and one pass suffices (§5.2)."""
        return False

    #: Edge letters along which the interval-local S2 flow (Eqs 9/10)
    #: propagates.  Forward: FORWARD and JUMP edges (the paper's
    #: PREDS^{FJ}) plus the SYNTHETIC term of Eq 10.
    loc_pred_letters = "FJ"
    loc_synthetic_letters = "S"


class BackwardView:
    """AFTER-problem view: reversed control flow, original intervals.

    ``blocked=True`` (the default) applies the paper's §5.3 safeguard for
    loops that jumps leave: a whole-universe STEAL at their headers, so
    no production region can span them.  ``blocked=False`` runs the pure
    equations — correct for many jump shapes (Eq 15's balance patching
    covers the Figure 14 write placement) but not all; use it only
    together with checker verification (see
    ``repro.commgen.pipeline.generate_communication``'s optimistic
    mode)."""

    direction = "after"

    def __init__(self, ifg, blocked=True):
        self.ifg = ifg
        self.root = ifg.root
        self.blocked = blocked
        # This view's forward direction is the original backward one, so
        # its PREORDER (forward+downward) is the reverse of the original
        # POSTORDER (forward+upward).
        self._postorder = postorder(ifg)
        self._preorder = tuple(reversed(self._postorder))
        self.position = {node: i for i, node in enumerate(self._preorder)}
        self._children = {}
        self.blocked_headers = (
            frozenset(ifg.headers_with_jump_sources()) if blocked
            else frozenset()
        )

    @property
    def plan_key(self):
        """Plan-cache key: blocked and optimistic backward views differ
        in their ``steal_all`` masks, so they compile separate plans."""
        return ("after", self.blocked)

    def nodes_preorder(self):
        return self._preorder

    def nodes_reverse_preorder(self):
        return self._postorder

    def succs(self, node, letters):
        return self.ifg.preds(node, letters.translate(_BACKWARD_TYPE_MAP))

    def preds(self, node, letters):
        return self.ifg.succs(node, letters.translate(_BACKWARD_TYPE_MAP))

    def letter_adjacency(self):
        """The graph's per-letter adjacency reversed: its predecessors
        are this view's successors and vice versa, with ENTRY and CYCLE
        exchanged."""
        succs, preds = self.ifg.letter_adjacency()
        return _swap_entry_cycle(preds), _swap_entry_cycle(succs)

    def lastchild(self, node):
        """Reversal turns the unique ENTRY edge into the unique CYCLE
        edge, so the reversed LASTCHILD is the original body entry."""
        return self.ifg.body_entry(node)

    def header_of(self, node):
        """In the reversed graph the ENTRY edge into ``node`` is the
        original CYCLE edge out of it, so ``node`` must be the original
        latch and its header is unchanged."""
        cycle_targets = self.ifg.succs(node, "C")
        return cycle_targets[0] if cycle_targets else None

    def children(self, node):
        cached = self._children.get(node)
        if cached is None:
            cached = self._children[node] = tuple(
                sorted(self.ifg.children(node),
                       key=self.position.__getitem__))
        return cached

    def is_header(self, node):
        return self.ifg.is_header(node)

    def steal_all(self, node):
        """Headers of loops a jump leaves: under reversal those jumps
        enter the loop, so production regions must not span it.  The
        solver injects a whole-universe STEAL there (§5.3); this loses
        some legal optimizations but never safety, as the paper notes."""
        return node in self.blocked_headers

    @property
    def requires_consumption_iteration(self):
        """With jumps present, an extra verification sweep guarantees
        the fixpoint was reached (the restricted F-only local flow makes
        one pass sufficient in practice; the check is cheap insurance)."""
        return bool(self.ifg.jump_edges())

    #: Under reversal, JUMP and SYNTHETIC edges enter loops mid-body —
    #: they are not same-interval flow, so the interval-local S2
    #: equations only follow FORWARD edges.  Feeding reversed jumps into
    #: the _loc chains would attribute post-loop effects to the loop
    #: summary itself (paper §5.3's irreducibility hazard).  Safety for
    #: regions interacting with the jumps is restored by ``steal_all``
    #: (blocked mode) or checker certification (optimistic mode).
    loc_pred_letters = "F"
    loc_synthetic_letters = ""


def cached_view(ifg, direction, blocked=True):
    """A per-graph shared view instance.

    Views are immutable once built but still cost a traversal and a
    position map to construct; the pipeline solves the same graph up to
    three times (READ, optimistic WRITE, blocked WRITE), so views — like
    solver plans — are cached on the graph and keyed by shape.
    """
    key = ("before",) if direction == "before" else ("after", blocked)
    views = ifg.solver_cache("views")
    view = views.get(key)
    if view is None:
        if direction == "before":
            view = ForwardView(ifg)
        else:
            view = BackwardView(ifg, blocked=blocked)
        views[key] = view
    return view
