"""Slot-indexed solution storage for the planned solver.

A :class:`SlotSolution` stores each of the fifteen variables as one
slot-indexed ``list[int]`` bitset column instead of the reference
:class:`~repro.core.solution.Solution`'s dict-of-dicts.  The public API
(``bits`` / ``set_bits`` / ``elements`` / ``nodes_with`` /
``format_node``) is identical, so placements, reports and tests consume
either interchangeably; the planned solver additionally grabs whole
columns via :meth:`column` and indexes them by slot directly.

Contract notes shared by *all* solution stores (reference included):

* ``set_bits`` accepts any node.  Nodes outside the plan land in a side
  table instead of raising — the reference store has always accepted
  arbitrary nodes, and the solvers only ever write plan nodes, so the
  side table exists purely to keep the stores drop-in interchangeable
  for consumers that annotate extra nodes.
* ``nodes_with`` returns nodes in deterministic *view preorder* (plan
  slot order), with any side-table nodes appended in insertion order —
  reports and placements render identically regardless of backend.
* ``nonzero`` iterates the ``(node, bits)`` pairs of one variable with
  nonempty bits, in the order ``nodes_with`` uses: the one traversal
  :class:`~repro.core.placement.Placement` fills itself from.
"""

from itertools import chain, compress

from repro.core.problem import Timing
from repro.core.solution import SHARED_VARIABLES, TIMED_VARIABLES


class SlotSolution:
    """All dataflow variables of one solved instance, as slot columns."""

    def __init__(self, problem, view, plan):
        self.problem = problem
        self.view = view
        self.plan = plan
        n = plan.n
        self._extra = {}
        self._shared = {name: [0] * n for name in SHARED_VARIABLES}
        self._timed = {
            timing: {name: [0] * n for name in TIMED_VARIABLES}
            for timing in Timing
        }

    def _store(self, name, timing):
        if name in self._shared:
            return self._shared[name]
        if timing is None:
            raise KeyError(f"variable {name} requires a timing")
        return self._timed[timing][name]

    def _extra_store(self, name, timing):
        key = (name, None if name in self._shared else timing)
        store = self._extra.get(key)
        if store is None:
            store = self._extra[key] = {}
        return store

    def column(self, name, timing=None):
        """The raw slot-indexed bitset column (the solver's hot path)."""
        return self._store(name, timing)

    def set_bits(self, name, node, bits, timing=None):
        store = self._store(name, timing)  # unknown *names* still raise
        slot = self.plan.slot_of.get(node)
        if slot is None:
            # Same contract as the reference store: any node is
            # accepted; non-plan nodes live in the side table.
            self._extra_store(name, timing)[node] = bits
            return
        store[slot] = bits

    def bits(self, name, node, timing=None):
        """Bitset value of variable ``name`` at ``node``."""
        slot = self.plan.slot_of.get(node)
        if slot is None:
            key = (name, None if name in self._shared else timing)
            return self._extra.get(key, {}).get(node, 0)
        return self._store(name, timing)[slot]

    def elements(self, name, node, timing=None):
        """Value as a frozenset of universe elements (for tests/printing)."""
        return self.problem.universe.frozen(self.bits(name, node, timing))

    def nonzero(self, name, timing=None):
        """Iterate ``(node, bits)`` for every node whose variable
        ``name`` is nonempty: plan nodes in view preorder, then
        side-table nodes in insertion order."""
        store = self._store(name, timing)
        found = compress(zip(self.plan.nodes, store), store)
        key = (name, None if name in self._shared else timing)
        extra = self._extra.get(key)
        if extra:
            return chain(found, ((node, bits) for node, bits in extra.items()
                                 if bits))
        return found

    def nodes_with(self, name, element, timing=None):
        """All nodes whose variable ``name`` contains ``element``, in
        deterministic view preorder (side-table nodes appended in
        insertion order)."""
        bit = self.problem.universe.bit(element)
        return [node for node, bits in self.nonzero(name, timing)
                if bits & bit]

    def format_node(self, node, timing=None):
        """Multi-line dump of every variable at ``node`` (debugging)."""
        universe = self.problem.universe
        lines = [f"node {node}:"]
        for name in SHARED_VARIABLES:
            lines.append(f"  {name:10} = {universe.format(self.bits(name, node))}")
        for t in Timing if timing is None else (timing,):
            for name in TIMED_VARIABLES:
                value = universe.format(self.bits(name, node, t))
                lines.append(f"  {name}^{t.value:5} = {value}")
        return "\n".join(lines)
