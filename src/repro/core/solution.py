"""Per-node dataflow variable storage for a solved instance.

Variables are addressed by their paper names (``"STEAL"``, ``"TAKEN_in"``,
``"GIVEN_out"``, …).  The S1/S2 variables are timing-independent; the
S3/S4 variables exist once per timing (EAGER/LAZY).

Each variable is one *slot column*: a ``list[int]`` of bitsets indexed
by the node's position in the view's PREORDER (``view.position``, the
slots of the planned kernel's :class:`~repro.core.kernel.plan.SolverPlan`).
Both kernels and the chaotic-iteration oracle write this one store; the
planned kernel grabs whole columns via :meth:`Solution.column`, everyone
else goes through ``bits``/``set_bits``.  Only view nodes have a slot: any
other node is a ``KeyError``, as is an unknown variable name.
"""

from itertools import compress

from repro.core.problem import Timing

#: Variables shared between EAGER and LAZY (equation sets S1 and S2).
SHARED_VARIABLES = (
    "STEAL",       # Eq 1
    "GIVE",        # Eq 2
    "BLOCK",       # Eq 3
    "TAKEN_out",   # Eq 4
    "TAKE",        # Eq 5
    "TAKEN_in",    # Eq 6
    "BLOCK_loc",   # Eq 7
    "TAKE_loc",    # Eq 8
    "GIVE_loc",    # Eq 9
    "STEAL_loc",   # Eq 10
)

#: Variables computed per timing (equation sets S3 and S4).
TIMED_VARIABLES = (
    "GIVEN_in",    # Eq 11
    "GIVEN",       # Eq 12
    "GIVEN_out",   # Eq 13
    "RES_in",      # Eq 14
    "RES_out",     # Eq 15
)


class Solution:
    """All dataflow variables of one solved GIVE-N-TAKE instance, as
    slot columns."""

    def __init__(self, problem, view):
        self.problem = problem
        self.view = view
        self._slot = view.position
        n = len(self._slot)
        self._shared = {name: [0] * n for name in SHARED_VARIABLES}
        self._timed = {
            timing: {name: [0] * n for name in TIMED_VARIABLES}
            for timing in Timing
        }

    def column(self, name, timing=None):
        """The slot-indexed bitset column of variable ``name`` (the
        planned kernel's hot path)."""
        if name in self._shared:
            return self._shared[name]
        if timing is None:
            raise KeyError(f"variable {name} requires a timing")
        return self._timed[timing][name]

    def set_bits(self, name, node, bits, timing=None):
        self.column(name, timing)[self._slot[node]] = bits

    def bits(self, name, node, timing=None):
        """Bitset value of variable ``name`` at ``node``."""
        return self.column(name, timing)[self._slot[node]]

    def elements(self, name, node, timing=None):
        """Value as a frozenset of universe elements (for tests/printing)."""
        return self.problem.universe.frozen(self.bits(name, node, timing))

    def nonzero(self, name, timing=None):
        """Iterate ``(node, bits)`` for every node whose variable
        ``name`` is nonempty, in view preorder."""
        column = self.column(name, timing)
        return compress(zip(self.view.nodes_preorder(), column), column)

    def nodes_with(self, name, element, timing=None):
        """All nodes whose variable ``name`` contains ``element``, in
        view preorder — the shape of the paper's §4 example listings
        (e.g. ``y_b ∈ STEAL({2,3})``)."""
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
