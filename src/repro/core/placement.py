"""Program-position production placements.

The solver's result variables are relative to the *view* direction: for a
BEFORE problem ``RES_in`` is production at a node's entry, but for an
AFTER problem the in/out subscripts denote exit/entry (paper §4).
:class:`Placement` normalizes both into program positions: a production
either happens ``BEFORE`` a node executes or ``AFTER`` it.

Semantics at loop headers (used by the checker and code generation): a
production *before* a header executes when the loop is entered from
outside (not on the back edge) — textually above the ``do`` statement;
a production *after* a header executes when the loop exits.
"""

from enum import Enum
from operator import itemgetter

from repro.core.problem import Direction, Timing
from repro.util.record import FrozenRecord


class Position(Enum):
    BEFORE = "before"
    AFTER = "after"


class Production(FrozenRecord):
    """One placed production: ``elements`` produced at ``position`` of
    ``node`` in the ``timing`` solution."""

    _fields = ("node", "position", "timing", "elements")

    def __init__(self, node, position, timing, elements):
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "timing", timing)
        object.__setattr__(self, "elements", elements)

    def __str__(self):
        inner = ", ".join(sorted(str(e) for e in self.elements))
        return f"{self.timing.value}@{self.position.value}({self.node}): {{{inner}}}"


class Placement:
    """Both timings' productions of one solved problem, in program
    positions, mutable so the synthetic-node post-pass can shift them."""

    def __init__(self, ifg, problem, solution):
        self.ifg = ifg
        self.problem = problem
        self.solution = solution
        self._bits = placed = {}  # (node, position, timing) -> bitset
        before_key, after_key = ("RES_in", "RES_out")
        if problem.direction is Direction.AFTER:
            before_key, after_key = after_key, before_key
        real = ifg.cfg.order_map()
        for timing in Timing:
            for position, key in ((Position.BEFORE, before_key),
                                  (Position.AFTER, after_key)):
                for node, bits in solution.nonzero(key, timing):
                    if node in real:
                        placed[(node, position, timing)] = bits

    @classmethod
    def empty(cls, ifg, problem):
        """An empty placement to be filled with :meth:`add` — used for
        hand-written placements (naive baselines, negative checker
        tests)."""
        placement = cls.__new__(cls)
        placement.ifg = ifg
        placement.problem = problem
        placement.solution = None
        placement._bits = {}
        return placement

    def add(self, node, position, timing, *elements):
        """Add a production of ``elements`` at (node, position, timing)."""
        bits = self.problem.universe.bits(elements)
        key = (node, position, timing)
        self._bits[key] = self._bits.get(key, 0) | bits

    # -- queries -------------------------------------------------------------

    def bits_at(self, node, position, timing):
        return self._bits.get((node, position, timing), 0)

    def at(self, node, position, timing):
        """Elements produced at (node, position) in the given timing."""
        return self.problem.universe.frozen(self.bits_at(node, position, timing))

    def productions(self, timing=None):
        """All nonempty productions, deterministic order (graph order,
        BEFORE then AFTER, EAGER then LAZY).

        Sorts the (sparse) productions instead of probing every node's
        four keys: a key hashes two enums, and ``Enum.__hash__`` is a
        Python-level call."""
        order = self.ifg.cfg.order_map()
        found = []
        for (node, position, t), bits in self._bits.items():
            rank = order.get(node)
            if bits and rank is not None and (timing is None or t is timing):
                found.append(((rank, position is Position.AFTER,
                               t is Timing.LAZY), node, position, t, bits))
        found.sort(key=itemgetter(0))
        frozen = self.problem.universe.frozen
        return [Production(node, position, t, frozen(bits))
                for _, node, position, t, bits in found]

    def production_count(self, timing=None):
        """Number of (node, position) placements with production."""
        return len(self.productions(timing))

    def sites_for(self, element, timing=None):
        """The (node, position) pairs where ``element`` is produced."""
        bit = self.problem.universe.bit(element)
        result = []
        for (node, position, t), bits in self._bits.items():
            if timing is not None and t is not timing:
                continue
            if bits & bit:
                result.append((node, position))
        order = {n: i for i, n in enumerate(self.ifg.real_nodes())}
        result.sort(key=lambda pair: (order.get(pair[0], -1), pair[1].value))
        return result

    def move(self, node, position, timing, new_node, new_position):
        """Merge the production at (node, position) into
        (new_node, new_position) — used by the synthetic-node post-pass."""
        key = (node, position, timing)
        bits = self._bits.pop(key, 0)
        if not bits:
            return
        new_key = (new_node, new_position, timing)
        self._bits[new_key] = self._bits.get(new_key, 0) | bits

    def __str__(self):
        return "\n".join(str(p) for p in self.productions())
