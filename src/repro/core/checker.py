"""Ground-truth validation of placements (paper §3.2), exact over all paths.

Along one execution path a placement acts, per element, on three
booleans:

* ``open`` — an EAGER production started, its LAZY completion pending
  (a message sent but not yet received);
* ``avail`` — a completed production (or free GIVE) not destroyed since;
* ``pending`` — a completed *placed* production not yet consumed (GIVEs
  don't count: they are free).

Checked criteria:

* **C1 balance** — EAGER/LAZY productions alternate exactly: no double
  send, no receive without send, nothing left open at path end, and no
  destruction while a production region is open.
* **C2 safety** — everything placed is consumed before being destroyed
  or the path ending.  Productions hoisted out of zero-trip loops
  violate strict C2 on the zero-trip paths *by design* (the paper
  accepts overcommunication there); such violations are reported with
  kind ``"safety"`` and can be ignored via ``report.ok(ignore=...)``.
* **C3 sufficiency** — every consumption finds the element available.
* **O1** — no production of an element that is already available.

Every step sets each boolean to a constant or leaves it alone,
independently of the other two, and every violation test reads exactly
one boolean.  So the values a boolean may hold at a point, over *all*
paths reaching it, are exactly the union of its values along each path,
and five union-at-merge bitsets per node context decide every criterion
over every entry→exit path: may-open, may-closed, may-avail,
may-unavail and may-pending.  :func:`check_placement` propagates them to
a fixpoint over the graph's node contexts (a loop header reached along
its back edge skips its entry productions; under ``min_trips=1`` a
header entered from outside must run its body).  Each violation carries
a witness path, searched for only when it is read.

For AFTER problems the walk runs backward from the exit with edge roles
swapped, exactly mirroring the solver's BackwardView.

The per-path replay (:func:`_replay` over
:func:`~repro.core.paths.enumerate_paths`'s bounded paths) stays as the
reference oracle the exact analysis is tested against.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.placement import Position
from repro.core.problem import Direction, Timing
from repro.graph.interval_graph import EdgeType


@dataclass(frozen=True)
class Violation:
    """One criterion violation, found on at least one path."""

    kind: str        # "balance" | "safety" | "sufficiency" | "redundant"
    criterion: str   # "C1" | "C2" | "C3" | "O1"
    element: object
    node: object
    message: str
    #: zero-argument callable returning the witness path (None when the
    #: violation does not come from a path-based check)
    find_witness: object = field(default=None, repr=False, compare=False)

    @cached_property
    def witness(self):
        """A complete entry→exit path (tuple of CFG nodes) whose replay
        hits this violation, or None."""
        if self.find_witness is None:
            return None
        return tuple(self.find_witness())

    def __str__(self):
        text = (f"[{self.criterion}/{self.kind}] {self.element} at "
                f"{self.node}: {self.message}")
        if self.find_witness is not None:
            path = " -> ".join(str(node.id) for node in self.witness)
            text += f" (witness: {path})"
        return text


class CheckReport:
    """All violations of one placement over every checked path."""

    def __init__(self, violations):
        self.violations = violations

    @property
    def truncated(self):  # perfbench/layers.py's certify observer reads it
        return False

    @property
    def paths_checked(self):  # perfbench/layers.py's certify observer reads it
        return 0

    def by_kind(self, kind):
        return [v for v in self.violations if v.kind == kind]

    def by_criterion(self, criterion):
        """Violations of one paper criterion ("C1", "C2", "C3", "O1")."""
        return [v for v in self.violations if v.criterion == criterion]

    def ok(self, ignore=()):
        """True when no violations remain after dropping the listed
        kinds (e.g. ``ignore=("safety",)`` to permit zero-trip
        overproduction)."""
        return not [v for v in self.violations if v.kind not in ignore]

    def summary(self):
        if not self.violations:
            return "OK"
        kinds = {}
        for violation in self.violations:
            kinds[violation.kind] = kinds.get(violation.kind, 0) + 1
        detail = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        return f"{len(self.violations)} violations ({detail})"

    def __str__(self):
        lines = [self.summary()]
        lines.extend(str(v) for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"... {len(self.violations) - 20} more")
        return "\n".join(lines)


def check_placement(ifg, problem, placement, min_trips=0):
    """Check ``placement`` on every entry→exit path of ``ifg``; return a
    :class:`CheckReport`.

    With the default loop-parametric element semantics (see
    ``Problem.trust_loop_side_effects``), sufficiency is exact on paths
    where entered loops run at least once — pass ``min_trips=1`` to
    restrict to those."""
    return _ContextGraph(ifg, problem, placement).check(min_trips)


def check_placement_dual(ifg, problem, placement):
    """Both verdicts the optimistic WRITE certification needs.

    Returns ``(full, min_trip)``: the reports of
    :func:`check_placement` with ``min_trips=0`` and ``min_trips=1``,
    sharing one context graph."""
    graph = _ContextGraph(ifg, problem, placement)
    return graph.check(0), graph.check(1)


# -- the exact analysis -------------------------------------------------------

# Fields of the packed state, in order: may-open, may-closed, may-avail,
# may-unavail, may-pending.  Field f of element i is bit f * width + i.
_OPEN, _CLOSED, _AVAIL, _UNAVAIL, _PENDING = range(5)

# Per step: the fields it reads, as (field, kind, criterion, message).
_TESTS = {
    "eager": ((_OPEN, "balance", "C1", "EAGER production while already open"),
              (_AVAIL, "redundant", "O1",
               "production of an already available element")),
    "lazy": ((_CLOSED, "balance", "C1",
              "LAZY production without matching EAGER production"),),
    "consume": ((_UNAVAIL, "sufficiency", "C3",
                 "consumption of an unavailable element"),),
    "give": (),
    "steal": ((_OPEN, "balance", "C1",
               "destruction inside an open production region"),
              (_PENDING, "safety", "C2",
               "produced element destroyed before any consumption")),
    "finish": ((_OPEN, "balance", "C1",
                "EAGER production never completed by a LAZY production"),
               (_PENDING, "safety", "C2",
                "produced element never consumed "
                "(expected on zero-trip paths when hoisting is enabled)")),
}

# Per step: the fields it clears and the fields it sets for its elements.
_EFFECTS = {
    "eager": ((_CLOSED,), (_OPEN,)),
    "lazy": ((_OPEN, _UNAVAIL), (_CLOSED, _AVAIL, _PENDING)),
    "consume": ((_PENDING,), ()),
    "give": ((_UNAVAIL,), (_AVAIL,)),
    "steal": ((_OPEN, _AVAIL, _PENDING), (_CLOSED, _UNAVAIL)),
}

def _steps(width, *pairs):
    """``(step, bits, keep, gen)`` per ``(step, bits)`` pair with nonzero
    bits: the step as a packed transfer ``x & keep | gen``."""
    steps = []
    for step, bits in pairs:
        if not bits:
            continue
        cleared, set_ = _EFFECTS[step]
        kill = gen = 0
        for f in cleared:
            kill |= bits << (f * width)
        for f in set_:
            gen |= bits << (f * width)
        steps.append((step, bits, ~kill, gen))
    return steps


def _compose(steps):
    """``(keep, gen)`` of running ``steps`` in order."""
    keep, gen = -1, 0
    for _, _, k, g in steps:
        keep &= k
        gen = gen & k | g
    return keep, gen


class _ContextGraph:
    """The node contexts of one placement's walk and their transfers.

    Node ``i`` (in CFG order) has two contexts: ``2i`` reached along a
    non-CYCLE edge of the view (or as the walk's start), ``2i + 1``
    reached along a view CYCLE edge — only headers have the latter, and
    it skips the first-key (entry) productions.  Second-key (exit)
    productions run on view FORWARD/JUMP out-edges only.
    """

    def __init__(self, ifg, problem, placement):
        cfg, forest = ifg.cfg, ifg.forest
        backward = problem.direction is Direction.AFTER
        if backward:
            first_key, second_key = Position.AFTER, Position.BEFORE
            start, end = cfg.exit, cfg.entry
        else:
            first_key, second_key = Position.BEFORE, Position.AFTER
            start, end = cfg.entry, cfg.exit
        self.backward = backward
        self.universe = problem.universe
        width = self.width = len(problem.universe)
        self.nodes = nodes = cfg.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        #: the walk's first context, and the node context it ends at
        self.start, self.end = 2 * index[start], 2 * index[end]
        self.headers = [forest.is_header(node) for node in nodes]

        # ctx -> steps run on arrival; node -> steps run on leaving it
        # along a view FORWARD/JUMP edge.
        self.steps, self.exit_steps = [], []
        for node in nodes:
            body = _steps(width, ("consume", problem.take_init(node)),
                          ("give", problem.give_init(node)),
                          ("steal", problem.steal_init(node)))
            self.steps.append(_steps(
                width,
                ("eager", placement.bits_at(node, first_key, Timing.EAGER)),
                ("lazy", placement.bits_at(node, first_key, Timing.LAZY)),
            ) + body)
            self.steps.append(body)
            self.exit_steps.append(_steps(
                width,
                ("eager", placement.bits_at(node, second_key, Timing.EAGER)),
                ("lazy", placement.bits_at(node, second_key, Timing.LAZY))))
        self.transfer = [_compose(steps) for steps in self.steps]
        self.exit_transfer = [_compose(steps) for steps in self.exit_steps]

        # ctx -> [(target ctx, FORWARD/JUMP edge?, stays in the loop?)]
        self.edges = [[] for _ in self.steps]
        for i, node in enumerate(nodes):
            for succ in (cfg.preds(node) if backward else cfg.succs(node)):
                if backward:
                    real = ifg.edge_type(succ, node)
                    cycle = real is EdgeType.ENTRY  # reversal: ENTRY -> CYCLE
                else:
                    real = ifg.edge_type(node, succ)
                    cycle = real is EdgeType.CYCLE
                fj = real in (EdgeType.FORWARD, EdgeType.JUMP)
                edge = (2 * index[succ] + cycle, fj,
                        forest.contains(node, succ))
                self.edges[2 * i].append(edge)
                self.edges[2 * i + 1].append(edge)

    # -- the context graph under one min_trips setting ------------------------

    def _live_graph(self, min_trips):
        """``(succs, finishes, live)``: per context the allowed
        out-edges ``(target, fj)`` into contexts that still reach a path
        end, the contexts a path may end in, and the contexts that reach
        one.  Under ``min_trips`` a header entered from outside must go
        on into its loop, and may not end the (backward) walk either."""
        end = self.end
        finishes = {end + 1}
        if not (min_trips and self.headers[end // 2]):
            finishes.add(end)
        allowed = []
        for ctx, edges in enumerate(self.edges):
            restricted = min_trips and not ctx & 1 and self.headers[ctx // 2]
            allowed.append([(t, fj) for t, fj, inside in edges
                            if inside or not restricted])
        preds = [[] for _ in allowed]
        for ctx, edges in enumerate(allowed):
            for t, _ in edges:
                preds[t].append(ctx)
        live = set(finishes)
        queue = deque(finishes)
        while queue:
            for p in preds[queue.popleft()]:
                if p not in live:
                    live.add(p)
                    queue.append(p)
        succs = [[(t, fj) for t, fj in edges if t in live]
                 for edges in allowed]
        return succs, finishes & live, live

    def _initial(self):
        mask = (1 << self.width) - 1
        return mask << (_CLOSED * self.width) | mask << (_UNAVAIL * self.width)

    def check(self, min_trips):
        """The :class:`CheckReport` over every path (``min_trips=1``:
        every path on which each entered loop runs at least once)."""
        start = self.start
        succs, finishes, live = self._live_graph(min_trips)
        if not self.width or start not in live:
            return CheckReport([])

        # Fixpoint of the packed may-sets at context entry.
        state = [0] * len(self.steps)
        state[start] = self._initial()
        queue, queued = deque([start]), {start}
        while queue:
            ctx = queue.popleft()
            queued.discard(ctx)
            keep, gen = self.transfer[ctx]
            out = state[ctx] & keep | gen
            keep, gen = self.exit_transfer[ctx // 2]
            out_fj = out & keep | gen
            for t, fj in succs[ctx]:
                new = state[t] | (out_fj if fj else out)
                if new != state[t]:
                    state[t] = new
                    if t not in queued:
                        queued.add(t)
                        queue.append(t)

        # One pass over the reached contexts collects the violations.
        found = {}
        for ctx, x in enumerate(state):
            if not x:
                continue
            for position, (step, bits, keep, gen) in enumerate(
                    self.steps[ctx]):
                self._test(found, min_trips, ctx, ("in", position),
                           step, bits, x)
                x = x & keep | gen
            if ctx in finishes:
                self._test(found, min_trips, ctx, ("end", 0), "finish",
                           -1, x)
            if any(fj for _, fj in succs[ctx]):
                for position, (step, bits, keep, gen) in enumerate(
                        self.exit_steps[ctx // 2]):
                    self._test(found, min_trips, ctx, ("out", position),
                               step, bits, x)
                    x = x & keep | gen
        return CheckReport(list(found.values()))

    def _test(self, found, min_trips, ctx, where, step, bits, x):
        """Record the violations ``step`` on ``bits`` raises in state
        ``x`` at ``ctx``."""
        width = self.width
        mask = (1 << width) - 1
        node = self.nodes[ctx // 2]
        for f, kind, criterion, message in _TESTS[step]:
            hit = bits & (x >> (f * width)) & mask
            for element in self.universe.members(hit):
                key = (kind, criterion, element, node, message)
                if key in found:
                    continue
                position = f * width + self.universe.index(element)
                found[key] = Violation(
                    kind, criterion, element, node, message,
                    find_witness=lambda m=min_trips, c=ctx, w=where,
                    p=position: self.witness(m, c, w, p))

    # -- witnesses ------------------------------------------------------------

    def witness(self, min_trips, ctx, where, position):
        """A complete entry→exit path on which the walk reaches ``ctx``
        with state bit ``position`` set at step ``where`` — the step a
        violation was found at."""
        succs, finishes, _ = self._live_graph(min_trips)
        phase, index = where
        steps = self.steps[ctx]
        before = steps[:index] if phase == "in" else steps
        if phase == "out":
            before = before + self.exit_steps[ctx // 2][:index]

        def bit_after(steps, bit):
            keep, gen = _compose(steps)
            return ((bit << position) & keep | gen) >> position & 1

        def successors(pair):
            at, bit = pair
            out = bit_after(self.steps[at], bit)
            out_fj = bit_after(self.steps[at] + self.exit_steps[at // 2], bit)
            return [(t, out_fj if fj else out) for t, fj in succs[at]]

        # Prefix: the bit followed along the walk from the start.
        prefix = _shortest_walk(
            (self.start, self._initial() >> position & 1), successors,
            lambda pair: pair[0] == ctx and bit_after(before, pair[1]))
        walk = [at for at, _ in prefix]
        # Suffix: the step's own out-edge, then any way to a path end.
        if phase == "out":
            walk.append(next(t for t, fj in succs[ctx] if fj))
        if phase != "end":
            walk += _shortest_walk(walk[-1],
                                   lambda at: [t for t, _ in succs[at]],
                                   finishes.__contains__)[1:]
        nodes = [self.nodes[c // 2] for c in walk]
        return nodes[::-1] if self.backward else nodes


def _shortest_walk(first, successors, is_goal):
    """The states of a shortest walk from ``first`` to a goal state."""
    parent = {first: None}
    queue = deque([first])
    while queue:
        state = queue.popleft()
        if is_goal(state):
            walk = []
            while state is not None:
                walk.append(state)
                state = parent[state]
            return walk[::-1]
        for nxt in successors(state):
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
    raise AssertionError("no walk reaches a goal state")


# -- the reference oracle: bounded path replay --------------------------------


def _replay(ifg, problem, placement, path):
    """Replay one entry→exit path; return its violations (each with the
    path as its witness)."""
    direction = problem.direction
    if direction is Direction.AFTER:
        steps = list(reversed(path))
        first_key, second_key = Position.AFTER, Position.BEFORE
    else:
        steps = list(path)
        first_key, second_key = Position.BEFORE, Position.AFTER

    def incoming_is_cycle(i):
        """Whether the walk arrives at steps[i] along a (view) CYCLE edge
        — i.e. a loop back edge; header-entry productions are skipped on
        back-edge arrivals (they live in the preheader position)."""
        if i == 0:
            return False
        if direction is Direction.AFTER:
            real = ifg.edge_type(steps[i], steps[i - 1])
            return real is EdgeType.ENTRY  # reversal maps ENTRY -> CYCLE
        return ifg.edge_type(steps[i - 1], steps[i]) is EdgeType.CYCLE

    def outgoing_is_fj(i):
        """Whether the walk leaves steps[i] along a (view) FORWARD or
        JUMP edge — the only edges exit productions (Eq 15) live on."""
        if i == len(steps) - 1:
            return False
        if direction is Direction.AFTER:
            real = ifg.edge_type(steps[i + 1], steps[i])
        else:
            real = ifg.edge_type(steps[i], steps[i + 1])
        return real in (EdgeType.FORWARD, EdgeType.JUMP)

    state = _State(problem.universe, path)

    for i, node in enumerate(steps):
        if not incoming_is_cycle(i):
            state.produce_eager(node, placement.bits_at(node, first_key, Timing.EAGER))
            state.produce_lazy(node, placement.bits_at(node, first_key, Timing.LAZY))
        state.consume(node, problem.take_init(node))
        state.give(node, problem.give_init(node))
        state.steal(node, problem.steal_init(node))
        if outgoing_is_fj(i):
            state.produce_eager(node, placement.bits_at(node, second_key, Timing.EAGER))
            state.produce_lazy(node, placement.bits_at(node, second_key, Timing.LAZY))

    state.finish(steps[-1])
    return state.violations


class _State:
    """Per-path replay state over bitsets."""

    def __init__(self, universe, path=None):
        self.universe = universe
        self.path = None if path is None else tuple(path)
        self.open = 0
        self.avail = 0
        self.pending = 0
        self.violations = []

    def _flag(self, kind, criterion, bits, node, message):
        path = self.path
        for element in self.universe.members(bits):
            self.violations.append(
                Violation(kind, criterion, element, node, message,
                          find_witness=None if path is None
                          else lambda: path))

    def produce_eager(self, node, bits):
        if not bits:
            return
        double = bits & self.open
        if double:
            self._flag("balance", "C1", double, node, "EAGER production while already open")
        redundant = bits & self.avail
        if redundant:
            self._flag("redundant", "O1", redundant, node,
                       "production of an already available element")
        self.open |= bits

    def produce_lazy(self, node, bits):
        if not bits:
            return
        unmatched = bits & ~self.open
        if unmatched:
            self._flag("balance", "C1", unmatched, node,
                       "LAZY production without matching EAGER production")
        self.open &= ~bits
        self.avail |= bits
        self.pending |= bits

    def consume(self, node, bits):
        if not bits:
            return
        missing = bits & ~self.avail
        if missing:
            self._flag("sufficiency", "C3", missing, node,
                       "consumption of an unavailable element")
        self.pending &= ~bits

    def give(self, node, bits):
        self.avail |= bits

    def steal(self, node, bits):
        if not bits:
            return
        in_region = bits & self.open
        if in_region:
            self._flag("balance", "C1", in_region, node,
                       "destruction inside an open production region")
            self.open &= ~bits
        wasted = bits & self.pending
        if wasted:
            self._flag("safety", "C2", wasted, node,
                       "produced element destroyed before any consumption")
        self.avail &= ~bits
        self.pending &= ~bits

    def finish(self, last_node):
        if self.open:
            self._flag("balance", "C1", self.open, last_node,
                       "EAGER production never completed by a LAZY production")
        if self.pending:
            self._flag("safety", "C2", self.pending, last_node,
                       "produced element never consumed "
                       "(expected on zero-trip paths when hoisting is enabled)")
