"""Interval-scoped memoization for the planned solver.

Production traffic against the compile service is *edit* traffic: the
same program resubmitted with a small diff.  The whole-text
``PipelineCache`` namespaces (``"analyzed"``, ``"prepared"``) are
all-or-nothing — one changed byte misses everything — so an edited
program pays a full re-solve even though the paper's own structure says
it shouldn't: Tarjan intervals are independent solve regions, and the
S1/S2 consumption values of a subtree depend only on that subtree's
shape and operands.

:class:`IncrementalSolveMemo` exploits that in two content-addressed
layers, both stored in a :class:`~repro.batch.cache.PipelineCache`:

* **Whole-solve entries** (namespace ``"interval-solve"``) — the full
  :class:`~repro.core.kernel.slots.SlotSolution` column store, keyed by
  the graph signature, the view shape, the ordered universe, and the
  *baked* per-slot operand bitsets (⊤ from ``steal_all`` headers or
  disabled hoisting already expanded to elements).  Statement text is
  deliberately **not** part of the key: an edit that rewrites a scalar
  right-hand side changes the source but neither the graph nor any
  operand bit, so the edited program replays the base program's solve.

* **Interval fragments** (namespace ``"interval-frag"``) — per eligible
  interval ``T(h)``, the ten consumption variables of the slots
  *strictly* inside the subtree, keyed Merkle-style by the subtree's own
  local structure rows plus its baked operands (which fold in every
  child's contribution).  When the whole-solve key misses — the edit
  touched *some* interval — untouched intervals still hit their
  fragment keys and are spliced into the new solve as ``preset``
  bundles, so only changed intervals are actually re-evaluated.

Fragment values are stored as *sorted element reprs*, not raw bits:
an edit elsewhere can grow or reorder the universe, so bit positions
are remapped through the new universe on splice (a repr the new
universe lacks simply misses).  Soundness of the splice rests on a
closure check, not on trust: a header is fragment-eligible only when
every equation operand of every strict-subtree bundle resolves inside
the subtree (jumps or synthetic edges crossing the boundary fail the
check), and fragments are disabled entirely for iterating plans
(backward views with jumps), where the sparse fixpoint may revisit
preset bundles.

The memo also caches the **optimistic write verdict**: whether the
unblocked AFTER solve passed :func:`~repro.core.checker
.check_placement_dual`.  The verdict is a pure function of the solve key
(placement is deterministic from graph + problem + solution), so a warm
delta skips the check entirely.
"""

import hashlib

from repro.core.kernel.plan import plan_for
from repro.core.kernel.planned import PlannedSolver, build_operand_columns
from repro.core.kernel.slots import SlotSolution
from repro.core.problem import Timing
from repro.core.solution import SHARED_VARIABLES, TIMED_VARIABLES
from repro.core.solver import DEFAULT_BACKEND, make_view

#: Folded into every key; bump when key composition, payload layout or a
#: cached verdict's meaning changes so stale entries miss instead of
#: splicing garbage (``/2``: write verdicts are exact over all paths).
INCR_SCHEMA = "repro-incremental/2"

#: PipelineCache namespace for whole-solve columns and write verdicts.
SOLVE_NAMESPACE = "interval-solve"

#: PipelineCache namespace for per-interval consumption fragments.
FRAGMENT_NAMESPACE = "interval-frag"


def _digest(payload):
    """Stable content address of a nested tuple of primitives."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def graph_signature(ifg):
    """A content address of the interval flow graph's *shape*: node
    kinds and the full CEFJS edge relation over the deterministic node
    order — everything the solver plans, the placement, and the path
    checker consult about the graph, and nothing about statement text.

    Cached on the graph instance (the graph is immutable once built).
    """
    cached = ifg.__dict__.get("_incr_graph_signature")
    if cached is None:
        nodes = ifg.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        kinds = tuple(node.kind.value for node in nodes)
        edges = tuple(sorted(
            (index[src], index[dst], edge_type.value)
            for src, dst, edge_type in ifg.edges("CEFJS")))
        cached = ifg.__dict__["_incr_graph_signature"] = (kinds, edges)
    return cached


def _sorted_reprs(universe, bits):
    """A bitset as canonically ordered element reprs — stable across
    universes that intern the same elements in different orders."""
    return tuple(sorted(repr(e) for e in universe.members(bits)))


def fragment_regions(plan):
    """``(header_slot, strict_subtree_slots)`` for every
    fragment-eligible interval of ``plan``.

    Eligibility is decided by a mechanical closure check: every slot an
    equation of a strict-subtree bundle reads (E/FJS successors, and the
    local-chain predecessors of its children) must itself lie strictly
    inside the subtree.  A jump or synthetic edge crossing the interval
    boundary fails the check and the interval is skipped — its values
    may depend on context outside the subtree.  Iterating plans
    (backward with jumps) have no eligible intervals at all.  The root
    pseudo-interval is skipped too: its "fragment" would be the whole
    program, which the whole-solve entry already covers.
    """
    cached = plan.__dict__.get("_fragment_regions")
    if cached is not None:
        return cached
    regions = []
    if not plan.requires_iteration:
        for h in range(plan.n):
            if not plan.is_header[h] or h == plan.root_slot:
                continue
            strict = []
            stack = list(plan.children[h])
            while stack:
                s = stack.pop()
                strict.append(s)
                stack.extend(plan.children[s])
            if not strict:
                continue
            inside = set(strict)
            closed = True
            for s in strict:
                for group in (plan.succs_e[s], plan.succs_fjs[s]):
                    if any(t not in inside for t in group):
                        closed = False
                        break
                if not closed:
                    break
                for c in plan.children[s]:
                    if (any(p not in inside for p in plan.preds_loc[c])
                            or any(p not in inside
                                   for p in plan.preds_syn[c])):
                        closed = False
                        break
                if not closed:
                    break
            if closed:
                regions.append((h, tuple(sorted(inside))))
    cached = plan.__dict__["_fragment_regions"] = tuple(regions)
    return cached


def _local_rows(plan, strict, local):
    """The subtree's structure rows with slots remapped to subtree-local
    indices: everything a strict bundle's equations consult about the
    plan, independent of where the subtree sits in the program."""
    rows = []
    for s in strict:
        lastchild = plan.lastchild[s]
        rows.append((
            local[s],
            tuple(local[c] for c in plan.children[s]),
            local[lastchild] if lastchild >= 0 else -1,
            tuple(local[t] for t in plan.succs_e[s]),
            tuple(local[t] for t in plan.succs_f[s]),
            tuple(local[t] for t in plan.succs_ef[s]),
            tuple(local[t] for t in plan.succs_fj[s]),
            tuple(local.get(t, -1) for t in plan.succs_fjs[s]),
            tuple(local.get(p, -1) for p in plan.preds_loc[s]),
            tuple(local.get(p, -1) for p in plan.preds_syn[s]),
        ))
    return tuple(rows)


class IncrementalSolveMemo:
    """Content-addressed replay of planned solves, interval fragments,
    and optimistic write verdicts through a ``PipelineCache``.

    One memo instance accompanies one compile; its :attr:`stats` dict is
    surfaced as the ``incremental`` block of the compile result.  Only
    the ``"planned"`` kernel is memoized; the reference backend is the
    differential oracle and must keep computing from scratch.
    """

    def __init__(self, cache):
        self.cache = cache
        self.stats = {
            "whole_hits": 0,
            "whole_misses": 0,
            "interval_hits": 0,
            "interval_misses": 0,
            "intervals_reused": 0,
            "intervals_solved": 0,
            "fragments_stored": 0,
            "verdict_hits": 0,
            "verdict_misses": 0,
        }

    @staticmethod
    def applies(backend):
        return (backend or DEFAULT_BACKEND) == "planned"

    # -- keying --------------------------------------------------------------

    def _solve_key(self, ifg, view, problem, operands, max_rounds):
        take0, give0, steal0 = operands
        return _digest((
            INCR_SCHEMA, "solve",
            graph_signature(ifg),
            view.plan_key,
            problem.direction.value,
            bool(problem.trust_loop_side_effects),
            bool(problem.hoist_zero_trip),
            tuple(repr(e) for e in problem.universe),
            tuple(take0), tuple(give0), tuple(steal0),
            max_rounds,
        ))

    def _fragment_key(self, view, plan, problem, operands, strict, local):
        take0, give0, steal0 = operands
        universe = problem.universe
        operand_rows = tuple(
            (_sorted_reprs(universe, take0[s]),
             _sorted_reprs(universe, give0[s]),
             _sorted_reprs(universe, steal0[s]))
            for s in strict)
        return _digest((
            INCR_SCHEMA, "fragment",
            view.plan_key,
            problem.direction.value,
            bool(problem.trust_loop_side_effects),
            _local_rows(plan, strict, local),
            operand_rows,
        ))

    # -- solving -------------------------------------------------------------

    def solve(self, ifg, problem, view=None, max_rounds=None):
        """Solve ``problem`` on ``ifg`` with the planned kernel,
        replaying cached whole solves and interval fragments."""
        if view is None:
            view = make_view(ifg, problem.direction)
        plan = plan_for(view)
        operands = build_operand_columns(plan, problem)
        key = self._solve_key(ifg, view, problem, operands, max_rounds)
        entry = self.cache.get(SOLVE_NAMESPACE, key)
        solution = self._replay_whole(entry, problem, view, plan)
        if solution is not None:
            self.stats["whole_hits"] += 1
            self.stats["intervals_reused"] += len(fragment_regions(plan))
            return solution
        self.stats["whole_misses"] += 1
        preset, covered = self._probe_fragments(view, plan, problem, operands)
        solution = PlannedSolver(view, problem, max_rounds=max_rounds,
                                 plan=plan, preset=preset).run()
        self._store(key, solution, view, plan, problem, operands, covered)
        return solution

    def _replay_whole(self, entry, problem, view, plan):
        """A fresh :class:`SlotSolution` from a stored column payload,
        or ``None`` when the payload is absent or malformed."""
        if not isinstance(entry, dict):
            return None
        shared = entry.get("shared")
        timed = entry.get("timed")
        if not isinstance(shared, dict) or not isinstance(timed, dict):
            return None
        solution = SlotSolution(problem, view, plan)
        try:
            for name in SHARED_VARIABLES:
                column = shared[name]
                if len(column) != plan.n:
                    return None
                solution.column(name)[:] = column
            for timing in Timing:
                stored = timed[timing.value]
                for name in TIMED_VARIABLES:
                    column = stored[name]
                    if len(column) != plan.n:
                        return None
                    solution.column(name, timing)[:] = column
        except (KeyError, TypeError):
            return None
        return solution

    def _probe_fragments(self, view, plan, problem, operands):
        """Look up every eligible interval's fragment; return the
        ``preset`` dict for :class:`PlannedSolver` and the set of header
        slots whose subtree was fully covered by a hit (outermost hits
        shadow nested ones)."""
        preset = {}
        covered = set()
        repr_bits = None
        for h, strict in fragment_regions(plan):
            if strict[0] in preset:
                # An enclosing interval already spliced this subtree.
                covered.add(h)
                continue
            local = {h: 0}
            for position, s in enumerate(strict, start=1):
                local[s] = position
            key = self._fragment_key(view, plan, problem, operands,
                                     strict, local)
            entry = self.cache.get(FRAGMENT_NAMESPACE, key)
            values = entry.get("values") if isinstance(entry, dict) else None
            if values is None or len(values) != len(strict):
                self.stats["interval_misses"] += 1
                self.stats["intervals_solved"] += 1
                continue
            if repr_bits is None:
                repr_bits = {repr(e): 1 << i
                             for i, e in enumerate(problem.universe)}
            spliced = self._remap(values, repr_bits)
            if spliced is None:
                self.stats["interval_misses"] += 1
                self.stats["intervals_solved"] += 1
                continue
            for s, columns in zip(strict, spliced):
                preset[s] = columns
            covered.add(h)
            self.stats["interval_hits"] += 1
            self.stats["intervals_reused"] += 1
        return preset, covered

    @staticmethod
    def _remap(values, repr_bits):
        """Fragment element reprs -> bitsets of the *current* universe;
        ``None`` when any stored element no longer exists."""
        spliced = []
        try:
            for per_slot in values:
                if len(per_slot) != len(SHARED_VARIABLES):
                    return None
                columns = []
                for reprs in per_slot:
                    bits = 0
                    for text in reprs:
                        bit = repr_bits.get(text)
                        if bit is None:
                            return None
                        bits |= bit
                    columns.append(bits)
                spliced.append(tuple(columns))
        except TypeError:
            return None
        return spliced

    def _store(self, key, solution, view, plan, problem, operands, covered):
        """Persist the whole-solve columns and every eligible interval's
        fragment (fragments that just hit are not rewritten)."""
        payload = {
            "shared": {name: list(solution.column(name))
                       for name in SHARED_VARIABLES},
            "timed": {timing.value: {name: list(solution.column(name, timing))
                                     for name in TIMED_VARIABLES}
                      for timing in Timing},
        }
        self.cache.put(SOLVE_NAMESPACE, key, payload)
        universe = problem.universe
        columns = [solution.column(name) for name in SHARED_VARIABLES]
        for h, strict in fragment_regions(plan):
            if h in covered:
                continue
            local = {h: 0}
            for position, s in enumerate(strict, start=1):
                local[s] = position
            fragment_key = self._fragment_key(view, plan, problem, operands,
                                              strict, local)
            values = tuple(
                tuple(_sorted_reprs(universe, column[s])
                      for column in columns)
                for s in strict)
            self.cache.put(FRAGMENT_NAMESPACE, fragment_key,
                           {"values": values})
            self.stats["fragments_stored"] += 1

    # -- optimistic write verdicts -------------------------------------------

    def _verdict_key(self, ifg, view, problem, operands, max_rounds):
        solve_key = self._solve_key(ifg, view, problem, operands, max_rounds)
        return _digest((INCR_SCHEMA, "verdict", solve_key))

    def write_verdict(self, ifg, problem, view, max_rounds):
        """The cached accept/reject verdict of the optimistic write
        check for this exact solve, or ``None`` when unknown."""
        plan = plan_for(view)
        operands = build_operand_columns(plan, problem)
        key = self._verdict_key(ifg, view, problem, operands, max_rounds)
        entry = self.cache.get(SOLVE_NAMESPACE, key)
        if isinstance(entry, dict) and "accept" in entry:
            self.stats["verdict_hits"] += 1
            return bool(entry["accept"])
        self.stats["verdict_misses"] += 1
        return None

    def store_write_verdict(self, ifg, problem, view, max_rounds, accept):
        plan = plan_for(view)
        operands = build_operand_columns(plan, problem)
        key = self._verdict_key(ifg, view, problem, operands, max_rounds)
        self.cache.put(SOLVE_NAMESPACE, key, {"accept": bool(accept)})
