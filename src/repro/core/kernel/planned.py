"""The planned solver: sweeps S1–S4 as tight loops over slot columns.

Algorithm *GiveNTake* (Figure 15) unchanged — same equations, same
evaluation order, bit-identical results — but executed against a
compiled :class:`~repro.core.kernel.plan.SolverPlan`:

* one full S1/S2 *bundle* sweep in descending slot order
  (REVERSEPREORDER), each bundle inlining Equations 9/10 for the
  node's children (FORWARD order) followed by Equations 1–8;
* for backward views with jumps, a **sparse worklist fixpoint** instead
  of whole-graph re-sweeps: only the plan's ``seeds`` (bundles with an
  order-violating read) are re-evaluated, and a change propagates to
  the changed bundle's dependents — lower-slot dependents join the
  current round, higher-slot ones the next.  Round ``k`` leaves the
  store exactly as dense sweep ``k+1`` would (each round evaluates, in
  descending order, precisely the bundles whose inputs changed — the
  rest are re-evaluation no-ops the dense sweep wastes time on), so
  convergence decisions, budget semantics and final values all match
  the reference solver;
* S3 (Equations 11–13) and S4 (14/15) in ascending slot order, once
  per timing.

Per-equation counts still prove the §5.2 claim: the run event reports
the honest totals (full sweeps plus sparse re-evaluations) together
with ``full_sweeps``/``sparse_rounds``/``sparse_evaluations`` so
:func:`repro.obs.profile.run_satisfies_each_equation_once` can verify
*each equation at most once per node per round* for this backend too.
"""

import heapq

from repro.core.kernel.plan import plan_for
from repro.core.kernel.slots import SlotSolution
from repro.core.problem import Timing
from repro.obs.collector import current_collector
from repro.util.errors import SolverBudgetError, SolverError


def loc_stale(plan, cols, c):
    """Whether Eq 9 or 10 of child ``c``, recomputed against the stored
    state, would change its stored value (first mismatch wins).

    ``cols`` is the ten shared columns in ``SHARED_VARIABLES`` order."""
    ST, GV, _BL, _TO, TK, _TI, _BLl, _TKl, GVl, STl = cols
    preds = plan.preds_loc[c]
    if preds:
        acc = GVl[preds[0]]
        for p in preds[1:]:
            acc &= GVl[p]
    else:
        acc = 0
    if GVl[c] != (GV[c] | TK[c] | acc) & ~ST[c]:
        return True
    bits = ST[c]
    for p in preds:
        bits |= STl[p] & ~GVl[p]
    for p in plan.preds_syn[c]:
        bits |= STl[p]
    return STl[c] != bits


def core_stale(plan, operands, trust, cols, s):
    """Whether any of Eqs 1–8 of slot ``s``, recomputed against the
    stored state (no in-unit propagation — the reference convergence
    probe's semantics), would change its stored value.

    ``operands`` is ``(take0, give0, steal0)`` from
    :meth:`PlannedSolver._build_operands`."""
    take0, give0, steal0 = operands
    ST, GV, BL, TO, TK, TI, BLl, TKl, GVl, STl = cols
    lc = plan.lastchild[s]
    bits = steal0[s]
    if lc >= 0:
        bits |= STl[lc]
    if ST[s] != bits:
        return True
    bits = give0[s]
    if trust and lc >= 0:
        bits |= GVl[lc]
    if GV[s] != bits:
        return True
    entry = plan.succs_e[s]
    bits = ST[s] | GV[s]
    for e in entry:
        bits |= BLl[e]
    if BL[s] != bits:
        return True
    fjs = plan.succs_fjs[s]
    if fjs:
        acc = TI[fjs[0]]
        for t in fjs[1:]:
            acc &= TI[t]
    else:
        acc = 0
    if TO[s] != acc:
        return True
    bits = take0[s]
    guaranteed = 0
    possible = 0
    for e in entry:
        guaranteed |= TI[e]
        possible |= TKl[e]
    bits |= guaranteed & ~ST[s]
    bits |= (TO[s] & possible) & ~BL[s]
    if TK[s] != bits:
        return True
    if TI[s] != TK[s] | (TO[s] & ~BL[s]):
        return True
    bits = BL[s]
    for t in plan.succs_f[s]:
        bits |= BLl[t]
    if BLl[s] != bits & ~TK[s]:
        return True
    acc = 0
    for t in plan.succs_ef[s]:
        acc |= TKl[t]
    return TKl[s] != TK[s] | (acc & ~BL[s])


class PlannedSolver:
    """Plan-driven solver; :func:`repro.core.solver.solve` with
    ``backend="planned"`` is the usual entry point.

    ``max_rounds`` has the reference semantics: an explicit budget on
    the backward consumption iteration, :class:`SolverBudgetError` when
    it is exhausted short of the fixpoint; ``None`` applies the natural
    bound and raises :class:`SolverError` if even that fails.
    """

    def __init__(self, view, problem, max_rounds=None, plan=None):
        self.view = view
        self.problem = problem
        self.max_rounds = max_rounds
        problem.validate_against(view)
        self.plan = plan if plan is not None else plan_for(view)
        self.solution = SlotSolution(problem, view, self.plan)
        self._obs = current_collector()
        self._full_sweeps = 0
        self._sparse_rounds = 0
        self._sparse_bundles = 0
        self._sparse_children = 0

    # -- operand columns -----------------------------------------------------

    def _build_operands(self):
        """Static per-slot operand bitsets for this problem: ``take0``,
        ``give0`` and ``steal0``, with the whole-universe blocking terms
        of Eq 1 (``steal_all`` headers, zero-trip blocking) baked into
        ``steal0``."""
        plan, problem = self.plan, self.problem
        self._take0 = [problem.take_init(node) for node in plan.nodes]
        self._give0 = [problem.give_init(node) for node in plan.nodes]
        top = problem.universe.top
        hoist = problem.hoist_zero_trip
        root_slot = plan.root_slot
        is_header = plan.is_header
        steal_all = plan.steal_all
        steal0 = []
        for s, node in enumerate(plan.nodes):
            bits = problem.steal_init(node)
            if steal_all[s] or (not hoist and s != root_slot and is_header[s]):
                bits |= top
            steal0.append(bits)
        self._steal0 = steal0
        self._trust = problem.trust_loop_side_effects

    # -- driver --------------------------------------------------------------

    def run(self):
        obs = self._obs
        start = obs.clock() if obs.enabled else 0.0
        plan = self.plan
        self._build_operands()
        sol = self.solution
        self._ST = sol.column("STEAL")
        self._GV = sol.column("GIVE")
        self._BL = sol.column("BLOCK")
        self._TO = sol.column("TAKEN_out")
        self._TK = sol.column("TAKE")
        self._TI = sol.column("TAKEN_in")
        self._BLl = sol.column("BLOCK_loc")
        self._TKl = sol.column("TAKE_loc")
        self._GVl = sol.column("GIVE_loc")
        self._STl = sol.column("STEAL_loc")

        natural = budget = None
        checked = False
        self._full_sweep()
        converged = True
        if plan.requires_iteration:
            natural = plan.natural_bound
            budget = natural if self.max_rounds is None else self.max_rounds
            converged, checked = self._sparse_fixpoint(budget)
            if not converged:
                if self.max_rounds is not None:
                    raise SolverBudgetError(
                        f"consumption fixpoint not reached within "
                        f"{budget} rounds (natural bound {natural})"
                    )
                raise SolverError(
                    f"consumption fixpoint not reached within the "
                    f"natural bound of {natural} rounds"
                )
        for timing in Timing:
            self._sweep_production(timing)
            self._sweep_results(timing)
        if obs.enabled:
            self._emit_run_event(start, natural, budget, converged, checked)
        return self.solution

    def _emit_run_event(self, start, natural, budget, converged, checked):
        obs = self._obs
        n = self.plan.n
        counts = {}
        for number in range(1, 9):
            counts[number] = n * self._full_sweeps + self._sparse_bundles
        for number in (9, 10):
            counts[number] = ((n - 1) * self._full_sweeps
                              + self._sparse_children)
        for number in range(11, 16):
            counts[number] = n * 2
        sweeps = self._full_sweeps + self._sparse_rounds
        obs.event(
            "solver", "run",
            direction=self.view.direction,
            backend="planned",
            nodes=n,
            consumption_sweeps=sweeps,
            rounds=sweeps - 1,
            natural_bound=natural,
            budget=budget,
            converged=converged,
            convergence_checked=checked,
            full_sweeps=self._full_sweeps,
            sparse_rounds=self._sparse_rounds,
            sparse_evaluations={"bundles": self._sparse_bundles,
                                "children": self._sparse_children},
            equation_evaluations={
                str(number): count
                for number, count in sorted(counts.items())
            },
            duration_s=obs.clock() - start,
        )
        for number, count in counts.items():
            obs.count("equation_evaluations", number, n=count)

    # -- S1/S2: consumption --------------------------------------------------

    def _eval_bundle(self, s):
        """Evaluate bundle ``s``: Eqs 9/10 for its children in FORWARD
        order, then Eqs 1–8 for the node itself.  Values are written as
        they are computed (the reference ``put`` behavior), so later
        equations of the same bundle see the new ones.  Returns whether
        anything changed."""
        plan = self.plan
        ST, GV, BL = self._ST, self._GV, self._BL
        TO, TK, TI = self._TO, self._TK, self._TI
        BLl, TKl, GVl, STl = self._BLl, self._TKl, self._GVl, self._STl
        changed = False

        for c in plan.children[s]:
            preds = plan.preds_loc[c]
            # Eq 9: GIVE_loc
            if preds:
                acc = GVl[preds[0]]
                for p in preds[1:]:
                    acc &= GVl[p]
            else:
                acc = 0
            bits = (GV[c] | TK[c] | acc) & ~ST[c]
            if GVl[c] != bits:
                GVl[c] = bits
                changed = True
            # Eq 10: STEAL_loc
            bits = ST[c]
            for p in preds:
                bits |= STl[p] & ~GVl[p]
            for p in plan.preds_syn[c]:
                bits |= STl[p]
            if STl[c] != bits:
                STl[c] = bits
                changed = True

        # Eq 1: STEAL
        lc = plan.lastchild[s]
        bits = self._steal0[s]
        if lc >= 0:
            bits |= STl[lc]
        if ST[s] != bits:
            ST[s] = bits
            changed = True
        # Eq 2: GIVE
        bits = self._give0[s]
        if self._trust and lc >= 0:
            bits |= GVl[lc]
        if GV[s] != bits:
            GV[s] = bits
            changed = True
        # Eq 3: BLOCK
        entry = plan.succs_e[s]
        bits = ST[s] | GV[s]
        for e in entry:
            bits |= BLl[e]
        if BL[s] != bits:
            BL[s] = bits
            changed = True
        # Eq 4: TAKEN_out (meet over FJS successors; empty meet = ⊥)
        fjs = plan.succs_fjs[s]
        if fjs:
            acc = TI[fjs[0]]
            for t in fjs[1:]:
                acc &= TI[t]
        else:
            acc = 0
        if TO[s] != acc:
            TO[s] = acc
            changed = True
        # Eq 5: TAKE
        bits = self._take0[s]
        guaranteed = 0
        possible = 0
        for e in entry:
            guaranteed |= TI[e]
            possible |= TKl[e]
        bits |= guaranteed & ~ST[s]
        bits |= (TO[s] & possible) & ~BL[s]
        if TK[s] != bits:
            TK[s] = bits
            changed = True
        # Eq 6: TAKEN_in
        bits = TK[s] | (TO[s] & ~BL[s])
        if TI[s] != bits:
            TI[s] = bits
            changed = True
        # Eq 7: BLOCK_loc
        bits = BL[s]
        for t in plan.succs_f[s]:
            bits |= BLl[t]
        bits &= ~TK[s]
        if BLl[s] != bits:
            BLl[s] = bits
            changed = True
        # Eq 8: TAKE_loc
        acc = 0
        for t in plan.succs_ef[s]:
            acc |= TKl[t]
        bits = TK[s] | (acc & ~BL[s])
        if TKl[s] != bits:
            TKl[s] = bits
            changed = True
        return changed

    def _bundle_stale(self, s):
        """Whether re-evaluating bundle ``s`` would change anything —
        computed without writing (the reference convergence probe's
        semantics: every equation checked against the stored state,
        first mismatch wins)."""
        plan = self.plan
        cols = (self._ST, self._GV, self._BL, self._TO, self._TK,
                self._TI, self._BLl, self._TKl, self._GVl, self._STl)
        for c in plan.children[s]:
            if loc_stale(plan, cols, c):
                return True
        operands = (self._take0, self._give0, self._steal0)
        return core_stale(plan, operands, self._trust, cols, s)

    def _full_sweep(self):
        """One whole-graph S1/S2 sweep in descending slot order."""
        obs = self._obs
        sweep_start = obs.clock() if obs.enabled else 0.0
        changed = False
        eval_bundle = self._eval_bundle
        for s in range(self.plan.n - 1, -1, -1):
            if eval_bundle(s):
                changed = True
        self._full_sweeps += 1
        if obs.enabled:
            obs.event("solver", "sweep", kind="consumption",
                      index=self._full_sweeps, changed=changed,
                      duration_s=obs.clock() - sweep_start)
            obs.count("sweeps", "consumption")
        return changed

    def _sparse_fixpoint(self, budget):
        """Drive the backward consumption iteration to the fixpoint with
        a sparse worklist; returns ``(converged, checked)``.

        Each round pops dirty bundles from a max-heap (descending slot,
        the dense sweep's order).  When a bundle changes, dependents at
        lower slots are evaluated later *this* round — exactly when the
        dense sweep would reach them — and dependents at higher slots
        (already passed) carry to the next round.  Each bundle is
        evaluated at most once per round, so round ``k`` is
        state-equivalent to dense sweep ``k+1`` and the budget, the
        round count and the final probe all behave identically to the
        reference solver.
        """
        obs = self._obs
        plan = self.plan
        dependents = plan.dependents
        eval_bundle = self._eval_bundle
        dirty = set(plan.seeds)
        converged = False
        for _ in range(budget):
            round_start = obs.clock() if obs.enabled else 0.0
            self._sparse_rounds += 1
            heap = [-s for s in dirty]
            heapq.heapify(heap)
            queued = set(dirty)
            next_dirty = set()
            evaluated = 0
            changed = False
            while heap:
                s = -heapq.heappop(heap)
                evaluated += 1
                self._sparse_bundles += 1
                self._sparse_children += len(plan.children[s])
                if eval_bundle(s):
                    changed = True
                    for t in dependents[s]:
                        if t < s:
                            if t not in queued:
                                queued.add(t)
                                heapq.heappush(heap, -t)
                        else:
                            next_dirty.add(t)
            if obs.enabled:
                obs.event("solver", "sweep", kind="consumption_sparse",
                          index=self._sparse_rounds, changed=changed,
                          evaluated=evaluated,
                          duration_s=obs.clock() - round_start)
                obs.count("sweeps", "consumption_sparse")
            if not changed:
                converged = True
                break
            dirty = next_dirty
        checked = False
        if not converged:
            # Budget exhausted with every round still changing: decide
            # with the side-effect-free probe.  Bundles outside the
            # pending dirty set were evaluated against their current
            # inputs and are stable by construction, so probing the
            # dirty ones decides the whole graph.
            checked = True
            converged = not any(self._bundle_stale(s)
                                for s in sorted(dirty, reverse=True))
            if obs.enabled:
                obs.event("solver", "convergence_check", converged=converged)
        return converged, checked

    # -- S3/S4: production and results ---------------------------------------

    def _sweep_production(self, timing):
        obs = self._obs
        sweep_start = obs.clock() if obs.enabled else 0.0
        plan = self.plan
        sol = self.solution
        ST, GV, TK, TI = self._ST, self._GV, self._TK, self._TI
        given_in = sol.column("GIVEN_in", timing)
        given = sol.column("GIVEN", timing)
        given_out = sol.column("GIVEN_out", timing)
        eager = timing is Timing.EAGER
        root_slot = plan.root_slot
        headers = plan.header
        preds_fj = plan.preds_fj
        for s in range(plan.n):
            # Eq 11: GIVEN_in
            h = headers[s]
            bits = given[h] & ~ST[h] if h >= 0 else 0
            preds = preds_fj[s]
            if preds:
                meet = some = given_out[preds[0]]
                for p in preds[1:]:
                    value = given_out[p]
                    meet &= value
                    some |= value
            else:
                meet = some = 0
            bits |= meet
            bits |= TI[s] & some
            given_in[s] = bits
            # Eq 12: GIVEN
            if s == root_slot:
                produced = bits
            elif eager:
                produced = bits | TI[s]
            else:
                produced = bits | TK[s]
            given[s] = produced
            # Eq 13: GIVEN_out
            given_out[s] = (GV[s] | produced) & ~ST[s]
        if obs.enabled:
            obs.event("solver", "sweep", kind="production",
                      timing=timing.value,
                      duration_s=obs.clock() - sweep_start)
            obs.count("sweeps", "production")

    def _sweep_results(self, timing):
        obs = self._obs
        sweep_start = obs.clock() if obs.enabled else 0.0
        plan = self.plan
        sol = self.solution
        given_in = sol.column("GIVEN_in", timing)
        given = sol.column("GIVEN", timing)
        given_out = sol.column("GIVEN_out", timing)
        res_in = sol.column("RES_in", timing)
        res_out = sol.column("RES_out", timing)
        succs_fj = plan.succs_fj
        for s in range(plan.n):
            # Eq 14: RES_in
            res_in[s] = given[s] & ~given_in[s]
            # Eq 15: RES_out
            acc = 0
            for t in succs_fj[s]:
                acc |= given_in[t]
            res_out[s] = acc & ~given_out[s]
        if obs.enabled:
            obs.event("solver", "sweep", kind="results",
                      timing=timing.value,
                      duration_s=obs.clock() - sweep_start)
            obs.count("sweeps", "results")
