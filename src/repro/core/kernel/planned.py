"""The planned solver: sweeps S1–S4 as tight loops over slot columns.

Algorithm *GiveNTake* (Figure 15) unchanged — same equations, same
evaluation order, bit-identical results — but executed against a
compiled :class:`~repro.core.kernel.plan.SolverPlan`:

* S1/S2 as whole-graph *bundle* sweeps in descending slot order
  (REVERSEPREORDER), each bundle inlining Equations 9/10 for the
  node's children (FORWARD order) followed by Equations 1–8;
* S3 (Equations 11–13) and S4 (14/15) in ascending slot order, once
  per timing.

The driver is :class:`~repro.core.sweep.GiveNTake`'s, so both kernels
run the same sweep sequence, budget and convergence probe and emit the
same ``solver`` events (``backend`` and ``duration_s`` aside), and
:func:`repro.obs.profile.run_satisfies_each_equation_once` checks both
against one formula.
"""

from repro.core.kernel.plan import plan_for
from repro.core.problem import Timing
from repro.core.solution import SHARED_VARIABLES
from repro.core.sweep import GiveNTake


class PlannedSolver(GiveNTake):
    """Plan-driven kernel; :func:`repro.core.solver.solve` with
    ``backend="planned"`` (the default) is the usual entry point
    (``max_rounds`` as in :class:`~repro.core.sweep.GiveNTake`)."""

    backend = "planned"

    def __init__(self, view, problem, max_rounds=None):
        super().__init__(view, problem, max_rounds)
        self.plan = plan_for(view)
        self._build_operands()
        # The ten S1/S2 columns, in SHARED_VARIABLES order.
        self._columns = columns = tuple(
            self.solution.column(name) for name in SHARED_VARIABLES)
        (self._ST, self._GV, self._BL, self._TO, self._TK, self._TI,
         self._BLl, self._TKl, self._GVl, self._STl) = columns

    def _equation_counts(self):
        """Each sweep evaluates each equation once per node (9/10 once
        per child, and ROOT is nobody's child)."""
        n, sweeps = self.plan.n, self._consumption_sweeps
        counts = dict.fromkeys(range(1, 9), n * sweeps)
        counts[9] = counts[10] = (n - 1) * sweeps
        counts.update(dict.fromkeys(range(11, 16), n * 2))
        return counts

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

    def _consume(self):
        """Evaluate every bundle in descending slot order; returns
        whether anything changed."""
        changed = False
        eval_bundle = self._eval_bundle
        for s in range(self.plan.n - 1, -1, -1):
            if eval_bundle(s):
                changed = True
        return changed

    def _consumption_converged(self):
        """Whether another S1/S2 sweep would leave every value as it
        is; the columns end as this probe found them.

        A sweep changes nothing exactly when every equation, evaluated
        against the stored state, reproduces its stored value (up to
        the first change, the sweep reads only stored values).  So the
        probe runs one uncounted sweep and, if it changed anything,
        restores the saved columns: a raising run leaves the store as
        the budgeted sweeps left it, and a passing run gets no free
        sweep.
        """
        columns = self._columns
        saved = [column[:] for column in columns]
        converged = not self._consume()
        if not converged:
            for column, values in zip(columns, saved):
                column[:] = values
        return converged

    # -- S3/S4: production and results ---------------------------------------

    def _produce(self, timing):
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

    def _results(self, timing):
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
