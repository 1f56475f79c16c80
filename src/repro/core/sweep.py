"""Algorithm *GiveNTake* (paper Figure 15): the one driver both kernels run.

The equations partition into four sets evaluated in three sweeps::

    forall n ∈ N, in REVERSEPREORDER:
        forall c ∈ CHILDREN(n), in FORWARD order:
            compute Equations 9, 10          (S2 — blocking consumption)
        compute Equations 1..8               (S1 — propagating consumption)
    forall n ∈ N, in PREORDER:
        compute Equations 11..13             (S3 — placing production)
    forall n ∈ N:
        compute Equations 14, 15             (S4 — result variables)

Every equation is evaluated exactly once per node, which gives the O(E)
complexity of §5.2.  S1/S2 are timing-independent; S3/S4 run once for
EAGER and once for LAZY.  A backward view with jumps
(``view.requires_consumption_iteration``, §5.3) repeats the S1/S2 sweep
until one changes nothing, at most ``view.natural_bound`` more times
unless the caller sets another budget.

:class:`GiveNTake` owns that order and all its bookkeeping: the sweep
sequence, the budget, the convergence probe's verdict, the errors, and
every ``solver/sweep``, ``solver/convergence_check`` and ``solver/run``
event.  A kernel subclass supplies only the sweeps themselves:

* ``_consume()`` — one S1/S2 sweep; returns whether anything changed;
* ``_consumption_converged()`` — whether another S1/S2 sweep would
  change nothing, leaving the store as it found it;
* ``_produce(timing)`` and ``_results(timing)`` — the S3 and S4 sweeps;
* ``_equation_counts()`` — per-equation evaluation totals, read only
  when tracing.

With the default :class:`~repro.obs.collector.NullCollector` nothing is
recorded and the driver pays one ``enabled`` test per sweep.
"""

from repro.core.problem import Timing
from repro.core.solution import Solution
from repro.obs.collector import current_collector
from repro.util.errors import SolverBudgetError, SolverError


class GiveNTake:
    """The Figure 15 driver over one view and problem.

    ``max_rounds`` is an optional iteration guard on the backward
    consumption fixpoint: when set, a solve that would need more
    consumption sweeps raises :class:`SolverBudgetError` instead of
    running unbounded (the hardened pipeline catches it and degrades).
    Without it the natural bound applies, and a sweep count that
    exhausts even that without reaching the fixpoint raises
    :class:`SolverError` — the solver never silently returns an
    unconverged solution.
    """

    #: The kernel's name in the ``solver/run`` event.
    backend = None

    def __init__(self, view, problem, max_rounds=None):
        self.view = view
        self.problem = problem
        self.max_rounds = max_rounds
        problem.validate_against(view)
        self.solution = Solution(problem, view)
        self._obs = current_collector()
        self._consumption_sweeps = 0

    def run(self):
        obs = self._obs
        start = obs.clock() if obs.enabled else 0.0
        view = self.view
        natural = budget = None
        checked = False
        self._sweep_consumption()
        converged = True
        if view.requires_consumption_iteration:
            natural = view.natural_bound
            budget = natural if self.max_rounds is None else self.max_rounds
            converged = False
            for _ in range(budget):
                if not self._sweep_consumption():
                    converged = True
                    break
            if not converged:
                # Every budgeted sweep changed something.  Decide with
                # the probe, which leaves the store as it found it: a
                # raising run keeps exactly what the budgeted sweeps
                # computed, and a passing run gets no free extra sweep.
                checked = True
                converged = self._consumption_converged()
                if obs.enabled:
                    obs.event("solver", "convergence_check",
                              converged=converged)
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
            self._sweep("production", self._produce, timing)
            self._sweep("results", self._results, timing)
        if obs.enabled:
            sweeps = self._consumption_sweeps
            counts = self._equation_counts()
            obs.event(
                "solver", "run",
                direction=view.direction,
                backend=self.backend,
                nodes=len(view.nodes_preorder()),
                consumption_sweeps=sweeps,
                rounds=sweeps - 1,
                natural_bound=natural,
                budget=budget,
                converged=converged,
                convergence_checked=checked,
                equation_evaluations={
                    str(number): count
                    for number, count in sorted(counts.items())
                },
                duration_s=obs.clock() - start,
            )
            for number, count in counts.items():
                obs.count("equation_evaluations", number, n=count)
        return self.solution

    def _sweep_consumption(self):
        """One counted S1/S2 sweep; returns whether anything changed."""
        obs = self._obs
        start = obs.clock() if obs.enabled else 0.0
        changed = self._consume()
        self._consumption_sweeps += 1
        if obs.enabled:
            obs.event("solver", "sweep", kind="consumption",
                      index=self._consumption_sweeps, changed=changed,
                      duration_s=obs.clock() - start)
            obs.count("sweeps", "consumption")
        return changed

    def _sweep(self, kind, sweep, timing):
        """One S3 (``"production"``) or S4 (``"results"``) sweep."""
        obs = self._obs
        start = obs.clock() if obs.enabled else 0.0
        sweep(timing)
        if obs.enabled:
            obs.event("solver", "sweep", kind=kind, timing=timing.value,
                      duration_s=obs.clock() - start)
            obs.count("sweeps", kind)
