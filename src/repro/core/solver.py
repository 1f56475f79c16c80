"""Algorithm *GiveNTake* (paper Figure 15).

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
EAGER and once for LAZY.

The solver is direction-agnostic: pass a
:class:`~repro.graph.views.ForwardView` for BEFORE problems or a
:class:`~repro.graph.views.BackwardView` for AFTER problems.

When a tracing collector is active (``repro.obs``), the solver records
per-sweep timings, per-equation evaluation counts keyed by the paper's
equation numbers, and the backward fixpoint's round/convergence data —
one ``solver/run`` event per solve.  With the default
:class:`~repro.obs.collector.NullCollector` nothing is recorded and the
hot path only pays an ``is None`` test per equation.
"""

from repro.core import equations as eq
from repro.core.kernel.planned import PlannedSolver
from repro.core.problem import Direction, Timing
from repro.core.solution import Solution
from repro.graph.views import cached_view
from repro.obs.collector import current_collector
from repro.util.errors import SolverBudgetError, SolverError

#: Backend :func:`solve` uses when none is requested.  ``"planned"``
#: runs the compiled-schedule kernel (``repro.core.kernel``);
#: ``"reference"`` runs :class:`GiveNTakeSolver`, the differential
#: oracle.  Both are bit-identical for all fifteen variables.
DEFAULT_BACKEND = "planned"

BACKENDS = ("planned", "reference")


def check_backend(backend):
    """Raise :class:`ValueError` unless ``backend`` is ``None`` (the
    default) or one of :data:`BACKENDS` — for entry points that take a
    backend name from outside (service options, the hardened ladder)."""
    if backend is not None and backend not in BACKENDS:
        raise ValueError(f"unknown solver backend {backend!r} "
                         f"(expected one of {', '.join(BACKENDS)})")


class GiveNTakeSolver:
    """Stateful solver; :func:`solve` is the usual entry point.

    ``max_rounds`` is an optional iteration guard on the backward
    consumption fixpoint: when set, a solve that would need more
    consumption sweeps raises :class:`SolverBudgetError` instead of
    running unbounded (the hardened pipeline catches it and degrades).
    Without it the natural bound applies, and a sweep count that
    exhausts even that without reaching the fixpoint raises
    :class:`SolverError` — the solver never silently returns an
    unconverged solution.
    """

    def __init__(self, view, problem, max_rounds=None):
        self.view = view
        self.problem = problem
        self.max_rounds = max_rounds
        problem.validate_against(view)
        self.solution = Solution(problem, view)
        self._obs = current_collector()
        self._eq_counts = {} if self._obs.enabled else None
        self._consumption_sweeps = 0

    def run(self):
        obs = self._obs
        start = obs.clock() if obs.enabled else 0.0
        natural = budget = None
        checked = False
        self._sweep_consumption()
        converged = True
        if self.view.requires_consumption_iteration:
            # Backward views with jumps: repeat until the fixpoint (at
            # most one extra round per crossed nesting level, see
            # BackwardView.requires_consumption_iteration).
            natural = max(
                (self.view.ifg.level(m) for m, _ in self.view.ifg.jump_edges()),
                default=0,
            ) + 1
            budget = natural if self.max_rounds is None else self.max_rounds
            converged = False
            for _ in range(budget):
                if not self._sweep_consumption():
                    converged = True
                    break
            if not converged:
                # Every budgeted sweep changed something.  Decide with
                # the side-effect-free check: a raising run must leave
                # the solution exactly as the budgeted sweeps left it,
                # and a passing run must not get a free extra sweep.
                checked = True
                converged = self._consumption_converged()
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
            obs.event(
                "solver", "run",
                direction=self.view.direction,
                backend="reference",
                nodes=len(self.view.nodes_preorder()),
                consumption_sweeps=self._consumption_sweeps,
                rounds=self._consumption_sweeps - 1,
                natural_bound=natural,
                budget=budget,
                converged=converged,
                convergence_checked=checked,
                equation_evaluations={
                    str(number): count
                    for number, count in sorted(self._eq_counts.items())
                },
                duration_s=obs.clock() - start,
            )
            for number, count in self._eq_counts.items():
                obs.count("equation_evaluations", number, n=count)
        return self.solution

    # -- sweeps ------------------------------------------------------------

    def _sweep_consumption(self):
        """One REVERSEPREORDER S1/S2 sweep; returns whether anything
        changed (used by the backward-with-jumps iteration)."""
        obs = self._obs
        counts = self._eq_counts
        sweep_start = obs.clock() if obs.enabled else 0.0
        view, problem, sol = self.view, self.problem, self.solution
        changed = False
        numbers = eq.EQUATION_NUMBERS

        def put(name, node, bits):
            nonlocal changed
            if counts is not None:
                number = numbers[name]
                counts[number] = counts.get(number, 0) + 1
            if sol.bits(name, node) != bits:
                sol.set_bits(name, node, bits)
                changed = True

        for n in view.nodes_reverse_preorder():
            for c in view.children(n):
                put("GIVE_loc", c, eq.eq9_give_loc(problem, view, sol, c))
                put("STEAL_loc", c, eq.eq10_steal_loc(problem, view, sol, c))
            put("STEAL", n, eq.eq1_steal(problem, view, sol, n))
            put("GIVE", n, eq.eq2_give(problem, view, sol, n))
            put("BLOCK", n, eq.eq3_block(problem, view, sol, n))
            put("TAKEN_out", n, eq.eq4_taken_out(problem, view, sol, n))
            put("TAKE", n, eq.eq5_take(problem, view, sol, n))
            put("TAKEN_in", n, eq.eq6_taken_in(problem, view, sol, n))
            put("BLOCK_loc", n, eq.eq7_block_loc(problem, view, sol, n))
            put("TAKE_loc", n, eq.eq8_take_loc(problem, view, sol, n))
        self._consumption_sweeps += 1
        if obs.enabled:
            obs.event("solver", "sweep", kind="consumption",
                      index=self._consumption_sweeps, changed=changed,
                      duration_s=obs.clock() - sweep_start)
            obs.count("sweeps", "consumption")
        return changed

    def _consumption_converged(self):
        """Whether another S1/S2 sweep would change anything — computed
        *without* writing to the solution.

        The stored state is a fixpoint exactly when every equation,
        evaluated against it, reproduces its stored value; the first
        mismatch short-circuits.  Unlike :meth:`_sweep_consumption`,
        evaluations here do not count toward the per-equation totals
        (they are a check, not part of the elimination order).
        """
        view, problem, sol = self.view, self.problem, self.solution
        recompute = (
            ("STEAL", eq.eq1_steal),
            ("GIVE", eq.eq2_give),
            ("BLOCK", eq.eq3_block),
            ("TAKEN_out", eq.eq4_taken_out),
            ("TAKE", eq.eq5_take),
            ("TAKEN_in", eq.eq6_taken_in),
            ("BLOCK_loc", eq.eq7_block_loc),
            ("TAKE_loc", eq.eq8_take_loc),
        )

        def stable():
            for n in view.nodes_reverse_preorder():
                for c in view.children(n):
                    if sol.bits("GIVE_loc", c) != eq.eq9_give_loc(
                            problem, view, sol, c):
                        return False
                    if sol.bits("STEAL_loc", c) != eq.eq10_steal_loc(
                            problem, view, sol, c):
                        return False
                for name, equation in recompute:
                    if sol.bits(name, n) != equation(problem, view, sol, n):
                        return False
            return True

        converged = stable()
        if self._obs.enabled:
            self._obs.event("solver", "convergence_check",
                            converged=converged)
        return converged

    def _sweep_production(self, timing):
        obs = self._obs
        counts = self._eq_counts
        sweep_start = obs.clock() if obs.enabled else 0.0
        view, problem, sol = self.view, self.problem, self.solution
        root = view.root
        nodes = view.nodes_preorder()
        if counts is not None:
            # S3 evaluates each equation exactly once per node, so the
            # per-equation totals are uniform: add them per sweep, not
            # per node (identical reported counts, no dict get per node).
            for number in (11, 12, 13):
                counts[number] = counts.get(number, 0) + len(nodes)
        for n in nodes:
            sol.set_bits(
                "GIVEN_in", n, eq.eq11_given_in(problem, view, sol, n, timing), timing
            )
            sol.set_bits(
                "GIVEN", n, eq.eq12_given(problem, view, sol, n, timing, root), timing
            )
            sol.set_bits(
                "GIVEN_out", n, eq.eq13_given_out(problem, view, sol, n, timing), timing
            )
        if obs.enabled:
            obs.event("solver", "sweep", kind="production",
                      timing=timing.value,
                      duration_s=obs.clock() - sweep_start)
            obs.count("sweeps", "production")

    def _sweep_results(self, timing):
        obs = self._obs
        counts = self._eq_counts
        sweep_start = obs.clock() if obs.enabled else 0.0
        view, problem, sol = self.view, self.problem, self.solution
        nodes = view.nodes_preorder()
        if counts is not None:
            for number in (14, 15):
                counts[number] = counts.get(number, 0) + len(nodes)
        for n in nodes:
            sol.set_bits(
                "RES_in", n, eq.eq14_res_in(problem, view, sol, n, timing), timing
            )
            sol.set_bits(
                "RES_out", n, eq.eq15_res_out(problem, view, sol, n, timing), timing
            )
        if obs.enabled:
            obs.event("solver", "sweep", kind="results",
                      timing=timing.value,
                      duration_s=obs.clock() - sweep_start)
            obs.count("sweeps", "results")


def make_view(ifg, direction):
    """The (per-graph cached) view matching a problem direction."""
    if direction is Direction.BEFORE:
        return cached_view(ifg, "before")
    if direction is Direction.AFTER:
        return cached_view(ifg, "after")
    raise SolverError(f"unknown direction {direction!r}")


def solve(ifg, problem, view=None, max_rounds=None, backend=None):
    """Solve ``problem`` on interval flow graph ``ifg``.

    Returns the solution store holding all dataflow variables, including
    the EAGER and LAZY result variables: a
    :class:`~repro.core.kernel.slots.SlotSolution` from the (default)
    ``"planned"`` backend, a :class:`~repro.core.solution.Solution` from
    the ``"reference"`` backend — same ``bits``/``elements``/
    ``nodes_with`` API, bit-identical values (``docs/scaling.md``).
    ``max_rounds`` caps the backward consumption iteration (see
    :class:`GiveNTakeSolver`); the default is the natural bound.
    """
    if view is None:
        view = make_view(ifg, problem.direction)
    if backend is None:
        backend = DEFAULT_BACKEND
    if backend == "planned":
        return PlannedSolver(view, problem, max_rounds=max_rounds).run()
    if backend == "reference":
        return GiveNTakeSolver(view, problem, max_rounds=max_rounds).run()
    raise SolverError(f"unknown solver backend {backend!r}")
