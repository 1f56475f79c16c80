"""Regression tests for the backward consumption fixpoint paths.

Two bugs are pinned down here:

* the ``max_rounds=None`` path used to *silently* return when the
  natural-bound loop exhausted without converging — now it verifies
  convergence and raises :class:`SolverError`;
* the budget-exceeded probe used to call ``_sweep_consumption()`` —
  mutating the solution (and granting a free extra sweep) *before*
  deciding whether to raise.  The check is now side-effect-free, and
  the tracer lets us assert the exact mutating-sweep count.

Both kernels run the one driver (:class:`~repro.core.sweep.GiveNTake`),
so every test runs each in turn: the reference :class:`GiveNTakeSolver`
checks without writing, the :class:`PlannedSolver` sweeps and restores
its columns.
"""

import pytest

from repro import Direction, Problem, analyze_source, tracing
from repro.core.kernel.planned import PlannedSolver
from repro.core.solution import SHARED_VARIABLES
from repro.core.solver import GiveNTakeSolver
from repro.graph.views import BackwardView
from repro.testing.programs import FIG11_SOURCE
from repro.util.errors import SolverBudgetError, SolverError

KERNELS = (GiveNTakeSolver, PlannedSolver)


def after_instance():
    """A backward instance that requires the consumption iteration
    (FIG11 has a jump out of the ``i`` loop)."""
    analyzed = analyze_source(FIG11_SOURCE)
    problem = Problem(direction=Direction.AFTER)
    problem.add_take(analyzed.node_named("y(a(i))"), "y(a(1:n))")
    view = BackwardView(analyzed.ifg)
    assert view.requires_consumption_iteration
    return view, problem


def snapshot(solution):
    """All shared dataflow variables, for exact state comparison."""
    nodes = solution.view.nodes_preorder()
    return {name: [solution.bits(name, node) for node in nodes]
            for name in SHARED_VARIABLES}


def stuck(kernel):
    """``kernel`` with S1/S2 sweeps (``_consume``) that claim change
    forever but never write anything — so the stored state genuinely is
    not a fixpoint (TAKE is stored as 0 where the problem has take_init
    bits).  The driver still times and counts each sweep."""

    def claim_change(self):
        return True

    return type(f"Stuck{kernel.__name__}", (kernel,), {"_consume": claim_change})


def test_exhausted_natural_bound_raises_instead_of_silent_return():
    # Pre-fix, the max_rounds=None path fell out of the loop and
    # returned the unconverged solution without a word.
    for kernel in KERNELS:
        view, problem = after_instance()
        with pytest.raises(SolverError) as excinfo:
            stuck(kernel)(view, problem).run()
        assert not isinstance(excinfo.value, SolverBudgetError), kernel
        assert "natural bound" in str(excinfo.value), kernel


def test_exhausted_explicit_budget_raises_budget_error():
    for kernel in KERNELS:
        view, problem = after_instance()
        with pytest.raises(SolverBudgetError) as excinfo:
            stuck(kernel)(view, problem, max_rounds=2).run()
        assert "2 rounds" in str(excinfo.value), kernel


def test_budget_probe_is_side_effect_free():
    """``max_rounds=0``: the initial sweep already converges on this
    instance, and the decision must come from the non-mutating check —
    exactly one mutating consumption sweep, not a probe sweep."""
    for kernel in KERNELS:
        view, problem = after_instance()
        with tracing() as collector:
            kernel(view, problem, max_rounds=0).run()
        assert collector.counters()["sweeps"]["consumption"] == 1, kernel
        checks = collector.events("solver", "convergence_check")
        assert len(checks) == 1 and checks[0]["converged"], kernel
        run = collector.events("solver", "run")[-1]
        assert run["consumption_sweeps"] == 1, kernel
        assert run["converged"] and run["convergence_checked"], kernel


def test_budget_probe_does_not_inflate_equation_counts():
    """The convergence check's evaluations are a check, not part of the
    elimination order: per-equation counts stay at one sweep's worth."""
    for kernel in KERNELS:
        view, problem = after_instance()
        with tracing() as collector:
            kernel(view, problem, max_rounds=0).run()
        nodes = len(view.nodes_preorder())  # ROOT included
        counts = collector.counters()["equation_evaluations"]
        for number in range(1, 9):
            assert counts[number] == nodes, (kernel, number)
        for number in (9, 10):
            assert counts[number] == nodes - 1, (kernel, number)


def test_convergence_check_does_not_mutate_the_solution():
    """The probe leaves the store as it found it, fixpoint or not: on
    the unswept store the planned kernel's probe sweep changes values
    and must restore them."""
    for kernel in KERNELS:
        view, problem = after_instance()
        solver = kernel(view, problem)
        verdicts = []
        for _ in range(2):  # unswept, then after one sweep
            before = snapshot(solver.solution)
            verdicts.append(solver._consumption_converged())
            assert snapshot(solver.solution) == before, kernel
            solver._consume()
        assert verdicts == [False, True], kernel


def test_raising_run_leaves_budgeted_state_intact():
    """When the budget is exhausted, the solution must hold exactly what
    the budgeted sweeps computed — the probe must not have kept a
    sweep."""
    for kernel in KERNELS:
        view, problem = after_instance()
        solver = stuck(kernel)(view, problem, max_rounds=1)
        with pytest.raises(SolverBudgetError):
            solver.run()
        # The stuck sweeps never write, so any nonzero bits would have
        # to come from a probe sweep that was kept.
        assert all(not any(bits)
                   for bits in snapshot(solver.solution).values()), kernel


def test_default_run_still_converges_with_iteration():
    for kernel in KERNELS:
        view, problem = after_instance()
        with tracing() as collector:
            kernel(view, problem).run()
        run = collector.events("solver", "run")[-1]
        assert run["converged"], kernel
        # initial + 1 quiescent round, and the loop converged on its own
        assert run["consumption_sweeps"] == 2, kernel
        assert not run["convergence_checked"], kernel
