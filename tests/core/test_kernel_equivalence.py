"""Planned backend ≡ reference backend, bit for bit.

The planned kernel re-derives the whole solve — schedules, operand
bitsets, the backward consumption iteration — so its contract is
blunt: for every program, problem, direction and timing it must
produce *exactly* the reference solver's solution, which in turn
equals the chaotic fixpoint (``test_reference_solver.py``), and emit
the same stable ``solver`` event stream — one driver owns it.
Hypothesis drives jump-heavy and nested zero-trip shapes through both
backends; the Figure 16 after-jumps shape gets a dedicated iteration
regression and a budget-parity sweep.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernel.plan import plan_for
from repro.core.problem import Direction, Problem
from repro.core.reference import differences, solutions_equal, solve_iterative
from repro.core.solver import make_view, solve
from repro.obs.collector import tracing
from repro.obs.trace import stable_form
from repro.testing.generator import random_analyzed_program, random_problem
from repro.testing.graphs import loop_with_jump

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

program_seeds = st.integers(min_value=0, max_value=10_000)
problem_seeds = st.integers(min_value=0, max_value=10_000)


def run_event(collector):
    """The one ``solver/run`` event of a traced solve, less the fields
    that differ by design (``backend``, ``duration_s``)."""
    (run,) = collector.events("solver", "run")
    return {key: value for key, value in run.items()
            if key not in ("backend", "duration_s")}


def solver_events(collector):
    """The stable ``solver`` event stream of a traced solve, less
    ``backend``: every sweep with its kind, index, ``changed`` flag or
    timing, any convergence check, and the run event."""
    return [{key: value for key, value in event.items() if key != "backend"}
            for event in stable_form(collector.events("solver"))]


def assert_backends_agree(ifg, problem):
    view = make_view(ifg, problem.direction)
    plan_for(view)  # compiled untraced: both streams hold only the solve
    with tracing() as planned_trace:
        planned = solve(ifg, problem, view=view, backend="planned")
    with tracing() as reference_trace:
        reference = solve(ifg, problem, view=view, backend="reference")
    nodes = view.nodes_preorder()
    assert solutions_equal(planned, reference, nodes), differences(
        planned, reference, nodes)[:10]
    # Same iteration: sweeps, budget, verdicts and equation counts.
    assert solver_events(planned_trace) == solver_events(reference_trace)
    # Both equal the chaotic-iteration fixpoint.
    fixpoint = solve_iterative(ifg, problem, view=view)
    assert solutions_equal(planned, fixpoint, nodes), differences(
        planned, fixpoint, nodes)[:10]


@given(seed=program_seeds, problem_seed=problem_seeds,
       direction=st.sampled_from(list(Direction)))
@settings(**SETTINGS)
def test_backends_agree_on_random_programs(seed, problem_seed, direction):
    analyzed = random_analyzed_program(seed, size=14)
    problem = random_problem(analyzed, seed=problem_seed,
                             direction=direction)
    assert_backends_agree(analyzed.ifg, problem)


@given(seed=program_seeds, problem_seed=problem_seeds,
       direction=st.sampled_from(list(Direction)))
@settings(**SETTINGS)
def test_backends_agree_on_jump_heavy_programs(seed, problem_seed, direction):
    """Jumps out of loops exercise the backward consumption iteration."""
    analyzed = random_analyzed_program(seed, size=16, goto_probability=0.6)
    problem = random_problem(analyzed, seed=problem_seed,
                             direction=direction, take_probability=0.5)
    assert_backends_agree(analyzed.ifg, problem)


@given(seed=program_seeds, problem_seed=problem_seeds,
       hoist=st.booleans())
@settings(**SETTINGS)
def test_backends_agree_on_nested_zero_trip_loops(seed, problem_seed, hoist):
    """Deep nesting with hoisting on/off flips the steal0 header term."""
    analyzed = random_analyzed_program(seed, size=16, max_depth=4,
                                       goto_probability=0.0)
    problem = random_problem(analyzed, seed=problem_seed,
                             direction=Direction.BEFORE)
    problem.hoist_zero_trip = hoist
    assert_backends_agree(analyzed.ifg, problem)


def figure16_instance():
    """The §5.3 jump-into-the-landing-pad shape (Figures 11/16): an
    AFTER problem on a loop a jump leaves, forcing the consumption
    iteration."""
    sketch = loop_with_jump()
    problem = Problem(direction=Direction.AFTER)
    problem.add_take(sketch["work"], "a")
    problem.add_take(sketch["target"], "a", "b")
    problem.add_give(sketch["landing"], "b")
    view = make_view(sketch.ifg, Direction.AFTER)
    assert view.requires_consumption_iteration
    return sketch, problem, view


def test_figure16_sparse_fixpoint_converges_and_matches_reference():
    """The iterating Figure 16 solve: both kernels converge to the same
    solution along the same trajectory, so their run events agree field
    for field (``backend`` and ``duration_s`` aside)."""
    sketch, problem, view = figure16_instance()
    with tracing() as planned_trace:
        planned = solve(sketch.ifg, problem, view=view, backend="planned")
    with tracing() as reference_trace:
        reference = solve(sketch.ifg, problem, view=view,
                          backend="reference")
    nodes = view.nodes_preorder()
    assert solutions_equal(planned, reference, nodes), differences(
        planned, reference, nodes)[:10]
    (planned_run,) = planned_trace.events("solver", "run")
    assert planned_run["backend"] == "planned"
    assert planned_run["converged"]
    assert planned_run["consumption_sweeps"] >= 2  # it did iterate
    assert run_event(planned_trace) == run_event(reference_trace)


@pytest.mark.parametrize("backend", ["planned"])
@pytest.mark.parametrize("max_rounds", [0, 1, 2])
def test_figure16_budget_outcomes_match_reference(backend, max_rounds):
    """Whatever a round budget does to the reference solver — succeed,
    or raise with a message — the planned backend does identically."""
    from repro.util.errors import SolverBudgetError

    sketch, problem, view = figure16_instance()

    def outcome(backend):
        try:
            solve(sketch.ifg, problem, view=view, max_rounds=max_rounds,
                  backend=backend)
            return "converged"
        except SolverBudgetError as error:
            return str(error)

    assert outcome(backend) == outcome("reference")
