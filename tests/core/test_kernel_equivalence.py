"""Planned backend ≡ reference backend, bit for bit.

The planned kernel re-derives the whole solve — schedules, operand
bitsets, the sparse backward fixpoint — so its contract is blunt: for
every program, problem, direction and timing it must produce *exactly*
the reference solver's solution, which in turn equals the chaotic
fixpoint (``test_reference_solver.py``).  Hypothesis drives jump-heavy
and nested zero-trip shapes through both backends; the Figure 16
after-jumps shape gets a dedicated sparse-fixpoint regression and a
budget-parity sweep.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.problem import Direction, Problem, Timing
from repro.core.reference import differences, solutions_equal, solve_iterative
from repro.core.solution import SHARED_VARIABLES, TIMED_VARIABLES
from repro.core.solver import make_view, solve
from repro.obs.collector import tracing
from repro.testing.generator import random_analyzed_program, random_problem
from repro.testing.graphs import loop_with_jump

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

program_seeds = st.integers(min_value=0, max_value=10_000)
problem_seeds = st.integers(min_value=0, max_value=10_000)


def assert_backends_agree(ifg, problem):
    view = make_view(ifg, problem.direction)
    planned = solve(ifg, problem, view=view, backend="planned")
    reference = solve(ifg, problem, view=view, backend="reference")
    nodes = view.nodes_preorder()
    assert solutions_equal(planned, reference, nodes), differences(
        planned, reference, nodes)[:10]
    # Both equal the chaotic-iteration fixpoint.
    fixpoint = solve_iterative(ifg, problem, view=view)
    assert solutions_equal(planned, fixpoint, nodes), differences(
        planned, fixpoint, nodes)[:10]
    return planned, reference


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
    """Jumps out of loops exercise the sparse backward fixpoint."""
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


@pytest.mark.parametrize("direction", list(Direction))
def test_slot_solution_duck_types_the_reference_solution(direction):
    analyzed = random_analyzed_program(2, size=14, goto_probability=0.4)
    problem = random_problem(analyzed, seed=9, direction=direction)
    planned, reference = assert_backends_agree(analyzed.ifg, problem)
    node = analyzed.ifg.real_nodes()[0]
    element = next(iter(problem.universe))
    for name in SHARED_VARIABLES:
        assert planned.bits(name, node) == reference.bits(name, node)
        assert planned.elements(name, node) == reference.elements(name, node)
        assert (set(planned.nodes_with(name, element))
                == set(reference.nodes_with(name, element)))
    for name in TIMED_VARIABLES:
        for timing in Timing:
            assert (planned.bits(name, node, timing)
                    == reference.bits(name, node, timing))
    assert planned.format_node(node) == reference.format_node(node)


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
    sketch, problem, view = figure16_instance()
    with tracing() as collector:
        planned = solve(sketch.ifg, problem, view=view, backend="planned")
        reference = solve(sketch.ifg, problem, view=view,
                          backend="reference")
    nodes = view.nodes_preorder()
    assert solutions_equal(planned, reference, nodes), differences(
        planned, reference, nodes)[:10]

    planned_run, reference_run = collector.events("solver", "run")
    assert planned_run["backend"] == "planned"
    # Converged constructively (drained worklist), no budget probe.
    assert planned_run["converged"]
    # The sparse fixpoint did run — and did strictly less work than the
    # dense re-sweeps it replaces.
    assert planned_run["full_sweeps"] == 1
    assert planned_run["sparse_rounds"] >= 1
    bundles = planned_run["sparse_evaluations"]["bundles"]
    assert bundles <= planned_run["nodes"] * planned_run["sparse_rounds"]
    # Identical convergence trajectory: same sweep/round totals as the
    # reference solver's dense iteration.
    assert (planned_run["consumption_sweeps"]
            == reference_run["consumption_sweeps"])
    assert planned_run["rounds"] == reference_run["rounds"]


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
