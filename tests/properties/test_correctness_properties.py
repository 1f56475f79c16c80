"""Property-based verification of the paper's correctness criteria.

Hypothesis drives the random structured-program generator and random
problem annotations; the all-paths checker is the oracle.

Guarantees verified (see DESIGN.md for the zero-trip discussion):

* C1 (balance) holds on *all* paths, both directions, both modes;
* C3 (sufficiency) holds on all paths where entered loops run >= 1 trip
  in default mode, and on *all* paths in strict mode;
* C2 (safety) violations only ever occur as zero-trip overproduction in
  default mode, and never in strict mode.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import check_placement, solve
from repro.core.placement import Placement
from repro.core.problem import Direction
from repro.testing.generator import random_analyzed_program, random_problem

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

program_seeds = st.integers(min_value=0, max_value=10_000)
problem_seeds = st.integers(min_value=0, max_value=10_000)
directions = st.sampled_from(list(Direction))


def build(seed, problem_seed, direction, hoist, trust):
    analyzed = random_analyzed_program(seed, size=14)
    problem = random_problem(analyzed, seed=problem_seed, direction=direction)
    problem.hoist_zero_trip = hoist
    problem.trust_loop_side_effects = trust
    solution = solve(analyzed.ifg, problem)
    placement = Placement(analyzed.ifg, problem, solution)
    return analyzed, problem, placement


@settings(**SETTINGS)
@given(program_seeds, problem_seeds, directions)
def test_default_mode_balance_on_all_paths(seed, problem_seed, direction):
    analyzed, problem, placement = build(seed, problem_seed, direction, True, True)
    report = check_placement(analyzed.ifg, problem, placement)
    assert not report.by_kind("balance"), str(report)


@settings(**SETTINGS)
@given(program_seeds, problem_seeds, directions)
def test_default_mode_sufficiency_on_executed_loops(seed, problem_seed, direction):
    analyzed, problem, placement = build(seed, problem_seed, direction, True, True)
    report = check_placement(analyzed.ifg, problem, placement, min_trips=1)
    assert not report.by_kind("sufficiency"), str(report)
    assert not report.by_kind("safety"), str(report)


@settings(**SETTINGS)
@given(program_seeds, problem_seeds, directions)
def test_strict_mode_all_criteria_on_all_paths(seed, problem_seed, direction):
    analyzed, problem, placement = build(seed, problem_seed, direction, False, False)
    report = check_placement(analyzed.ifg, problem, placement)
    assert not report.by_kind("balance"), str(report)
    assert not report.by_kind("sufficiency"), str(report)
    assert not report.by_kind("safety"), str(report)


@settings(**SETTINGS)
@given(program_seeds, problem_seeds)
def test_postpass_preserves_all_criteria(seed, problem_seed):
    from repro.core.postpass import shift_synthetic_productions

    analyzed, problem, placement = build(seed, problem_seed, Direction.BEFORE,
                                         True, True)
    before = check_placement(analyzed.ifg, problem, placement)
    shift_synthetic_productions(placement)
    after = check_placement(analyzed.ifg, problem, placement)
    for kind in ("balance", "sufficiency"):
        assert len(after.by_kind(kind)) == len(before.by_kind(kind))


@settings(**SETTINGS)
@given(program_seeds, problem_seeds,
       st.integers(min_value=1, max_value=6))
def test_pressure_capping_preserves_correctness(seed, problem_seed, max_span):
    from repro.core.pressure import limit_production_span, measure_spans

    analyzed = random_analyzed_program(seed, size=12, goto_probability=0.0)
    problem = random_problem(analyzed, seed=problem_seed)
    if not problem.annotated_nodes():
        return
    _, placement, _ = limit_production_span(analyzed.ifg, problem, max_span)
    report = check_placement(analyzed.ifg, problem, placement, min_trips=1)
    hard = [v for v in report.violations
            if v.kind not in ("safety", "redundant")]
    assert not hard, str(report)


@settings(**SETTINGS)
@given(program_seeds)
def test_generated_graphs_satisfy_invariants(seed):
    from repro.graph.normalize import validate_normalized

    analyzed = random_analyzed_program(seed, size=16, goto_probability=0.5)
    validate_normalized(analyzed.ifg.cfg)


@settings(**SETTINGS)
@given(program_seeds)
def test_preorder_numbering_is_a_permutation(seed):
    analyzed = random_analyzed_program(seed, size=16)
    numbers = sorted(analyzed.numbering.values())
    assert numbers == list(range(1, len(analyzed.ifg.real_nodes()) + 1))
