"""Interval-scoped solve memoization (``repro.core.kernel.incremental``).

The driver-level behavior (delta compiles byte-identical to cold ones)
lives in ``tests/batch/test_compile_delta.py``; these tests pin the
memo's own contracts: whole-solve replay is bit-identical, preset
(splice) solves equal plain solves, fragments are refused wherever the
fixpoint makes them unsound, and write verdicts round-trip.
"""

import pytest

from repro.batch.cache import PipelineCache
from repro.core.kernel.incremental import (
    IncrementalSolveMemo,
    fragment_regions,
    graph_signature,
)
from repro.core.kernel.plan import plan_for
from repro.core.kernel.planned import PlannedSolver, build_operand_columns
from repro.core.problem import Direction
from repro.core.reference import solutions_equal
from repro.core.solver import make_view, solve
from repro.testing.generator import random_analyzed_program, random_problem
from repro.util.errors import SolverError


def instance(seed=3, size=24, **problem_kwargs):
    analyzed = random_analyzed_program(seed, size=size)
    problem = random_problem(analyzed, seed=seed, n_elements=4,
                             **problem_kwargs)
    return analyzed, problem


# -- whole-solve memoization --------------------------------------------------

def test_whole_solve_replay_is_bit_identical():
    analyzed, problem = instance()
    direct = solve(analyzed.ifg, problem, backend="planned")
    memo = IncrementalSolveMemo(PipelineCache())
    first = memo.solve(analyzed.ifg, problem)
    again = memo.solve(analyzed.ifg, problem)
    assert memo.stats["whole_misses"] == 1
    assert memo.stats["whole_hits"] == 1
    nodes = analyzed.ifg.nodes()
    assert solutions_equal(direct, first, nodes)
    assert solutions_equal(direct, again, nodes)


def test_whole_key_separates_problems_and_rounds():
    analyzed, problem = instance()
    other = random_problem(analyzed, seed=99, n_elements=4)
    memo = IncrementalSolveMemo(PipelineCache())
    memo.solve(analyzed.ifg, problem)
    memo.solve(analyzed.ifg, other)
    assert memo.stats["whole_hits"] == 0  # different problem, no alias
    assert memo.stats["whole_misses"] == 2


def test_memo_shares_entries_through_the_cache():
    analyzed, problem = instance()
    cache = PipelineCache()
    IncrementalSolveMemo(cache).solve(analyzed.ifg, problem)
    second = IncrementalSolveMemo(cache)  # fresh memo, same cache
    replay = second.solve(analyzed.ifg, problem)
    assert second.stats["whole_hits"] == 1
    direct = solve(analyzed.ifg, problem, backend="planned")
    assert solutions_equal(direct, replay, analyzed.ifg.nodes())


def test_applies_only_to_the_planned_backend():
    memo = IncrementalSolveMemo(PipelineCache())
    assert memo.applies("planned")
    assert memo.applies(None)  # the default backend is planned
    assert not memo.applies("reference")


def test_graph_signature_is_stable_and_structural():
    analyzed, _ = instance()
    again = random_analyzed_program(3, size=24)
    other = random_analyzed_program(4, size=24)
    assert graph_signature(analyzed.ifg) == graph_signature(again.ifg)
    assert graph_signature(analyzed.ifg) != graph_signature(other.ifg)


# -- preset (fragment splice) solves ------------------------------------------

def test_preset_solve_equals_plain_solve():
    analyzed, problem = instance(seed=5, size=30)
    view = make_view(analyzed.ifg, problem.direction)
    plan = plan_for(view)
    if plan.requires_iteration:
        pytest.skip("instance needs a non-iterating plan")
    plain = PlannedSolver(view, problem, plan=plan).run()
    regions = fragment_regions(plan)
    assert regions, "instance needs at least one loop"
    header, strict = regions[0]
    from repro.core.solution import SHARED_VARIABLES as names
    preset = {
        slot: tuple(plain.column(name)[slot] for name in names)
        for slot in strict
    }
    spliced = PlannedSolver(view, problem, plan=plan, preset=preset).run()
    for name in names:
        assert spliced.column(name) == plain.column(name), name


def test_preset_is_rejected_for_iterating_plans():
    # backward problems over graphs with jumps need the sparse fixpoint;
    # presetting bundles there would freeze a non-final state
    for seed in range(20):
        analyzed, problem = instance(seed=seed, direction=Direction.AFTER)
        view = make_view(analyzed.ifg, problem.direction)
        plan = plan_for(view)
        if not plan.requires_iteration:
            continue
        with pytest.raises(SolverError):
            PlannedSolver(view, problem, plan=plan, preset={1: (0,) * 10})
        return
    pytest.skip("no iterating instance found in the seed range")


def test_no_fragments_stored_for_iterating_plans():
    for seed in range(20):
        analyzed, problem = instance(seed=seed, direction=Direction.AFTER)
        view = make_view(analyzed.ifg, problem.direction)
        if not plan_for(view).requires_iteration:
            continue
        memo = IncrementalSolveMemo(PipelineCache())
        memo.solve(analyzed.ifg, problem)
        assert memo.stats["fragments_stored"] == 0
        assert memo.stats["interval_misses"] == 0  # never even probed
        return
    pytest.skip("no iterating instance found in the seed range")


def test_fragment_regions_are_closed_and_disjoint():
    analyzed, problem = instance(seed=5, size=30)
    view = make_view(analyzed.ifg, problem.direction)
    plan = plan_for(view)
    if plan.requires_iteration:
        pytest.skip("instance needs a non-iterating plan")
    regions = fragment_regions(plan)
    assert regions
    for index, (header, strict) in enumerate(regions):
        members = set(strict)
        assert header not in members  # strict subtree: header excluded
        # the eligibility invariant: nothing outside the region feeds it
        for slot in strict:
            for succ in list(plan.succs_e[slot]) + list(plan.succs_fjs[slot]):
                assert succ in members
        # regions are properly nested or disjoint, like the intervals
        for _, other in regions[index + 1:]:
            others = set(other)
            overlap = members & others
            assert (not overlap or members <= others
                    or others <= members)


# -- write-verdict memoization ------------------------------------------------

def test_write_verdict_round_trips_through_the_cache():
    analyzed, problem = instance()
    view = make_view(analyzed.ifg, problem.direction)
    memo = IncrementalSolveMemo(PipelineCache())
    assert memo.write_verdict(analyzed.ifg, problem, view, None) is None
    memo.store_write_verdict(analyzed.ifg, problem, view, None, True)
    assert memo.write_verdict(analyzed.ifg, problem, view, None) is True
    # a different solve (here: its round guard) is a different verdict
    assert memo.write_verdict(analyzed.ifg, problem, view, 8) is None


def test_verdicts_of_an_older_schema_miss_in_a_persisted_cache(
        monkeypatch, tmp_path):
    """Verdicts written under ``repro-incremental/1`` were certified on a
    bounded path sample; a cache directory holding them must not replay
    them now that verdicts are exact over all paths."""
    import repro.core.kernel.incremental as incremental

    analyzed, problem = instance()
    view = make_view(analyzed.ifg, problem.direction)
    monkeypatch.setattr(incremental, "INCR_SCHEMA", "repro-incremental/1")
    IncrementalSolveMemo(PipelineCache(str(tmp_path))).store_write_verdict(
        analyzed.ifg, problem, view, None, True)
    monkeypatch.undo()
    memo = IncrementalSolveMemo(PipelineCache(str(tmp_path)))
    assert memo.write_verdict(analyzed.ifg, problem, view, None) is None
