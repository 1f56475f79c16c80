"""check_placement_dual: both min-trip verdicts, exact over all paths.

``_solve_write`` certifies optimistic WRITE placements with
``certify_placement``, one ``check_placement_dual`` call.  These tests
pin the dual reports to the two ``check_placement`` calls they stand
for, the acceptance rule to the spellings it replaced, and the verdicts
the bounded path checker this replaced got wrong.
"""

from collections import Counter
from functools import lru_cache

import pytest

from repro.commgen import generate_communication
from repro.core import Problem, check_placement, solve
from repro.core.checker import certify_placement, check_placement_dual
from repro.core.placement import Placement
from repro.graph.views import cached_view
from repro.lang.printer import format_program
from repro.testing.generator import (
    ArrayProgramGenerator,
    random_analyzed_program,
    random_problem,
)
from repro.testing.programs import FIG11_SOURCE, analyze_source
from tests.core.test_checker_oracle import assert_witness_replays


def violation_key(violation):
    return (violation.kind, violation.criterion, str(violation.node),
            str(violation.element), violation.message)


def report_key(report):
    return sorted(violation_key(v) for v in report.violations)


def solved_placement(analyzed, problem):
    solution = solve(analyzed.ifg, problem)
    return Placement(analyzed.ifg, problem, solution)


def solved_instance(source):
    analyzed = analyze_source(source)
    problem = Problem()
    problem.add_take(analyzed.node_named("u ="), "x1")
    return analyzed, problem, solved_placement(analyzed, problem)


def assert_dual_matches_single(analyzed, problem, placement):
    full, min_trip = check_placement_dual(analyzed.ifg, problem, placement)
    single_full = check_placement(analyzed.ifg, problem, placement,
                                  min_trips=0)
    assert report_key(full) == report_key(single_full)
    single_trip = check_placement(analyzed.ifg, problem, placement,
                                  min_trips=1)
    assert report_key(min_trip) == report_key(single_trip)


def optimistic_write(source):
    """``(analyzed, problem, placement)``: the unblocked WRITE placement
    ``_solve_write`` certifies before it decides whether to fall back."""
    result = generate_communication(source)
    ifg, problem = result.analyzed.ifg, result.write_problem
    view = cached_view(ifg, "after", blocked=False)
    solution = solve(ifg, problem, view=view)
    return result.analyzed, problem, Placement(ifg, problem, solution)


def hard_violations(full, min_trip):
    """What ``_solve_write`` rejects on: balance anywhere, sufficiency
    on min-trip paths."""
    return full.by_kind("balance") + min_trip.by_kind("sufficiency")


def test_dual_matches_single_on_branchy_program():
    assert_dual_matches_single(
        *solved_instance("if t then\na = 1\nelse\nb = 2\nendif\nu = x(1)"))


def test_dual_matches_single_on_loops():
    assert_dual_matches_single(*solved_instance(
        "do i = 1, n\na = x(i)\nenddo\nu = x(1)"))


def test_dual_matches_single_on_fig11():
    analyzed = analyze_source(FIG11_SOURCE)
    problem = Problem()
    problem.add_take(analyzed.node_named("... = x(k + 10)"), "x1")
    assert_dual_matches_single(analyzed, problem,
                               solved_placement(analyzed, problem))


def test_dual_matches_single_on_random_instances():
    for seed in range(6):
        analyzed = random_analyzed_program(seed, size=20, max_depth=3)
        problem = random_problem(analyzed, seed=seed, n_elements=4)
        assert_dual_matches_single(analyzed, problem,
                                   solved_placement(analyzed, problem))


def test_min_trip_report_is_a_path_subset():
    analyzed, problem, placement = solved_instance(
        "do i = 1, n\na = x(i)\nenddo\nu = x(1)")
    full, min_trip = check_placement_dual(analyzed.ifg, problem, placement)
    assert set(report_key(min_trip)) <= set(report_key(full))


def test_min_trip_verdict_covers_paths_beyond_zero_trip_prefixes():
    """Regression: generator seed 304 produces a graph whose first 150
    bounded paths are *all* zero-trip prefixes, which once left the
    min-trip verdict vacuous and certified an insufficient optimistic
    WRITE placement.  The exact min-trip report finds its C3
    violations, each on a min-trip witness path that replays."""
    source = format_program(ArrayProgramGenerator(304).program(14))
    analyzed, problem, placement = optimistic_write(source)
    full, min_trip = check_placement_dual(analyzed.ifg, problem, placement)
    assert not full.truncated and min_trip.paths_checked == 0
    c3 = min_trip.by_criterion("C3")
    assert c3
    for violation in c3:
        assert_witness_replays(analyzed.ifg, problem, placement, violation,
                               min_trips=1)


def test_seed_304_write_placement_is_sufficient_end_to_end():
    """The pipeline-level symptom of the starved verdict: 18 C3
    violations on the write problem under the default optimistic jump
    treatment.  With the dual checker fixed, certification fails and the
    solve falls back to the conservative treatment, which is clean."""
    source = format_program(ArrayProgramGenerator(304).program(14))
    result = generate_communication(source)
    for problem, placement in [
        (result.read_problem, result.read_placement),
        (result.write_problem, result.write_placement),
    ]:
        report = check_placement(result.analyzed.ifg, problem, placement,
                                 min_trips=1)
        hard = [v for v in report.violations
                if v.kind not in ("safety", "redundant")]
        assert not hard, str(report)


def test_certify_placement_is_both_former_spellings():
    """The one acceptance rule equals the optimistic WRITE solve's and
    the hardened ladder's former spellings on READ and optimistic-WRITE
    placements of jumpy generator programs, and the sample holds both
    verdicts."""
    verdicts = Counter()
    for seed in range(40):
        generator = ArrayProgramGenerator(seed=seed, max_depth=3,
                                          goto_probability=0.3)
        result = generate_communication(
            format_program(generator.program(size=30)))
        ifg, write = result.analyzed.ifg, result.write_problem
        view = cached_view(ifg, "after", blocked=False)
        optimistic = Placement(ifg, write, solve(ifg, write, view=view))
        for problem, placement in ((result.read_problem,
                                    result.read_placement),
                                   (write, optimistic)):
            full, min_trip = check_placement_dual(ifg, problem, placement)
            solve_write_rule = (not full.by_kind("balance") and min_trip.ok(
                ignore=("safety", "redundant")))
            hardened_rule = (not full.by_criterion("C1")
                             and not min_trip.by_criterion("C3"))
            accepted = certify_placement(ifg, problem, placement).ok()
            assert accepted == solve_write_rule == hardened_rule
            verdicts[accepted] += 1
    assert verdicts[True] and verdicts[False], verdicts


@lru_cache(maxsize=None)
def seed_1_corpus():
    """The first 125 programs of the benchmark's cold-jumpy generator
    at seed 1 (size 30, goto probability 0.3, depth 3)."""
    generator = ArrayProgramGenerator(seed=1, max_depth=3,
                                      goto_probability=0.3)
    return [format_program(generator.program(size=30)) for _ in range(125)]


#: Draw index -> most visits the first witness makes to one node.  The
#: bounded checker replayed at most 150 paths with at most 3 visits per
#: node and accepted all five optimistic WRITE placements.
WRONGLY_ACCEPTED = {2: 1, 14: 3, 90: 1, 101: 4, 124: 2}


@pytest.mark.parametrize("index", sorted(WRONGLY_ACCEPTED))
def test_bounded_checker_false_accepts_are_rejected(index):
    source = seed_1_corpus()[index]
    analyzed, problem, placement = optimistic_write(source)
    full, min_trip = check_placement_dual(analyzed.ifg, problem, placement)
    hard = hard_violations(full, min_trip)
    assert hard, "the exact check must reject this placement"
    first = hard[0]
    path = assert_witness_replays(analyzed.ifg, problem, placement, first,
                                  min_trips=first.kind == "sufficiency")
    assert max(Counter(path).values()) == WRONGLY_ACCEPTED[index]
    # generate_communication falls back to the conservative solve
    assert (generate_communication(source).annotated_source()
            == generate_communication(
                source, after_jumps="conservative").annotated_source())
