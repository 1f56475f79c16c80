"""Differential test of the exact checker against bounded path replay.

The exact checker decides C1/C2/C3/O1 over every path with a fixpoint
over node contexts; the reference oracle replays the placement along
each path ``enumerate_paths`` yields.  On small random graphs, for
BEFORE and AFTER problems, with and without zero-trip hoisting, on
solver placements and on randomly perturbed ones:

* every violation the oracle finds on its bounded paths is in the exact
  report (no false negatives), for ``min_trips`` 0 and 1;
* replaying each exact violation's witness path reproduces it (no false
  positives), and under ``min_trips=1`` the witness runs every loop it
  enters.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import check_placement, solve
from repro.core.checker import _replay
from repro.core.paths import enumerate_paths
from repro.core.placement import Placement, Position
from repro.core.problem import Direction, Timing
from repro.testing.generator import random_analyzed_program, random_problem


def violation_key(violation):
    return (violation.kind, violation.criterion, violation.element,
            violation.node)


def build(seed, problem_seed, direction, hoist, perturbations):
    """A solved random instance with ``perturbations`` random extra
    productions added to its placement."""
    analyzed = random_analyzed_program(seed, size=8, max_depth=2)
    problem = random_problem(analyzed, seed=problem_seed,
                             direction=direction)
    problem.hoist_zero_trip = hoist
    placement = Placement(analyzed.ifg, problem,
                          solve(analyzed.ifg, problem))
    rng = random.Random(problem_seed)
    nodes = analyzed.ifg.real_nodes()
    elements = list(problem.universe)
    for _ in range(perturbations if elements else 0):
        placement.add(rng.choice(nodes), rng.choice(list(Position)),
                      rng.choice(list(Timing)), rng.choice(elements))
    return analyzed, problem, placement


def assert_witness_replays(ifg, problem, placement, violation, min_trips):
    """``violation.witness`` is a complete entry→exit CFG path that, under
    ``min_trips``, runs every loop it enters, and whose replay reproduces
    the violation.  Returns the path."""
    path = violation.witness
    cfg, forest = ifg.cfg, ifg.forest
    assert path[0] is cfg.entry and path[-1] is cfg.exit
    assert all(cfg.has_edge(a, b) for a, b in zip(path, path[1:]))
    if min_trips:
        for i, node in enumerate(path[:-1]):
            entered = i == 0 or not forest.contains(node, path[i - 1])
            if forest.is_header(node) and entered:
                assert forest.contains(node, path[i + 1])
    replayed = {violation_key(v)
                for v in _replay(ifg, problem, placement, path)}
    assert violation_key(violation) in replayed, (
        f"witness does not reproduce {violation}")
    return path


def assert_exact_matches_oracle(analyzed, problem, placement):
    """Both directions of the differential check; returns the criteria
    the exact reports raised."""
    ifg = analyzed.ifg
    seen = set()
    for min_trips in (0, 1):
        exact = check_placement(ifg, problem, placement, min_trips=min_trips)
        exact_keys = {violation_key(v) for v in exact.violations}
        for path in enumerate_paths(ifg, max_paths=200, max_node_visits=3,
                                    min_trips=min_trips):
            for violation in _replay(ifg, problem, placement, path):
                assert violation_key(violation) in exact_keys, (
                    f"missed {violation}")
        for violation in exact.violations:
            assert_witness_replays(ifg, problem, placement, violation,
                                   min_trips)
            seen.add(violation.criterion)
    return seen


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000), st.integers(0, 10_000),
       st.sampled_from(list(Direction)), st.booleans(), st.integers(0, 4))
def test_exact_checker_agrees_with_path_replay(seed, problem_seed, direction,
                                               hoist, perturbations):
    assert_exact_matches_oracle(
        *build(seed, problem_seed, direction, hoist, perturbations))


def test_differential_check_reaches_every_violation_kind():
    """A fixed sweep of the same check on which every criterion occurs,
    so the property above is never vacuous on one of them."""
    seen = set()
    for seed in range(24):
        for direction in Direction:
            seen |= assert_exact_matches_oracle(
                *build(seed, seed, direction, seed % 2 == 0, seed % 5))
    assert seen == {"C1", "C2", "C3", "O1"}
