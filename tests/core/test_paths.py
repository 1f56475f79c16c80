"""Path enumeration tests."""

import pytest

from repro.core.paths import enumerate_paths, production_walk
from repro.core.placement import Position
from repro.core.problem import Direction
from repro.core.solver import make_view
from repro.testing.programs import analyze_source


def test_straightline_single_path():
    analyzed = analyze_source("a = 1\nb = 2")
    paths = enumerate_paths(analyzed.ifg)
    assert len(paths) == 1
    assert paths[0][0] is analyzed.ifg.cfg.entry
    assert paths[0][-1] is analyzed.ifg.cfg.exit


def test_branch_two_paths():
    analyzed = analyze_source("if t then\na = 1\nelse\nb = 2\nendif")
    assert len(enumerate_paths(analyzed.ifg)) == 2


def test_loop_trip_counts():
    analyzed = analyze_source("do i = 1, n\na = 1\nenddo")
    paths = enumerate_paths(analyzed.ifg, max_node_visits=3)
    body = analyzed.node_named("a =")
    trip_counts = sorted(p.count(body) for p in paths)
    assert trip_counts == [0, 1, 2]  # zero-trip, one-trip, two-trip


def test_min_trips_excludes_zero_trip():
    analyzed = analyze_source("do i = 1, n\na = 1\nenddo")
    paths = enumerate_paths(analyzed.ifg, max_node_visits=3, min_trips=1)
    body = analyzed.node_named("a =")
    assert sorted(p.count(body) for p in paths) == [1, 2]


def test_min_trips_applies_to_nested_loops():
    analyzed = analyze_source("do i = 1, n\ndo j = 1, n\na = 1\nenddo\nenddo")
    paths = enumerate_paths(analyzed.ifg, max_node_visits=3, min_trips=1)
    body = analyzed.node_named("a =")
    assert all(p.count(body) >= 1 for p in paths)


def test_max_paths_cap():
    source = "\n".join("if t then\na = 1\nendif" for _ in range(12))
    analyzed = analyze_source(source)
    assert len(enumerate_paths(analyzed.ifg, max_paths=50)) == 50


def test_paths_follow_real_edges(fig11):
    for path in enumerate_paths(fig11.ifg, max_paths=30):
        for i in range(len(path) - 1):
            assert fig11.ifg.cfg.has_edge(path[i], path[i + 1])


def test_goto_paths_present(fig11):
    # some path must traverse the JUMP edge (4 -> 10)
    node4, node10 = fig11.node(4), fig11.node(10)
    paths = enumerate_paths(fig11.ifg)
    assert any(
        node10 in p and p[p.index(node10) - 1] is node4 for p in paths if node10 in p
    )


@pytest.mark.parametrize("direction", list(Direction))
def test_production_walk_follows_the_view(fig11, direction):
    """The walk runs in the view's direction; arrival productions skip
    view CYCLE edges and departure productions fire only along view
    FORWARD/JUMP edges — checked against the view's own neighbor sets."""
    view = make_view(fig11.ifg, direction)
    arrive, depart = ((Position.BEFORE, Position.AFTER)
                      if direction is Direction.BEFORE
                      else (Position.AFTER, Position.BEFORE))
    crossed = set()
    for path in enumerate_paths(fig11.ifg, max_paths=40):
        steps = list(production_walk(fig11.ifg, path, direction))
        nodes = [node for node, _, _ in steps]
        assert nodes == (path if direction is Direction.BEFORE
                         else path[::-1])
        assert steps[0][1] is arrive and steps[-1][2] is None
        for (node, _, on_departure), (succ, on_arrival, _) in zip(
                steps, steps[1:]):
            cycle = succ in view.succs(node, "C")
            crossed.add(cycle)
            assert on_arrival is (None if cycle else arrive)
            assert on_departure is (
                depart if succ in view.succs(node, "FJ") else None)
    assert crossed == {True, False}  # some path takes a back edge
