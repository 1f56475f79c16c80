"""Placement wrapper tests."""

import pytest

from repro.core import Problem, solve
from repro.core.placement import Placement, Position, Production
from repro.core.problem import Direction, Timing
from repro.graph.cfg import Node, NodeKind
from repro.testing.generator import random_analyzed_program, random_problem
from repro.testing.programs import analyze_source


def per_node_placement(ifg, problem, solution):
    """A placement built the readable way: four ``bits`` queries per
    real node."""
    placement = Placement.empty(ifg, problem)
    before_key, after_key = ("RES_in", "RES_out")
    if problem.direction is Direction.AFTER:
        before_key, after_key = after_key, before_key
    for node in ifg.real_nodes():
        for timing in Timing:
            for position, key in ((Position.BEFORE, before_key),
                                  (Position.AFTER, after_key)):
                bits = solution.bits(key, node, timing)
                if bits:
                    placement._bits[(node, position, timing)] = bits
    return placement


@pytest.mark.parametrize("backend", ["planned", "reference"])
@pytest.mark.parametrize("direction", list(Direction))
def test_placement_from_columns_equals_per_node_construction(backend,
                                                             direction):
    for seed in range(8):
        analyzed = random_analyzed_program(seed, size=20)
        problem = random_problem(analyzed, seed=seed, n_elements=4,
                                 direction=direction)
        solution = solve(analyzed.ifg, problem, backend=backend)
        placement = Placement(analyzed.ifg, problem, solution)
        expected = per_node_placement(analyzed.ifg, problem, solution)
        assert placement._bits == expected._bits, (seed, backend)
        assert placement.productions() == expected.productions()


@pytest.mark.parametrize("backend", ["planned", "reference"])
def test_placement_skips_root_and_side_table_nodes(backend):
    """Only real graph nodes are placed: RES bits the store holds for
    ROOT never become productions, and the store keeps no side table
    for nodes outside the graph, so their bits cannot be stored at all
    (``KeyError``) and never reach the placement either."""
    analyzed = random_analyzed_program(3, size=20)
    problem = random_problem(analyzed, seed=3, n_elements=4)
    solution = solve(analyzed.ifg, problem, backend=backend)
    top = problem.universe.top
    root = analyzed.ifg.root
    strangers = [Node(990100 + i, NodeKind.STMT, name=f"stranger-{i}")
                 for i in range(2)]
    for timing in Timing:
        solution.set_bits("RES_in", root, top, timing)
        solution.set_bits("RES_out", root, top, timing)
        for node in strangers:
            with pytest.raises(KeyError):
                solution.set_bits("RES_in", node, top, timing)
            with pytest.raises(KeyError):
                solution.set_bits("RES_out", node, top, timing)
    placement = Placement(analyzed.ifg, problem, solution)
    expected = per_node_placement(analyzed.ifg, problem, solution)
    assert placement._bits == expected._bits
    placed = {node for node, _, _ in placement._bits}
    assert placed <= set(analyzed.ifg.real_nodes())


def test_before_problem_res_in_maps_to_before(fig11, fig11_placement):
    # RES_in^eager(1) = {x_k}: production before node 1.
    assert fig11_placement.at(fig11.node(1), Position.BEFORE, Timing.EAGER) == {"x_k"}
    assert fig11_placement.at(fig11.node(1), Position.AFTER, Timing.EAGER) == set()


def test_after_problem_res_in_maps_to_after():
    analyzed = analyze_source("u = x(1)\na = 2")
    problem = Problem(direction=Direction.AFTER)
    definition = analyzed.node_named("u =")
    problem.add_take(definition, "x1")
    solution = solve(analyzed.ifg, problem)
    placement = Placement(analyzed.ifg, problem, solution)
    # The write-back must happen *after* the defining statement.
    positions = {p.position for p in placement.productions()}
    assert positions == {Position.AFTER}


def test_productions_order_and_content(fig11, fig11_placement):
    productions = fig11_placement.productions()
    assert all(isinstance(p, Production) for p in productions)
    as_tuples = [
        (fig11.number(p.node), p.position.value, p.timing.value, tuple(sorted(p.elements)))
        for p in productions
    ]
    assert as_tuples == [
        (1, "before", "eager", ("x_k",)),
        (6, "before", "eager", ("y_b",)),
        (10, "before", "eager", ("y_b",)),
        (12, "before", "lazy", ("x_k", "y_b")),
    ]


def test_production_count_and_filter(fig11, fig11_placement):
    assert fig11_placement.production_count() == 4
    assert fig11_placement.production_count(Timing.EAGER) == 3
    assert fig11_placement.production_count(Timing.LAZY) == 1


def test_move_merges(fig11, fig11_read_problem, fig11_solution):
    placement = Placement(fig11.ifg, fig11_read_problem, fig11_solution)
    placement.move(fig11.node(6), Position.BEFORE, Timing.EAGER,
                   fig11.node(7), Position.BEFORE)
    assert placement.at(fig11.node(6), Position.BEFORE, Timing.EAGER) == set()
    assert placement.at(fig11.node(7), Position.BEFORE, Timing.EAGER) == {"y_b"}


def test_empty_and_add():
    analyzed = analyze_source("u = x(1)")
    problem = Problem()
    node = analyzed.node_named("u =")
    problem.add_take(node, "x1")
    placement = Placement.empty(analyzed.ifg, problem)
    assert placement.productions() == []
    placement.add(node, Position.BEFORE, Timing.EAGER, "x1")
    placement.add(node, Position.BEFORE, Timing.LAZY, "x1")
    assert placement.production_count() == 2


def test_str_rendering(fig11_placement):
    text = str(fig11_placement)
    assert "eager@before" in text and "x_k" in text


def test_sites_for(fig11, fig11_placement):
    sites = fig11_placement.sites_for("y_b", Timing.EAGER)
    assert fig11.numbers([node for node, _ in sites]) == [6, 10]
    assert all(position is Position.BEFORE for _, position in sites)
    all_timings = fig11_placement.sites_for("x_k")
    assert len(all_timings) == 2  # eager at 1, lazy at 12


def test_report_by_criterion():
    from repro.core import Problem, check_placement
    from repro.testing.programs import analyze_source

    analyzed = analyze_source("u = x(1)")
    problem = Problem()
    problem.add_take(analyzed.node_named("u ="), "e")
    empty = Placement.empty(analyzed.ifg, problem)
    report = check_placement(analyzed.ifg, problem, empty)
    assert report.by_criterion("C3")
    assert not report.by_criterion("C1")
