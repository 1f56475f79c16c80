"""Checker tests: hand-written *bad* placements must be caught.

These are the left (incorrect) sides of the paper's criteria figures
4–7, recreated as explicit placements over small programs.
"""

from repro.core import Problem, check_placement, solve
from repro.core.placement import Placement, Position
from repro.core.problem import Direction, Timing
from repro.testing.programs import analyze_source


def scenario(source="if t then\na = 1\nelse\nb = 2\nendif\nu = x(1)"):
    analyzed = analyze_source(source)
    problem = Problem()
    problem.add_take(analyzed.node_named("u ="), "x1")
    return analyzed, problem


def test_figure4_unbalanced_double_lazy_detected():
    # one EAGER followed by two LAZY productions on the same path
    analyzed, problem = scenario("a = 1\nb = 2\nu = x(1)")
    placement = Placement.empty(analyzed.ifg, problem)
    placement.add(analyzed.node_named("a ="), Position.BEFORE, Timing.EAGER, "x1")
    placement.add(analyzed.node_named("b ="), Position.BEFORE, Timing.LAZY, "x1")
    placement.add(analyzed.node_named("u ="), Position.BEFORE, Timing.LAZY, "x1")
    report = check_placement(analyzed.ifg, problem, placement)
    assert report.by_kind("balance"), report.summary()


def test_figure4_eager_never_closed_detected():
    analyzed, problem = scenario("a = 1\nu = x(1)")
    placement = Placement.empty(analyzed.ifg, problem)
    placement.add(analyzed.node_named("a ="), Position.BEFORE, Timing.EAGER, "x1")
    # no LAZY at all -> consumption unsatisfied AND region never closed
    report = check_placement(analyzed.ifg, problem, placement)
    kinds = {v.kind for v in report.violations}
    assert "balance" in kinds and "sufficiency" in kinds


def test_figure5_unsafe_production_detected():
    # production on the branch with no consumer (C2)
    analyzed, problem = scenario()
    placement = Placement.empty(analyzed.ifg, problem)
    for name in ("a =", "b ="):
        placement.add(analyzed.node_named(name), Position.BEFORE, Timing.EAGER, "x1")
        placement.add(analyzed.node_named(name), Position.BEFORE, Timing.LAZY, "x1")
    placement.add(analyzed.node_named("u ="), Position.BEFORE, Timing.EAGER, "x1")
    # 'u =' consumes, but double production means one path had a wasted
    # production... actually here each path produces once then the extra
    # eager at the consumer is redundant and unbalanced.
    report = check_placement(analyzed.ifg, problem, placement)
    assert not report.ok()


def test_figure6_insufficient_production_detected():
    # production on only one branch; consumer after the join (C3)
    analyzed, problem = scenario()
    placement = Placement.empty(analyzed.ifg, problem)
    placement.add(analyzed.node_named("a ="), Position.BEFORE, Timing.EAGER, "x1")
    placement.add(analyzed.node_named("a ="), Position.BEFORE, Timing.LAZY, "x1")
    report = check_placement(analyzed.ifg, problem, placement)
    sufficiency = report.by_kind("sufficiency")
    assert sufficiency and sufficiency[0].element == "x1"


def test_figure7_redundant_production_detected():
    analyzed, problem = scenario("u = x(1)\nw = x(1)")
    problem.add_take(analyzed.node_named("w ="), "x1")
    placement = Placement.empty(analyzed.ifg, problem)
    for name in ("u =", "w ="):
        placement.add(analyzed.node_named(name), Position.BEFORE, Timing.EAGER, "x1")
        placement.add(analyzed.node_named(name), Position.BEFORE, Timing.LAZY, "x1")
    report = check_placement(analyzed.ifg, problem, placement)
    assert report.by_kind("redundant")


def test_steal_between_production_and_consumer_detected():
    analyzed = analyze_source("a = 1\ns = 2\nu = x(1)")
    problem = Problem()
    problem.add_take(analyzed.node_named("u ="), "x1")
    problem.add_steal(analyzed.node_named("s ="), "x1")
    placement = Placement.empty(analyzed.ifg, problem)
    placement.add(analyzed.node_named("a ="), Position.BEFORE, Timing.EAGER, "x1")
    placement.add(analyzed.node_named("a ="), Position.BEFORE, Timing.LAZY, "x1")
    report = check_placement(analyzed.ifg, problem, placement)
    kinds = {v.kind for v in report.violations}
    assert "sufficiency" in kinds     # consumer sees destroyed element
    assert "safety" in kinds          # production destroyed unconsumed


def test_steal_inside_open_region_detected():
    analyzed = analyze_source("a = 1\ns = 2\nu = x(1)")
    problem = Problem()
    problem.add_take(analyzed.node_named("u ="), "x1")
    problem.add_steal(analyzed.node_named("s ="), "x1")
    placement = Placement.empty(analyzed.ifg, problem)
    placement.add(analyzed.node_named("a ="), Position.BEFORE, Timing.EAGER, "x1")
    placement.add(analyzed.node_named("u ="), Position.BEFORE, Timing.LAZY, "x1")
    report = check_placement(analyzed.ifg, problem, placement)
    balance = report.by_kind("balance")
    assert any("destruction inside" in v.message for v in balance)


def test_correct_placement_passes():
    analyzed, problem = scenario("a = 1\nu = x(1)")
    solution = solve(analyzed.ifg, problem)
    placement = Placement(analyzed.ifg, problem, solution)
    report = check_placement(analyzed.ifg, problem, placement)
    assert report.ok()
    assert report.summary().startswith("OK")


def test_report_formatting():
    analyzed, problem = scenario("a = 1\nu = x(1)")
    placement = Placement.empty(analyzed.ifg, problem)  # nothing produced
    report = check_placement(analyzed.ifg, problem, placement)
    assert not report.ok()
    text = str(report)
    assert "C3" in text and "x1" in text
    assert "sufficiency=1" in report.summary()


def test_header_entry_production_not_replayed_on_back_edge(fig11,
                                                           fig11_read_problem,
                                                           fig11_placement):
    # The lazy receive sits before the k-loop header (node 12); iterating
    # the loop must not re-trigger it (that would double-receive).
    report = check_placement(fig11.ifg, fig11_read_problem, fig11_placement)
    assert report.ok(ignore=("safety",)), str(report)
    assert not report.by_kind("balance")
