"""Figures 4-10: the correctness and optimality criteria.

Each figure contrasts a wrong/suboptimal placement (left) with the one
GIVE-N-TAKE computes (right).  For every criterion we (a) verify the
computed placement satisfies it via the all-paths checker and (b)
verify the checker *rejects* the figure's left-hand placement.
"""

import pytest

from repro.core import Problem, check_placement, solve
from repro.core.placement import Placement, Position
from repro.core.problem import Timing
from repro.testing.programs import analyze_source

DIAMOND_WITH_JOIN = (
    "if t then\na = 1\nelse\nb = 2\nendif\nu = x(1)"
)


def solve_for(source, annotate):
    analyzed = analyze_source(source)
    problem = Problem()
    annotate(analyzed, problem)
    solution = solve(analyzed.ifg, problem)
    placement = Placement(analyzed.ifg, problem, solution)
    return analyzed, problem, placement


def test_bench_fig4_balance(benchmark):
    """C1: each EAGER production matched by exactly one LAZY production."""
    analyzed, problem, placement = benchmark(
        solve_for, DIAMOND_WITH_JOIN,
        lambda ap, p: p.add_take(ap.node_named("u ="), "e"),
    )
    report = check_placement(analyzed.ifg, problem, placement)
    assert not report.by_kind("balance")

    # the figure's left side: one eager, two lazies on the same path
    bad = Placement.empty(analyzed.ifg, problem)
    bad.add(analyzed.ifg.cfg.entry, Position.BEFORE, Timing.EAGER, "e")
    bad.add(analyzed.node_named("if t"), Position.BEFORE, Timing.LAZY, "e")
    bad.add(analyzed.node_named("u ="), Position.BEFORE, Timing.LAZY, "e")
    assert check_placement(analyzed.ifg, problem, bad).by_kind("balance")


def test_bench_fig5_safety(benchmark):
    """C2: everything produced is consumed."""
    analyzed, problem, placement = benchmark(
        solve_for,
        "if t then\nu = x(1)\nelse\nb = 2\nendif",
        lambda ap, p: p.add_take(ap.node_named("u ="), "e"),
    )
    report = check_placement(analyzed.ifg, problem, placement)
    assert not report.by_kind("safety")

    # left side: production above the branch leaks onto the else path
    bad = Placement.empty(analyzed.ifg, problem)
    bad.add(analyzed.ifg.cfg.entry, Position.BEFORE, Timing.EAGER, "e")
    bad.add(analyzed.ifg.cfg.entry, Position.BEFORE, Timing.LAZY, "e")
    assert check_placement(analyzed.ifg, problem, bad).by_kind("safety")


def test_bench_fig6_sufficiency(benchmark):
    """C3: a producer on every path reaching each consumer."""
    analyzed, problem, placement = benchmark(
        solve_for, DIAMOND_WITH_JOIN,
        lambda ap, p: p.add_take(ap.node_named("u ="), "e"),
    )
    report = check_placement(analyzed.ifg, problem, placement)
    assert not report.by_kind("sufficiency")

    # left side: production on only one branch
    bad = Placement.empty(analyzed.ifg, problem)
    bad.add(analyzed.node_named("a ="), Position.BEFORE, Timing.EAGER, "e")
    bad.add(analyzed.node_named("a ="), Position.BEFORE, Timing.LAZY, "e")
    assert check_placement(analyzed.ifg, problem, bad).by_kind("sufficiency")


def test_bench_fig7_no_reproduction(benchmark):
    """O1: nothing available is produced again."""
    analyzed, problem, placement = benchmark(
        solve_for, "u = x(1)\nw = x(1)",
        lambda ap, p: (p.add_take(ap.node_named("u ="), "e"),
                       p.add_take(ap.node_named("w ="), "e")),
    )
    report = check_placement(analyzed.ifg, problem, placement)
    assert not report.by_kind("redundant")
    assert placement.production_count(Timing.EAGER) == 1

    bad = Placement.empty(analyzed.ifg, problem)
    for name in ("u =", "w ="):
        bad.add(analyzed.node_named(name), Position.BEFORE, Timing.EAGER, "e")
        bad.add(analyzed.node_named(name), Position.BEFORE, Timing.LAZY, "e")
    assert check_placement(analyzed.ifg, problem, bad).by_kind("redundant")


def test_bench_fig8_few_producers(benchmark):
    """O2: consumers on both branches -> one hoisted producer."""
    analyzed, problem, placement = benchmark(
        solve_for,
        "if t then\nu = x(1)\nelse\nw = x(1)\nendif",
        lambda ap, p: (p.add_take(ap.node_named("u ="), "e"),
                       p.add_take(ap.node_named("w ="), "e")),
    )
    assert placement.production_count(Timing.EAGER) == 1
    # vs the left side's two per-branch producers
    per_branch = Placement.empty(analyzed.ifg, problem)
    for name in ("u =", "w ="):
        per_branch.add(analyzed.node_named(name), Position.BEFORE,
                       Timing.EAGER, "e")
        per_branch.add(analyzed.node_named(name), Position.BEFORE,
                       Timing.LAZY, "e")
    assert per_branch.production_count(Timing.EAGER) == 2


def test_bench_fig9_eager_as_early_as_possible(benchmark):
    """O3: the EAGER production goes to the earliest safe point."""
    analyzed, problem, placement = benchmark(
        solve_for, "a = 1\nb = 2\nu = x(1)",
        lambda ap, p: p.add_take(ap.node_named("u ="), "e"),
    )
    eager = [p for p in placement.productions(Timing.EAGER)]
    assert len(eager) == 1 and eager[0].node is analyzed.ifg.cfg.entry


def test_bench_fig10_lazy_as_late_as_possible(benchmark):
    """O3': the LAZY production goes to the latest point (the consumer)."""
    analyzed, problem, placement = benchmark(
        solve_for, "a = 1\nb = 2\nu = x(1)",
        lambda ap, p: p.add_take(ap.node_named("u ="), "e"),
    )
    lazy = [p for p in placement.productions(Timing.LAZY)]
    assert len(lazy) == 1 and lazy[0].node is analyzed.node_named("u =")
