#!/usr/bin/env python3
"""Quickstart: solve a GIVE-N-TAKE placement problem from scratch.

We write a tiny program in the library's mini-Fortran, mark what is
consumed, destroyed, and produced for free, and let the framework place
balanced EAGER/LAZY production.

Run:  python examples/quickstart.py
"""

from repro import (
    Direction,
    Placement,
    Problem,
    Timing,
    analyze_source,
    check_placement,
    solve,
)

SOURCE = """
    a = 1
    do k = 1, n
        u = x(k)
    enddo
    if test then
        w = x(5)
    endif
"""


def main():
    # 1. Parse and build the interval flow graph (Tarjan intervals,
    #    synthetic nodes for critical edges, edge classification).
    analyzed = analyze_source(SOURCE)
    print("interval flow graph:")
    for node, number in analyzed.numbering.items():
        level = analyzed.ifg.level(node)
        print(f"  {number:2}  level {level}  {node.kind.value:10}  {node.name}")

    # 2. Describe the problem.  BEFORE = produce before consumption
    #    (think: fetch an operand).  The k-loop body consumes the array
    #    portion x(1:n); the branch consumes x(5).
    problem = Problem(direction=Direction.BEFORE)
    problem.add_take(analyzed.node_named("u ="), "x(1:n)")
    problem.add_take(analyzed.node_named("w ="), "x(5)")

    # 3. Solve.  GIVE-N-TAKE computes *regions*: an EAGER solution (start
    #    production as early as possible — e.g. send a message) and a
    #    LAZY solution (finish as late as possible — e.g. receive it),
    #    guaranteed to match one-to-one on every execution path.
    solution = solve(analyzed.ifg, problem)
    placement = Placement(analyzed.ifg, problem, solution)
    print("\nplacements (eager = start production, lazy = complete it):")
    for production in placement.productions():
        number = analyzed.numbering[production.node]
        elements = ", ".join(sorted(map(str, production.elements)))
        print(f"  {production.timing.value:5} {production.position.value:6} "
              f"node {number:2} ({production.node.name}): {{{elements}}}")

    # Note: x(1:n) is hoisted out of the potentially zero-trip k loop
    # (the paper's communication-style choice), and production for x(5)
    # stays inside the branch (safety: the else path never consumes it).

    # 4. Verify the correctness criteria on every path.
    report = check_placement(analyzed.ifg, problem, placement, min_trips=1)
    print(f"\nchecker: {report.summary()}")
    assert report.ok(), "C1/C2/C3 must hold on >=1-trip paths"

    # 5. Dataflow variables are available for inspection, by paper name.
    node = analyzed.node_named("u =")
    print(f"\nvariables at node {analyzed.numbering[node]}:")
    print(solution.format_node(node, Timing.EAGER))


if __name__ == "__main__":
    main()
