"""Figure 16 / §5.3: AFTER problems with jumps out of loops.

Under reversal a jump out of a loop becomes a jump *into* it; hoisting
production out of such loops can be unsafe.  The paper's implementation
blocks those loops (conservative); we additionally provide the
optimistic-verify extension the paper suggests in §6.  Both must stay
balanced and sufficient; the optimistic mode recovers Figure 14's
vectorized write.
"""

import pytest

from repro.core import Problem, check_placement, solve
from repro.core.placement import Placement
from repro.core.problem import Direction
from repro.commgen import generate_communication
from repro.graph.views import BackwardView
from repro.testing.programs import FIG11_SOURCE, analyze_source

FIG16_SHAPE = (
    "do i = 1, n\n"
    "u = x(i)\n"
    "if t goto 9\n"
    "enddo\n"
    "a = 1\n"
    "9 b = 2\n"
)


def solve_after(analyzed, blocked):
    problem = Problem(direction=Direction.AFTER)
    problem.add_take(analyzed.node_named("u ="), "xi")
    view = BackwardView(analyzed.ifg, blocked=blocked)
    solution = solve(analyzed.ifg, problem, view=view)
    return problem, Placement(analyzed.ifg, problem, solution)


def test_bench_conservative_blocking_is_safe(benchmark):
    analyzed = analyze_source(FIG16_SHAPE)
    problem, placement = benchmark(solve_after, analyzed, True)
    report = check_placement(analyzed.ifg, problem, placement)
    assert not report.by_kind("balance"), str(report)
    assert not report.by_kind("sufficiency"), str(report)


def test_bench_optimistic_verified_on_fig11_writes(benchmark):
    """The optimistic mode hoists the write out of the jumped-out-of
    loop (one vectorized write per exit instead of one per iteration)
    and the checker certifies it."""
    result = benchmark(generate_communication, FIG11_SOURCE,
                       after_jumps="optimistic")
    conservative = generate_communication(FIG11_SOURCE,
                                          after_jumps="conservative")
    optimistic_writes = result.write_placement.production_count()
    conservative_writes = conservative.write_placement.production_count()

    # Optimistic: write regions at the two loop exits; conservative:
    # per-iteration regions inside the loop.  Count placements executed
    # on an n-trip run to see the dynamic difference.
    from repro import ConditionPolicy, MachineModel, simulate
    machine = MachineModel(latency=50, time_per_element=1, message_overhead=5)
    optimistic_metrics = simulate(result.annotated_program, machine,
                                  {"n": 24}, ConditionPolicy("never"))
    conservative_metrics = simulate(conservative.annotated_program, machine,
                                    {"n": 24}, ConditionPolicy("never"))
    assert optimistic_metrics.messages < conservative_metrics.messages
    print(f"\n[fig16] optimistic  : sites={optimistic_writes} "
          f"{optimistic_metrics.summary()}")
    print(f"[fig16] conservative: sites={conservative_writes} "
          f"{conservative_metrics.summary()}")


def test_bench_optimistic_falls_back_when_unsafe(benchmark):
    """On shapes where the pure equations break balance (nested loops
    skipped by the jump), the pipeline's verification falls back to the
    conservative solution — the result must always check out."""
    source = (
        "real x(100)\ndistribute x(block)\n"
        "do i = 1, n\n"
        "x(i) = 1\n"
        "do j = 1, n\n"
        "if t goto 9\n"
        "u = 1\n"
        "enddo\n"
        "do k = 1, n\n"
        "x(k) = 2\n"
        "enddo\n"
        "enddo\n"
        "9 w = 2\n"
    )
    result = benchmark(generate_communication, source)
    report = check_placement(result.analyzed.ifg, result.write_problem,
                             result.write_placement)
    assert not report.by_kind("balance"), str(report)
