#!/usr/bin/env python3
"""Regenerate the quantitative rows of EXPERIMENTS.md in one run.

Usage:  python benchmarks/generate_report.py

Prints a markdown summary of every headline number: Figure 2's message
counts and speedups, Figure 3's traffic, the solver scaling and
one-pass-vs-fixpoint ratios, the PRE comparison, and the extension
results.  (The pytest benchmarks assert the same shapes; this script is
the human-readable view.)

Its solver-observability table measures the same ladder as
``BENCH_solver.json``; ``python -m repro.obs.bench`` writes that
artifact.
"""

import argparse
import time

from repro import (
    ConditionPolicy,
    MachineModel,
    generate_communication,
    naive_communication,
    simulate,
)
from repro.core.reference import solve_iterative
from repro.core.solver import make_view, solve
from repro.testing.generator import random_analyzed_program, random_problem
from repro.testing.programs import FIG1_SOURCE, FIG3_SOURCE, FIG11_SOURCE

MACHINE = MachineModel(latency=100, time_per_element=1, message_overhead=10)


def fig2_table():
    print("## Figure 2 — naive vs GIVE-N-TAKE (READ placement)\n")
    print("| n | naive msgs | GNT msgs | naive exposed | GNT hidden | speedup |")
    print("|---|-----------|----------|---------------|------------|---------|")
    gnt = generate_communication(FIG1_SOURCE)
    naive = naive_communication(FIG1_SOURCE)
    for n in (8, 32, 128):
        policy = ConditionPolicy("always")
        g = simulate(gnt.annotated_program, MACHINE, {"n": n}, policy)
        m = simulate(naive.annotated_program, MACHINE, {"n": n}, policy)
        print(f"| {n} | {m.messages} | {g.messages} | "
              f"{m.exposed_latency:.0f} | {g.hidden_latency:.0f} | "
              f"{g.speedup_over(m):.1f}x |")
    print()


def fig3_row():
    print("## Figure 3 — write-back + give-for-free\n")
    gnt = generate_communication(FIG3_SOURCE)
    naive = naive_communication(FIG3_SOURCE)
    policy = ConditionPolicy("always")
    g = simulate(gnt.annotated_program, MACHINE, {"n": 32}, policy)
    m = simulate(naive.annotated_program, MACHINE, {"n": 32}, policy)
    print(f"GNT: {g.summary()}")
    print(f"naive: {m.summary()}")
    print()


def fig14_row():
    print("## Figure 14 — full pipeline on the running example\n")
    result = generate_communication(FIG11_SOURCE)
    reads, writes = result.communication_count()
    print(f"read placements: {reads}, write placements: {writes}")
    policy = ConditionPolicy("never")
    metrics = simulate(result.annotated_program, MACHINE, {"n": 48}, policy)
    print(f"simulated (n=48, no early exit): {metrics.summary()}")
    print()


def scaling_table():
    print("## Solver scaling (one pass vs fixpoint iteration)\n")
    print("| nodes | one-pass | fixpoint | ratio |")
    print("|-------|----------|----------|-------|")
    for size in (50, 200, 640):
        analyzed = random_analyzed_program(23, size=size)
        problem = random_problem(analyzed, seed=24, n_elements=6)
        view = make_view(analyzed.ifg, problem.direction)
        start = time.perf_counter()
        solve(analyzed.ifg, problem, view=view)
        one_pass = time.perf_counter() - start
        start = time.perf_counter()
        solve_iterative(analyzed.ifg, problem, view=view)
        fixpoint = time.perf_counter() - start
        print(f"| {len(analyzed.ifg.real_nodes())} | {one_pass * 1e3:.1f}ms | "
              f"{fixpoint * 1e3:.1f}ms | {fixpoint / one_pass:.1f}x |")
    print()


def pre_table():
    print("## PRE comparison (dynamic evaluations on >=1-trip paths)\n")
    from repro.core.paths import enumerate_paths
    from repro.pre import build_cse_problem, gnt_pre_placement, lazy_code_motion
    from repro.pre.gnt_pre import evaluations_on_path

    wins = ties = losses = 0
    gnt_total = lcm_total = 0
    for seed in range(8):
        analyzed = random_analyzed_program(seed, size=18, goto_probability=0.2)
        problem, _ = build_cse_problem(analyzed)
        stmt_nodes = [n for n in analyzed.ifg.real_nodes()
                      if n.kind.value == "stmt"]
        for node in stmt_nodes[::3]:
            problem.add_take(node, "x + y")
        for node in stmt_nodes[5::7]:
            problem.add_steal(node, "x + y")
        lcm = lazy_code_motion(analyzed.ifg, problem)
        gnt = gnt_pre_placement(analyzed.ifg, problem)
        for path in enumerate_paths(analyzed.ifg, max_paths=30, min_trips=1):
            g = evaluations_on_path(gnt, problem, path, analyzed.ifg)
            l = bin(lcm.insert_edges.get((None, path[0]), 0)).count("1")
            for edge in zip(path, path[1:]):
                l += bin(lcm.insert_edges.get(edge, 0)).count("1")
            for node in path:
                remaining = problem.take_init(node) & ~lcm.delete_nodes.get(node, 0)
                l += bin(remaining).count("1")
            gnt_total += g
            lcm_total += l
            wins += g < l
            ties += g == l
            losses += g > l
    print(f"paths: GNT cheaper {wins}, equal {ties}, costlier {losses}; "
          f"totals GNT={gnt_total} LCM={lcm_total} "
          f"(ratio {gnt_total / lcm_total:.3f})")
    print()


def observability_table():
    from repro.obs.bench import solver_scaling

    print("## Solver observability — BENCH_solver.json\n")
    report = solver_scaling()
    print("| size | nodes | time/node | sweeps | each-equation-once |")
    print("|------|-------|-----------|--------|--------------------|")
    for row in report["rows"]:
        print(f"| {row['size']} | {row['nodes']} | "
              f"{row['time_per_node_s'] * 1e6:.1f}us | "
              f"{row['consumption_sweeps']} | "
              f"{'yes' if row['each_equation_once'] else 'NO'} |")
    print(f"\nlinear within {report['tolerance']:.0f}x tolerance: "
          f"{report['linear_within_tolerance']}")
    print()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    print("# Reproduction report (regenerated)\n")
    fig2_table()
    fig3_row()
    fig14_row()
    scaling_table()
    pre_table()
    observability_table()


if __name__ == "__main__":
    main()
