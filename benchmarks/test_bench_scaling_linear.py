"""§5.2: the solver is O(E) — each equation evaluated once per node.

The paper: "the total complexity of GIVE-N-TAKE is O(E) steps ... under
this assumption [bounded out-degree and nesting], GIVE-N-TAKE as well as
other interval-based elimination methods have linear time complexity."

We time the solve on random structured programs of growing size and
assert that time per node stays bounded (quasi-linear growth), and we
verify the each-equation-once property by counting equation evaluations
two independent ways: monkeypatched equation functions (ground truth)
and the ``repro.obs`` tracer (the instrumentation under test).  The
timing runs execute *untraced* — they exercise, and therefore guard,
the zero-cost disabled-collector path.

``python -m repro.obs.bench`` measures the same ladder (``SIZES`` and
``build_instance`` come from there) into ``BENCH_solver.json``
(uploaded by CI; see docs/observability.md).
"""

import time

import pytest

from repro.core import Problem, solve
from repro.core.solver import GiveNTakeSolver
from repro.graph.views import ForwardView
from repro.obs import tracing
from repro.obs.bench import SIZES, build_instance
from repro.testing.generator import random_analyzed_program, random_problem


@pytest.mark.parametrize("size", SIZES)
def test_bench_solve_scaling(benchmark, size):
    analyzed, problem = build_instance(size)
    result = benchmark(solve, analyzed.ifg, problem)
    assert result is not None
    print(f"\n[scaling] size={size}: {len(analyzed.ifg.real_nodes())} nodes")


def test_bench_linearity_assertion(benchmark):
    """Time/node must not blow up with size (allowing noisy small runs a
    generous 4x budget between consecutive 4x size steps)."""

    def measure():
        per_node = []
        for size in SIZES:
            analyzed, problem = build_instance(size)
            nodes = len(analyzed.ifg.real_nodes())
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                solve(analyzed.ifg, problem)
                best = min(best, time.perf_counter() - start)
            per_node.append(best / nodes)
        return per_node

    per_node = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\n[scaling] seconds/node: "
          + ", ".join(f"{t * 1e6:.1f}us" for t in per_node))
    for smaller, larger in zip(per_node, per_node[1:]):
        assert larger < smaller * 4, per_node


def test_bench_each_equation_evaluated_once(benchmark):
    """Count actual equation evaluations: each of the fifteen equations
    runs exactly once per node (per timing for S3/S4) on a jump-free
    forward instance — the elimination property behind O(E)."""
    import repro.core.equations as equations_module

    analyzed = random_analyzed_program(11, size=80, goto_probability=0.0)
    problem = random_problem(analyzed, seed=12, n_elements=8)
    assert not analyzed.ifg.jump_edges()
    view = ForwardView(analyzed.ifg)

    equation_names = [name for name in dir(equations_module)
                      if name.startswith("eq")]

    def counted_solve():
        counters = {}
        originals = {}

        def wrap(name):
            function = getattr(equations_module, name)

            def wrapper(*args, **kwargs):
                counters[name] = counters.get(name, 0) + 1
                return function(*args, **kwargs)

            return function, wrapper

        for name in equation_names:
            originals[name], wrapper = wrap(name)
            setattr(equations_module, name, wrapper)
        try:
            with tracing() as collector:
                GiveNTakeSolver(view, problem).run()
        finally:
            for name, function in originals.items():
                setattr(equations_module, name, function)
        return counters, collector.counters()["equation_evaluations"]

    counters, traced = benchmark(counted_solve)
    node_count = len(analyzed.ifg.nodes())  # ROOT included
    for name, count in counters.items():
        if name in ("eq9_give_loc", "eq10_steal_loc"):
            # S2 runs once per child — every node except ROOT
            assert count == node_count - 1, (name, count)
        elif name in ("eq11_given_in", "eq12_given", "eq13_given_out",
                      "eq14_res_in", "eq15_res_out"):
            assert count == node_count * 2, (name, count)  # per timing
        else:
            assert count == node_count, (name, count)
    # the obs tracer must report the exact same counts, keyed by the
    # paper's equation numbers (cross-check of the instrumentation)
    for name, count in counters.items():
        number = int(name[2:].split("_", 1)[0])
        assert traced[number] == count, (name, number, traced[number], count)
    assert set(traced) == set(range(1, 16))
