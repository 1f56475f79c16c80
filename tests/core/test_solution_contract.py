"""The cross-backend solution-store contract (API-drift regressions).

The reference :class:`~repro.core.solution.Solution` and the planned
backend's :class:`~repro.core.kernel.slots.SlotSolution` must stay
drop-in interchangeable.  Two behaviors drifted once
and are pinned here:

* ``set_bits`` accepts *any* node — ``SlotSolution`` used to raise a
  bare ``KeyError`` for nodes outside its plan where the reference
  store accepted them silently;
* ``nodes_with`` returns deterministic view preorder on every backend —
  the reference store used to return insertion order (the S1/S2 sweeps
  insert in REVERSEPREORDER), so reports rendered differently per
  backend.
"""

import pytest

from repro.core.kernel.plan import plan_for
from repro.core.kernel.slots import SlotSolution
from repro.core.problem import Direction, Timing
from repro.core.solution import Solution
from repro.core.solver import make_view, solve
from repro.graph.cfg import Node, NodeKind
from repro.testing.generator import random_analyzed_program, random_problem

BACKENDS = ["reference", "planned"]


def instance(seed=5):
    analyzed = random_analyzed_program(seed, size=14, goto_probability=0.4)
    problem = random_problem(analyzed, seed=seed, direction=Direction.BEFORE)
    view = make_view(analyzed.ifg, Direction.BEFORE)
    return analyzed, problem, view


def all_stores():
    """One store of every kind over the same instance."""
    analyzed, problem, view = instance()
    plan = plan_for(view)
    stores = [Solution(problem, view), SlotSolution(problem, view, plan)]
    return analyzed, problem, view, stores


def test_set_bits_accepts_nodes_outside_the_plan():
    analyzed, problem, view, stores = all_stores()
    stranger = Node(990001, NodeKind.STMT, name="stranger")
    assert stranger not in set(view.nodes_preorder())
    for store in stores:
        store.set_bits("TAKE", stranger, 0b11)
        assert store.bits("TAKE", stranger) == 0b11
        store.set_bits("TAKE", stranger, 0)  # overwrite, not accumulate
        assert store.bits("TAKE", stranger) == 0
        store.set_bits("RES_in", stranger, 0b1, timing=Timing.EAGER)
        assert store.bits("RES_in", stranger, timing=Timing.EAGER) == 0b1


def test_set_bits_still_rejects_unknown_variable_names():
    _, problem, view, stores = all_stores()
    node = view.nodes_preorder()[0]
    for store in stores:
        with pytest.raises(KeyError):
            store.set_bits("NO_SUCH_VARIABLE", node, 0b1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_nodes_with_is_view_preorder(backend):
    analyzed, problem, view = instance()
    solution = solve(analyzed.ifg, problem, view=view, backend=backend)
    order = {node: i for i, node in enumerate(view.nodes_preorder())}
    element = next(iter(problem.universe))
    for name in ("TAKE", "GIVE", "STEAL", "BLOCK"):
        nodes = solution.nodes_with(name, element)
        ranks = [order[node] for node in nodes]
        assert ranks == sorted(ranks), (backend, name)


def test_nodes_with_identical_across_backends():
    analyzed, problem, view = instance()
    solutions = {backend: solve(analyzed.ifg, problem, view=view,
                                backend=backend)
                 for backend in BACKENDS}
    for element in problem.universe:
        for name in ("TAKE", "GIVE", "STEAL", "TAKE_loc", "GIVE_loc"):
            assert (solutions["planned"].nodes_with(name, element)
                    == solutions["reference"].nodes_with(name, element)), (
                name, element)


def test_nodes_with_appends_side_table_nodes_in_insertion_order():
    _, problem, view, stores = all_stores()
    element = next(iter(problem.universe))
    bit = problem.universe.bit(element)
    strangers = [Node(990010 + i, NodeKind.STMT, name=f"stranger-{i}")
                 for i in range(3)]
    for store in stores:
        for node in strangers:
            store.set_bits("GIVE", node, bit)
        tail = store.nodes_with("GIVE", element)[-len(strangers):]
        assert tail == strangers
