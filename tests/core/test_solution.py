"""Solution store API tests.

Both kernels and the chaotic-iteration oracle write the one slot-column
:class:`~repro.core.solution.Solution`, so these tests pin its contract
once: unknown variables and nodes outside the view raise ``KeyError``,
and ``nodes_with`` lists nodes in view preorder whichever kernel solved
(the S1/S2 sweeps write in REVERSEPREORDER).
"""

import pytest

from repro.core import Problem, solve
from repro.core.problem import Direction, Timing
from repro.core.solution import SHARED_VARIABLES, TIMED_VARIABLES, Solution
from repro.core.solver import make_view
from repro.graph.cfg import Node, NodeKind
from repro.graph.views import ForwardView
from repro.testing.generator import random_analyzed_program, random_problem
from repro.testing.programs import analyze_source

BACKENDS = ["reference", "planned"]


@pytest.fixture
def small():
    analyzed = analyze_source("a = 1\nu = x(1)")
    problem = Problem()
    problem.add_take(analyzed.node_named("u ="), "e")
    return analyzed, problem, solve(analyzed.ifg, problem)


def test_variable_name_sets():
    assert len(SHARED_VARIABLES) == 10
    assert len(TIMED_VARIABLES) == 5
    assert "TAKE" in SHARED_VARIABLES and "RES_in" in TIMED_VARIABLES


def test_bits_default_to_empty(small):
    analyzed, problem, solution = small
    node = analyzed.node_named("a =")
    fresh = Solution(problem, ForwardView(analyzed.ifg))
    assert fresh.bits("TAKE", node) == 0


def test_timed_variable_requires_timing(small):
    analyzed, problem, solution = small
    node = analyzed.node_named("u =")
    with pytest.raises(KeyError):
        solution.bits("RES_in", node)  # no timing given


def test_elements_roundtrip(small):
    analyzed, problem, solution = small
    node = analyzed.node_named("u =")
    assert solution.elements("TAKE", node) == frozenset({"e"})


def test_nodes_with(small):
    analyzed, problem, solution = small
    nodes = solution.nodes_with("RES_in", "e", Timing.EAGER)
    assert nodes == [analyzed.ifg.cfg.entry]


def test_format_node_lists_all_variables(small):
    analyzed, problem, solution = small
    text = solution.format_node(analyzed.node_named("u ="))
    for name in SHARED_VARIABLES:
        assert name in text
    assert "RES_in^eager" in text and "RES_in^lazy" in text


def test_set_bits_overwrites(small):
    analyzed, problem, solution = small
    node = analyzed.node_named("a =")
    solution.set_bits("TAKE", node, 0b1)
    assert solution.bits("TAKE", node) == 0b1
    solution.set_bits("TAKE", node, 0)
    assert solution.bits("TAKE", node) == 0


def instance(seed=5):
    analyzed = random_analyzed_program(seed, size=14, goto_probability=0.4)
    problem = random_problem(analyzed, seed=seed, direction=Direction.BEFORE)
    view = make_view(analyzed.ifg, Direction.BEFORE)
    return analyzed, problem, view


def test_nodes_outside_the_view_raise_key_error():
    _, problem, view = instance()
    store = Solution(problem, view)
    stranger = Node(990001, NodeKind.STMT, name="stranger")
    assert stranger not in view.position
    with pytest.raises(KeyError):
        store.set_bits("TAKE", stranger, 0b11)
    with pytest.raises(KeyError):
        store.bits("TAKE", stranger)
    with pytest.raises(KeyError):
        store.set_bits("RES_in", stranger, 0b1, timing=Timing.EAGER)
    with pytest.raises(KeyError):
        store.bits("RES_in", stranger, timing=Timing.EAGER)


def test_set_bits_still_rejects_unknown_variable_names():
    _, problem, view = instance()
    store = Solution(problem, view)
    node = view.nodes_preorder()[0]
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
