"""SolverPlan structure tests: slots, schedules, caching.

The planned backend's correctness is established differentially in
``test_kernel_equivalence.py``; here we pin down the *plan* itself —
the compile-once data a :class:`~repro.core.kernel.plan.SolverPlan`
extracts from a view — and the two caching layers (plans on the graph,
views on the graph) that make it a one-time cost.

:func:`reference_plan` builds a plan the readable way, one per-node
view query per field; the compiled plan, built in one pass over the
graph's per-letter adjacency, must equal it field for field.
"""

import pickle

import pytest

from repro.commgen.pipeline import generate_communication
from repro.core.kernel import SolverPlan, plan_for
from repro.core.problem import Timing
from repro.core.reference import solutions_equal
from repro.core.solution import SHARED_VARIABLES, TIMED_VARIABLES
from repro.core.solver import solve
from repro.graph.views import BackwardView, ForwardView, cached_view
from repro.lang.parser import parse
from repro.testing.generator import random_analyzed_program, random_problem
from repro.testing.programs import (FIG1_SOURCE, FIG3_SOURCE, FIG11_SOURCE,
                                    AnalyzedProgram, analyze_source)
from tests.graph.test_splitting import GOTO_INTO_LOOP


def reference_plan(view):
    """A :class:`SolverPlan` built from the view's per-node protocol:
    children, LASTCHILD, HEADER and every neighbor set queried node by
    node."""
    plan = SolverPlan.__new__(SolverPlan)
    nodes = tuple(view.nodes_preorder())
    slot_of = {node: index for index, node in enumerate(nodes)}
    n = len(nodes)

    def slots(sequence):
        return tuple(slot_of[node] for node in sequence)

    def optional_slot(node):
        return -1 if node is None else slot_of[node]

    plan.direction = view.direction
    plan.key = view.plan_key
    plan.nodes = nodes
    plan.slot_of = slot_of
    plan.n = n
    plan.root_slot = slot_of[view.root]
    plan.children = tuple(slots(view.children(node)) for node in nodes)
    plan.lastchild = tuple(optional_slot(view.lastchild(node))
                           for node in nodes)
    plan.header = tuple(optional_slot(view.header_of(node))
                        for node in nodes)
    plan.is_header = tuple(view.is_header(node) for node in nodes)
    plan.steal_all = tuple(view.steal_all(node) for node in nodes)
    plan.succs_e = tuple(slots(view.succs(node, "E")) for node in nodes)
    plan.succs_f = tuple(slots(view.succs(node, "F")) for node in nodes)
    plan.succs_ef = tuple(slots(view.succs(node, "EF")) for node in nodes)
    plan.succs_fj = tuple(slots(view.succs(node, "FJ")) for node in nodes)
    plan.succs_fjs = tuple(slots(view.succs(node, "FJS")) for node in nodes)
    plan.preds_fj = tuple(slots(view.preds(node, "FJ")) for node in nodes)
    plan.preds_loc = tuple(slots(view.preds(node, view.loc_pred_letters))
                           for node in nodes)
    plan.preds_syn = tuple(
        slots(view.preds(node, view.loc_synthetic_letters))
        if view.loc_synthetic_letters else ()
        for node in nodes)
    return plan


def _graphs():
    """Figures 1/3/11, a jump into a loop repaired by node splitting,
    and seeded structured and jumpy generator programs."""
    yield "fig1", analyze_source(FIG1_SOURCE).ifg
    yield "fig3", analyze_source(FIG3_SOURCE).ifg
    yield "fig11", analyze_source(FIG11_SOURCE).ifg
    split = AnalyzedProgram(parse(GOTO_INTO_LOOP), split_irreducible=True)
    yield "goto-into-loop", split.ifg
    for seed in range(6):
        yield (f"structured-{seed}",
               random_analyzed_program(seed, size=24, goto_probability=0).ifg)
        yield (f"jumpy-{seed}",
               random_analyzed_program(seed, size=24,
                                       goto_probability=0.9).ifg)


def _views(ifg):
    return (ForwardView(ifg), BackwardView(ifg),
            BackwardView(ifg, blocked=False))


def test_compiled_plans_equal_the_per_node_reference():
    shapes = 0
    for name, ifg in _graphs():
        for view in _views(ifg):
            plan, expected = SolverPlan(view), reference_plan(view)
            assert vars(plan).keys() == vars(expected).keys()
            for field, value in vars(expected).items():
                assert getattr(plan, field) == value, (name, view.plan_key,
                                                       field)
            shapes += 1
    assert shapes == 3 * 16


@pytest.fixture(scope="module", params=["before", "after"])
def plan_case(request):
    analyzed = random_analyzed_program(3, size=18)
    view = (ForwardView(analyzed.ifg) if request.param == "before"
            else BackwardView(analyzed.ifg))
    return analyzed, view, SolverPlan(view)


def test_slots_are_view_preorder_positions(plan_case):
    _, view, plan = plan_case
    order = view.nodes_preorder()
    assert plan.nodes == tuple(order)
    assert all(plan.slot_of[node] == i for i, node in enumerate(order))
    assert plan.n == len(order)
    assert plan.nodes[plan.root_slot] is view.root


def test_children_keep_forward_order(plan_case):
    """Eqs 9/10 must see children in the view's order (S2's FORWARD)."""
    _, view, plan = plan_case
    for s, node in enumerate(plan.nodes):
        assert plan.children[s] == tuple(plan.slot_of[c]
                                         for c in view.children(node))
        # headers precede their interval in preorder
        assert all(c > s for c in plan.children[s])


def test_adjacency_matches_view(plan_case):
    _, view, plan = plan_case
    for s, node in enumerate(plan.nodes):
        for letters, flat in (("E", plan.succs_e), ("F", plan.succs_f),
                              ("EF", plan.succs_ef), ("FJ", plan.succs_fj),
                              ("FJS", plan.succs_fjs)):
            assert flat[s] == tuple(plan.slot_of[x]
                                    for x in view.succs(node, letters))
        assert plan.preds_fj[s] == tuple(plan.slot_of[x]
                                         for x in view.preds(node, "FJ"))


def test_iteration_flag_and_bound_come_from_the_view():
    for seed in range(6):
        ifg = random_analyzed_program(seed, size=18,
                                      goto_probability=0.6).ifg
        forward = ForwardView(ifg)
        assert not forward.requires_consumption_iteration
        assert forward.natural_bound is None
        backward = BackwardView(ifg)
        assert backward.requires_consumption_iteration == bool(
            ifg.jump_edges())
        if backward.requires_consumption_iteration:
            assert backward.natural_bound == 1 + max(
                ifg.level(m) for m, _ in ifg.jump_edges())
        else:
            assert backward.natural_bound is None


def test_plan_cached_per_shape_on_the_graph():
    ifg = random_analyzed_program(5, size=14).ifg
    before = plan_for(cached_view(ifg, "before"))
    after = plan_for(cached_view(ifg, "after"))
    optimistic = plan_for(cached_view(ifg, "after", blocked=False))
    assert plan_for(cached_view(ifg, "before")) is before
    assert plan_for(cached_view(ifg, "after")) is after
    # blocked/unblocked backward views are different shapes
    assert optimistic is not after
    assert plan_for(BackwardView(ifg)) is after  # keyed by shape, not object
    assert ifg.__dict__["_solver_plans"].keys() == {
        ("before",), ("after", True), ("after", False)}


def test_cached_view_returns_one_instance_per_shape():
    ifg = random_analyzed_program(5, size=14).ifg
    assert cached_view(ifg, "before") is cached_view(ifg, "before")
    assert cached_view(ifg, "after") is cached_view(ifg, "after")
    assert cached_view(ifg, "after") is not cached_view(ifg, "after",
                                                        blocked=False)


def test_pickled_graph_round_trips_with_its_plans():
    """A graph pickled together with its compiled views and plans
    solves, after the round trip, exactly like the original."""
    analyzed = random_analyzed_program(7, size=16)
    problem = random_problem(analyzed, seed=7, n_elements=4)
    before = solve(analyzed.ifg, problem, backend="planned")
    plan_for(cached_view(analyzed.ifg, "after", blocked=False))
    # One dump keeps the graph/problem node identities shared.
    ifg, restored = pickle.loads(pickle.dumps((analyzed.ifg, problem)))
    assert (set(ifg.solver_cache("plans"))
            == set(analyzed.ifg.solver_cache("plans")))
    planned = solve(ifg, restored, backend="planned")
    reference = solve(ifg, restored, backend="reference")
    assert solutions_equal(planned, reference, ifg.nodes())
    assert _answers(planned, ifg) == _answers(before, analyzed.ifg)


def _answers(solution, ifg):
    """Every ``bits``/``nodes_with`` answer of ``solution``, with nodes
    named by id so that a snapshot's copies compare equal."""
    universe = solution.problem.universe
    answers = []
    for name in SHARED_VARIABLES:
        answers.append([solution.bits(name, node) for node in ifg.nodes()])
        answers.append([[node.id for node in solution.nodes_with(name, e)]
                        for e in universe])
    for timing in Timing:
        for name in TIMED_VARIABLES:
            answers.append([solution.bits(name, node, timing)
                            for node in ifg.nodes()])
            answers.append([[node.id for node
                             in solution.nodes_with(name, e, timing)]
                            for e in universe])
    return answers


@pytest.mark.parametrize("source", [FIG11_SOURCE, FIG3_SOURCE],
                         ids=["fig11", "fig3"])
def test_pickled_solutions_answer_like_the_originals(source):
    """Solutions pickled with their views answer every query after the
    round trip exactly as the originals do."""
    compiled = generate_communication(source)
    restored = pickle.loads(pickle.dumps(compiled))
    solutions = ((compiled.read_solution, restored.read_solution),
                 (compiled.write_solution, restored.write_solution))
    for fresh, copied in solutions:
        assert copied.problem.direction is fresh.problem.direction
        assert copied.view.plan_key == fresh.view.plan_key
        assert ([node.id for node in copied.view.nodes_preorder()]
                == [node.id for node in fresh.view.nodes_preorder()])
        assert (_answers(copied, restored.analyzed.ifg)
                == _answers(fresh, compiled.analyzed.ifg))
