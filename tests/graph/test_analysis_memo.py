"""Per-version analysis memos of the control flow graph.

Dominators, retreating edges, the loop forest and order positions are
memoized per structural version of a :class:`ControlFlowGraph`; every
mutation must invalidate them, a pass that keeps one current through
its own edits must hand on what a fresh build would give, and a compile
must share them between passes.
"""

import copy
import pickle

import pytest

from repro.batch.driver import compile_one
from repro.graph import intervals, traversal
from repro.graph.builder import build_cfg
from repro.graph.cfg import ControlFlowGraph, NodeKind
from repro.graph.interval_graph import IntervalFlowGraph
from repro.graph.intervals import (
    LoopForest,
    check_reducible,
    compute_dominators,
    dominators,
    find_retreating_edges,
    loop_forest,
    retreating_edges,
)
from repro.graph.normalize import (
    ensure_unique_latch,
    normalize,
    prune_unreachable,
)
from repro.lang.parser import parse
from repro.lang.printer import format_program
from repro.testing.generator import ArrayProgramGenerator
from repro.testing.programs import FIG11_SOURCE
from repro.util.errors import GraphError
from tests.integration.test_corpus_digests import corpus_sources

LOOP_WITH_BRANCH = (
    "do i = 1, n\n"
    "    if t then\n"
    "        x = 1\n"
    "    else\n"
    "        y = 2\n"
    "    endif\n"
    "enddo\n"
    "z = 3\n"
)


def loop_graph():
    """entry → h ⇄ (a | b) → h → exit, plus the nodes by name."""
    cfg = ControlFlowGraph()
    names = ("entry", "h", "a", "b", "exit")
    kinds = (NodeKind.ENTRY, NodeKind.HEADER, NodeKind.STMT, NodeKind.STMT,
             NodeKind.EXIT)
    n = {name: cfg.new_node(kind, name=name)
         for name, kind in zip(names, kinds)}
    for src, dst in (("entry", "h"), ("h", "a"), ("h", "b"), ("a", "h"),
                     ("b", "h"), ("h", "exit")):
        cfg.add_edge(n[src], n[dst])
    cfg.entry, cfg.exit = n["entry"], n["exit"]
    return cfg, n


def outcome(function, cfg):
    """A comparable result of ``function(cfg)``, keyed by node ids."""
    try:
        value = function(cfg)
    except GraphError as error:
        return type(error).__name__
    if isinstance(value, LoopForest):
        return (
            [h.id for h in value.headers()],
            {h.id: [m.id for m in value.members(h)]
             for h in value.headers()},
            sorted((u.id, v.id) for u, v in value.back_edges()),
            {node.id: value.level(node) for node in cfg.nodes()},
            {node.id: getattr(value.innermost(node), "id", None)
             for node in cfg.nodes()},
        )
    if isinstance(value, dict):
        return {key.id: item.id if hasattr(item, "id") else item
                for key, item in value.items()}
    if isinstance(value, list):  # edges, compared in any order
        return sorted((u.id, v.id) for u, v in value)
    return value


def assert_memos_fresh(cfg):
    """The memoized analyses of ``cfg`` equal those built from scratch
    on a deep copy whose memos are dropped."""
    fresh = copy.deepcopy(cfg)
    fresh._memo.clear()
    assert outcome(dominators, cfg) == outcome(compute_dominators, fresh)
    assert (outcome(retreating_edges, cfg)
            == outcome(find_retreating_edges, fresh))
    assert outcome(loop_forest, cfg) == outcome(LoopForest, fresh)
    assert outcome(lambda g: {n: g.order_index(n) for n in g.nodes()},
                   cfg) == {n.id: i for i, n in enumerate(fresh.nodes())}


def prime(cfg):
    dominators(cfg)
    retreating_edges(cfg)
    loop_forest(cfg)
    cfg.order_map()


MUTATIONS = {
    "add_edge": lambda cfg, n: cfg.add_edge(n["a"], n["exit"]),
    "remove_edge": lambda cfg, n: cfg.remove_edge(n["a"], n["h"]),
    "split_edge": lambda cfg, n: cfg.split_edge(n["b"], n["h"]),
    "new_node_order_after": lambda cfg, n: cfg.new_node(
        NodeKind.STMT, order_after=n["a"]),
    "new_node_order_before": lambda cfg, n: cfg.new_node(
        NodeKind.STMT, order_before=n["a"]),
    "remove_node": lambda cfg, n: cfg.remove_node(n["b"]),
    "entry": lambda cfg, n: setattr(cfg, "entry", n["h"]),
    "exit": lambda cfg, n: setattr(cfg, "exit", n["a"]),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_mutation_invalidates_the_memos(mutation):
    cfg, n = loop_graph()
    prime(cfg)
    version = cfg.version
    MUTATIONS[mutation](cfg, n)
    assert cfg.version > version
    assert_memos_fresh(cfg)


def test_new_node_made_reachable_gets_fresh_positions_and_dominators():
    cfg, n = loop_graph()
    prime(cfg)
    middle = cfg.new_node(NodeKind.STMT, order_before=n["b"])
    cfg.remove_edge(n["h"], n["b"])
    cfg.add_edge(n["h"], middle)
    cfg.add_edge(middle, n["b"])
    assert cfg.order_index(middle) == cfg.order_index(n["b"]) - 1
    assert dominators(cfg)[n["b"]] is middle
    assert_memos_fresh(cfg)


def test_an_unchanged_graph_shares_one_analysis():
    cfg, _ = loop_graph()
    assert dominators(cfg) is dominators(cfg)
    assert loop_forest(cfg) is loop_forest(cfg)
    assert cfg.order_map() is cfg.order_map()


def test_memos_round_trip_through_pickles():
    cfg, _ = loop_graph()
    prime(cfg)
    restored = pickle.loads(pickle.dumps(cfg))
    assert restored.version == cfg.version
    for analysis in (dominators, loop_forest):
        assert outcome(analysis, restored) == outcome(analysis, cfg)
    assert_memos_fresh(restored)
    restored.add_edge(restored.nodes()[2], restored.exit)
    assert_memos_fresh(restored)


def test_latch_pass_keeps_the_dominator_tree_current():
    cfg = build_cfg(parse(LOOP_WITH_BRANCH))
    prune_unreachable(cfg)
    check_reducible(cfg)
    size = len(cfg)
    ensure_unique_latch(cfg)
    assert len(cfg) == size + 1  # one latch merged the two back edges
    assert_memos_fresh(cfg)


@pytest.mark.parametrize("seed", range(6))
def test_latch_pass_dominators_match_a_fresh_tree_on_generated_programs(seed):
    program = ArrayProgramGenerator(seed=seed, goto_probability=0.3).program(
        size=30)
    cfg = build_cfg(program)
    prune_unreachable(cfg)
    check_reducible(cfg)
    ensure_unique_latch(cfg)
    assert_memos_fresh(cfg)
    normalize(cfg)
    assert_memos_fresh(cfg)


def test_normalize_hands_on_fresh_analyses_over_the_digest_corpora():
    """On the 96 programs whose outputs the corpus digests pin, the
    dominator tree and retreating edges that the latch and critical-edge
    passes kept current equal fresh ones, and so does the final forest."""
    edited = 0
    for _, _, text in corpus_sources():
        cfg = build_cfg(parse(text))
        size = len(cfg)
        normalize(cfg)
        edited += len(cfg) > size
        assert_memos_fresh(cfg)
    assert edited > 48


@pytest.fixture
def builds(monkeypatch):
    """Counts of dominator trees, retreating-edge DFS passes, loop
    forests and topological orders built while the fixture is active."""
    counts = {"dominators": 0, "retreating": 0, "forests": 0, "orders": 0}

    def counting(key, function):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(intervals, "compute_dominators",
                        counting("dominators", intervals.compute_dominators))
    monkeypatch.setattr(intervals, "find_retreating_edges",
                        counting("retreating",
                                 intervals.find_retreating_edges))
    monkeypatch.setattr(LoopForest, "__init__",
                        counting("forests", LoopForest.__init__))
    monkeypatch.setattr(traversal, "_topological_order",
                        counting("orders", traversal._topological_order))
    return counts


def jumpy_programs(count=6):
    """The first ``count`` generated programs with a jump."""
    generator = ArrayProgramGenerator(seed=301, goto_probability=0.3)
    programs = []
    while len(programs) < count:
        source = format_program(generator.program(size=30))
        if "goto" in source:
            programs.append(source)
    return programs


@pytest.mark.parametrize("index", range(-1, 6))
def test_a_compile_builds_one_dominator_tree_and_one_dfs(builds, index):
    source = FIG11_SOURCE if index < 0 else jumpy_programs()[index]
    for key in builds:
        builds[key] = 0
    compiled = compile_one("program", source)
    assert compiled.ok, compiled.error
    assert builds["dominators"] <= 1, builds
    assert builds["retreating"] <= 1, builds
    assert builds["forests"] <= 2, builds
    assert builds["orders"] <= 2, builds


def test_the_counted_jumpy_programs_have_jumps_and_latches():
    """The counting test covers graphs the latch pass edits."""
    edited = 0
    for source in jumpy_programs():
        cfg = build_cfg(parse(source))
        prune_unreachable(cfg)
        size = len(cfg)
        ensure_unique_latch(cfg)
        edited += len(cfg) > size
    assert edited > 0


def test_interval_graph_revalidates_a_graph_edited_after_normalize():
    cfg = build_cfg(parse(FIG11_SOURCE))
    normalize(cfg)
    IntervalFlowGraph(cfg)
    branch = next(n for n in cfg.nodes() if len(cfg.succs(n)) > 1)
    join = next(n for n in cfg.nodes()
                if len(cfg.preds(n)) > 1 and not cfg.has_edge(branch, n)
                and n is not branch)
    cfg.add_edge(branch, join)  # a critical edge
    with pytest.raises(GraphError, match="critical edge"):
        IntervalFlowGraph(cfg)
