"""ControlFlowGraph data structure tests."""

import pytest

from repro.graph.cfg import ControlFlowGraph, NodeKind
from repro.util.errors import GraphError


def chain(n):
    cfg = ControlFlowGraph()
    nodes = [cfg.new_node(NodeKind.STMT, name=f"s{i}") for i in range(n)]
    for a, b in zip(nodes, nodes[1:]):
        cfg.add_edge(a, b)
    cfg.entry, cfg.exit = nodes[0], nodes[-1]
    return cfg, nodes


def test_nodes_in_insertion_order():
    cfg, nodes = chain(4)
    assert cfg.nodes() == nodes


def test_edges_and_adjacency():
    cfg, nodes = chain(3)
    assert cfg.succs(nodes[0]) == [nodes[1]]
    assert cfg.preds(nodes[2]) == [nodes[1]]
    assert cfg.has_edge(nodes[0], nodes[1])
    assert not cfg.has_edge(nodes[1], nodes[0])


def test_remove_edge():
    cfg, nodes = chain(2)
    cfg.remove_edge(nodes[0], nodes[1])
    assert cfg.succs(nodes[0]) == []
    with pytest.raises(GraphError):
        cfg.remove_edge(nodes[0], nodes[1])


def test_split_edge_positions_before_target_by_default():
    cfg, nodes = chain(3)
    synth = cfg.split_edge(nodes[0], nodes[1])
    assert cfg.succs(nodes[0]) == [synth]
    assert cfg.succs(synth) == [nodes[1]]
    assert cfg.order_index(synth) == cfg.order_index(nodes[1]) - 1
    assert synth.synthetic


def test_split_edge_order_after():
    cfg, nodes = chain(3)
    synth = cfg.split_edge(nodes[1], nodes[2], order_after=nodes[1])
    assert cfg.order_index(synth) == cfg.order_index(nodes[1]) + 1


def test_new_node_order_before_and_after():
    cfg, nodes = chain(2)
    middle = cfg.new_node(NodeKind.STMT, order_after=nodes[0])
    assert cfg.nodes()[1] is middle
    front = cfg.new_node(NodeKind.STMT, order_before=nodes[0])
    assert cfg.nodes()[0] is front


def test_reachable_from_entry():
    cfg, nodes = chain(3)
    orphan = cfg.new_node(NodeKind.STMT, name="orphan")
    side = cfg.new_node(NodeKind.STMT, name="side", order_before=nodes[1])
    cfg.add_edge(nodes[2], side)  # found last, ordered second
    reachable = cfg.reachable_from_entry()
    assert orphan not in reachable
    assert all(n in reachable for n in nodes)
    assert reachable == [nodes[0], side, nodes[1], nodes[2]]


def test_remove_node_cleans_edges():
    cfg, nodes = chain(3)
    cfg.remove_node(nodes[1])
    assert cfg.succs(nodes[0]) == []
    assert cfg.preds(nodes[2]) == []
    assert len(cfg) == 2


def test_foreign_edge_rejected():
    cfg1, nodes1 = chain(2)
    cfg2, nodes2 = chain(2)
    with pytest.raises(GraphError):
        cfg1.add_edge(nodes1[0], nodes2[0])


def test_node_identity_semantics():
    cfg, nodes = chain(2)
    assert nodes[0] != nodes[1]
    assert nodes[0] == nodes[0]
    assert len({nodes[0], nodes[0], nodes[1]}) == 2


def test_synthetic_flag_by_kind():
    cfg = ControlFlowGraph()
    stmt = cfg.new_node(NodeKind.STMT)
    latch = cfg.new_node(NodeKind.LATCH)
    synth = cfg.new_node(NodeKind.SYNTH)
    body = cfg.new_node(NodeKind.BODY_ENTRY)
    assert not stmt.synthetic
    assert latch.synthetic and synth.synthetic and body.synthetic


def test_order_map_matches_order_index():
    cfg, nodes = chain(4)
    mapping = cfg.order_map()
    for node in nodes:
        assert mapping[node] == cfg.order_index(node)
