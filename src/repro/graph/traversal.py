"""Traversal orders (paper §3.4).

The edges of the interval flow graph induce two orthogonal partial orders:

* **vertical**: sources of FORWARD/JUMP (and SYNTHETIC) edges before their
  sinks (FORWARD order) or after (BACKWARD);
* **horizontal**: interval headers before their members (DOWNWARD) or
  after (UPWARD).

PREORDER combines FORWARD and DOWNWARD, POSTORDER combines FORWARD and
UPWARD; the reverse lists give the two BACKWARD combinations.  Both are
computed as topological orders with the CFG's deterministic tie-break, so
the Figure 11 program numbers exactly as in the paper's Figure 12.

Each order is computed once per interval flow graph and cached on it as
a tuple, which :func:`preorder_numbering` and every solver view
(:mod:`repro.graph.views`) share.
"""

import heapq

from repro.util.errors import GraphError


def preorder(ifg):
    """FORWARD + DOWNWARD order, ROOT first (a shared tuple)."""
    return _cached_order(ifg, headers_first=True)


def postorder(ifg):
    """FORWARD + UPWARD order, ROOT last (a shared tuple)."""
    return _cached_order(ifg, headers_first=False)


def _cached_order(ifg, headers_first):
    orders = ifg.__dict__.setdefault("_traversal_orders", {})
    order = orders.get(headers_first)
    if order is None:
        order = orders[headers_first] = tuple(
            _topological_order(ifg, headers_first))
    return order


def preorder_numbering(ifg):
    """Dict real-node -> 1-based PREORDER number (ROOT excluded), matching
    the node numbering style of the paper's Figure 12."""
    numbering = {}
    for node in preorder(ifg):
        if node is not ifg.root:
            numbering[node] = len(numbering) + 1
    return numbering


def _topological_order(ifg, headers_first):
    nodes = ifg.nodes()  # ROOT first, then the CFG's tie-break order
    # A node's rank is its position in ``nodes``: the heap holds bare
    # ranks, and the smallest is the node the tie-break picks.  Ranks
    # live in a list indexed by node id, whose extra last slot ROOT's
    # id -1 selects.
    rank = [0] * (ifg.cfg.id_bound + 1)
    for index, node in enumerate(nodes):
        rank[node.id] = index
    constraints = [[] for _ in nodes]  # by rank
    indegree = [0] * len(nodes)

    def add(before, after):
        constraints[before].append(after)
        indegree[after] += 1

    succs, _ = ifg.letter_adjacency()
    for letter in "FJS":
        for src, dsts in succs[letter].items():
            for dst in dsts:
                add(rank[src.id], rank[dst.id])
    for header in [ifg.root] + ifg.forest.headers():
        for member in ifg.interval(header):
            if headers_first:
                add(rank[header.id], rank[member.id])
            else:
                add(rank[member.id], rank[header.id])

    # Ascending, so already a heap.
    heap = [index for index, count in enumerate(indegree) if count == 0]
    order = []
    while heap:
        index = heapq.heappop(heap)
        order.append(nodes[index])
        for after in constraints[index]:
            indegree[after] -= 1
            if indegree[after] == 0:
                heapq.heappush(heap, after)
    if len(order) != len(nodes):
        stuck = [nodes[index] for index, count in enumerate(indegree)
                 if count > 0]
        raise GraphError(f"cyclic ordering constraints involving {stuck}")
    return order
