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
    nodes = ifg.nodes()
    constraints = {node: [] for node in nodes}
    indegree = {node: 0 for node in nodes}

    def add(before, after):
        constraints[before].append(after)
        indegree[after] += 1

    for src, dst, _ in ifg.edges("FJS"):
        add(src, dst)
    for node in nodes:
        if not ifg.is_header(node):
            continue
        for member in ifg.interval(node):
            if headers_first:
                add(node, member)
            else:
                add(member, node)

    heap = [(ifg.order_index(node), id(node), node) for node in nodes
            if indegree[node] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, _, node = heapq.heappop(heap)
        order.append(node)
        for succ in constraints[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, (ifg.order_index(succ), id(succ), succ))
    if len(order) != len(nodes):
        stuck = [n for n in nodes if indegree[n] > 0]
        raise GraphError(f"cyclic ordering constraints involving {stuck}")
    return order
