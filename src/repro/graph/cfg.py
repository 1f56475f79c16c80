"""Control flow graph with deterministic ordering.

Nodes keep an *order position* — a global insertion-order list that later
passes use to break ties so that, e.g., preorder numbering of the Figure 11
program reproduces the paper's Figure 12 numbering exactly.  Normalization
passes that insert nodes (latches, landing pads) choose where in that list
the new node sits.
"""

from enum import Enum

from repro.util.errors import GraphError


class NodeKind(Enum):
    """What a CFG node represents."""

    ENTRY = "entry"          # unique program entry
    EXIT = "exit"            # unique program exit
    ROOT = "root"            # virtual header of the whole program (level 0)
    STMT = "stmt"            # a single executable statement
    HEADER = "header"        # loop header (the `do` statement itself)
    LABEL = "label"          # carrier for a goto-targeted label
    LATCH = "latch"          # synthesized unique back-edge source
    BODY_ENTRY = "body_entry"  # synthesized unique loop-body entry
    SYNTH = "synth"          # synthesized critical-edge split node


_SYNTHETIC_KINDS = {NodeKind.LATCH, NodeKind.BODY_ENTRY, NodeKind.SYNTH}


class Node:
    """One flow-graph node, equal only to itself and hashed by ``id``.

    ``stmt`` is the AST statement the node represents (None for synthetic
    nodes), ``name`` a short human-readable tag used by the dot exporter
    and error messages.
    """

    def __init__(self, id, kind, stmt=None, name=""):
        self.id = id
        self.kind = kind
        self.stmt = stmt
        self.name = name

    @property
    def synthetic(self):
        """True for nodes inserted by normalization (paper §3.3: code
        placed here needs a new basic block at code-generation time)."""
        return self.kind in _SYNTHETIC_KINDS

    def __repr__(self):
        tag = self.name or self.kind.value
        return f"<Node {self.id} {tag}>"

    def __hash__(self):
        return self.id

    def __eq__(self, other):
        return self is other


class ControlFlowGraph:
    """A directed graph over :class:`Node` with ordered adjacency.

    Successor/predecessor lists preserve edge insertion order: a
    node's neighbors are the keys of a plain dict of node ids, so edge
    edits and neighbor queries make no Python-level call.
    ``order_index`` gives the deterministic tie-break position of each
    node.  The graph has a unique ``entry`` and (after building) a
    unique ``exit``.
    """

    def __init__(self):
        self._nodes = {}
        self._succs = {}
        self._preds = {}
        self._order = []      # node ids in tie-break order
        self._next_id = 0
        self._entry = None
        self._exit = None
        self._version = 0
        self._memo = {}       # analysis key -> value, for _memo_version
        self._memo_version = 0

    # -- structural version and analysis memos ---------------------------------

    @property
    def version(self):
        """Bumped by every structural change (see the module docstring)."""
        return self._version

    @property
    def entry(self):
        return self._entry

    @entry.setter
    def entry(self, node):
        self._entry = node
        self._version += 1

    @property
    def exit(self):
        return self._exit

    @exit.setter
    def exit(self, node):
        self._exit = node
        self._version += 1

    def _current_memo(self):
        if self._memo_version != self._version:
            self._memo = {}
            self._memo_version = self._version
        return self._memo

    def analysis(self, key, compute):
        """Analysis ``key`` of the current version: ``compute(self)`` on
        the first request after a structural change, the same object on
        every later one."""
        memo = self._current_memo()
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute(self)
        return value

    def remember(self, key, value):
        """Memoize ``value`` as analysis ``key`` of the current version —
        for a pass that kept an analysis up to date with its own edits."""
        self._current_memo()[key] = value

    # -- nodes ---------------------------------------------------------------

    def new_node(self, kind, stmt=None, name="", order_after=None, order_before=None):
        """Create a node.

        ``order_after``/``order_before`` position the node in the global
        tie-break order relative to an existing node; by default the node
        goes to the end.
        """
        node = Node(self._next_id, kind, stmt, name)
        self._next_id += 1
        self._nodes[node.id] = node
        self._succs[node.id] = {}
        self._preds[node.id] = {}
        if order_after is not None:
            index = self._order.index(order_after.id) + 1
            self._order.insert(index, node.id)
        elif order_before is not None:
            index = self._order.index(order_before.id)
            self._order.insert(index, node.id)
        else:
            self._order.append(node.id)
        self._version += 1
        return node

    @property
    def id_bound(self):
        """One past the largest node id handed out so far: every node's
        id lies in ``range(id_bound)``, so a pass can keep per-node state
        in a list indexed by id (a removed node leaves its slot unused)
        instead of a dict keyed by :class:`Node`, whose ``__hash__`` runs
        in Python."""
        return self._next_id

    def nodes(self):
        """All nodes in tie-break order."""
        return [self._nodes[node_id] for node_id in self._order]

    def __len__(self):
        return len(self._nodes)

    def __contains__(self, node):
        return isinstance(node, Node) and self._nodes.get(node.id) is node

    def order_index(self, node):
        """Position of ``node`` in the deterministic tie-break order."""
        return self.order_map()[node]

    def order_map(self):
        """Dict node -> tie-break position, shared per version (do not
        mutate it)."""
        return self.analysis("order", _order_map)

    # -- edges ---------------------------------------------------------------

    def add_edge(self, src, dst):
        if src not in self or dst not in self:
            raise GraphError(f"edge ({src}, {dst}) references a foreign node")
        self._succs[src.id][dst.id] = None
        self._preds[dst.id][src.id] = None
        self._version += 1

    def remove_edge(self, src, dst):
        if dst.id not in self._succs[src.id]:
            raise GraphError(f"edge ({src}, {dst}) does not exist")
        del self._succs[src.id][dst.id]
        del self._preds[dst.id][src.id]
        self._version += 1

    def has_edge(self, src, dst):
        return dst.id in self._succs[src.id]

    def succs(self, node):
        return [self._nodes[node_id] for node_id in self._succs[node.id]]

    def preds(self, node):
        return [self._nodes[node_id] for node_id in self._preds[node.id]]

    def out_degree(self, node):
        return len(self._succs[node.id])

    def in_degree(self, node):
        return len(self._preds[node.id])

    def edges(self):
        """All edges (src, dst) in deterministic order."""
        result = []
        for node_id in self._order:
            src = self._nodes[node_id]
            for dst_id in self._succs[node_id]:
                result.append((src, self._nodes[dst_id]))
        return result

    def split_edge(self, src, dst, kind=NodeKind.SYNTH, name="", order_after=None,
                   order_before=None):
        """Replace edge (src, dst) by (src, new) and (new, dst).

        Returns the inserted node.  The caller controls the tie-break
        position; by default the node sits just before ``dst``.
        """
        if order_after is None and order_before is None:
            order_before = dst
        node = self.new_node(kind, name=name, order_after=order_after,
                             order_before=order_before)
        self.remove_edge(src, dst)
        self.add_edge(src, node)
        self.add_edge(node, dst)
        return node

    # -- reachability ----------------------------------------------------------

    def reachable_from_entry(self):
        """The nodes reachable from ``entry``, in tie-break order."""
        if self.entry is None:
            raise GraphError("graph has no entry node")
        seen = [False] * self._next_id  # by node id
        seen[self.entry.id] = True
        stack = [self.entry.id]
        succs = self._succs
        while stack:
            for succ_id in succs[stack.pop()]:
                if not seen[succ_id]:
                    seen[succ_id] = True
                    stack.append(succ_id)
        nodes = self._nodes
        return [nodes[node_id] for node_id in self._order if seen[node_id]]

    def remove_node(self, node):
        """Remove ``node`` and all its edges."""
        for succ in list(self.succs(node)):
            self.remove_edge(node, succ)
        for pred in list(self.preds(node)):
            self.remove_edge(pred, node)
        del self._nodes[node.id]
        del self._succs[node.id]
        del self._preds[node.id]
        self._order.remove(node.id)
        self._version += 1


def _order_map(cfg):
    nodes = cfg._nodes
    return {nodes[node_id]: index for index, node_id in enumerate(cfg._order)}
