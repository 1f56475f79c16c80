"""Bounded execution-path enumeration, and the walk a replay takes.

The checker validates placements by *replaying* them along actual control
flow paths.  :func:`enumerate_paths` yields entry→exit node sequences over
the real CFG edges, visiting each node at most ``max_node_visits`` times
per path (so every loop is exercised with 0, 1, … trips) and yielding at
most ``max_paths`` paths.  :func:`production_walk` takes one of them in a
problem's flow direction and says where along it placed productions fire
— the trigger rules the path-replay checker, region extraction and the
PRE path cost (:func:`repro.pre.gnt_pre.evaluations_on_path`) share.

Paths are deterministic: successors are explored in edge insertion order.
"""

from repro.core.placement import Position
from repro.core.problem import Direction
from repro.graph.interval_graph import EdgeType

#: The view edges exit productions (Eq 15) live on; the real edge types
#: are self-dual under reversal.
_EXIT_EDGES = (EdgeType.FORWARD, EdgeType.JUMP)


def enumerate_paths(ifg, max_paths=200, max_node_visits=3, min_trips=0):
    """List of entry→exit paths (each a list of nodes) of ``ifg``'s CFG.

    ``min_trips=1`` restricts to paths on which every loop that is
    *entered* executes its body at least once — the paths on which the
    paper's loop-parametric availability claims are exact (a zero-trip
    loop's sections are empty, see DESIGN.md).
    """
    cfg = ifg.cfg
    forest = ifg.forest
    paths = []
    counts = {node: 0 for node in cfg.nodes()}
    path = [cfg.entry]
    counts[cfg.entry] = 1

    def allowed_succs(node, arrived_externally):
        succs = cfg.succs(node)
        if min_trips and forest.is_header(node) and arrived_externally:
            # Fresh loop entry: force at least one trip through the body.
            return [s for s in succs if forest.contains(node, s)]
        return succs

    def explore(node):
        if len(paths) >= max_paths:
            return
        if node is cfg.exit:
            paths.append(list(path))
            return
        previous = path[-2] if len(path) > 1 else None
        arrived_externally = previous is None or not forest.contains(node, previous)
        for succ in allowed_succs(node, arrived_externally):
            if counts[succ] >= max_node_visits:
                continue
            counts[succ] += 1
            path.append(succ)
            explore(succ)
            path.pop()
            counts[succ] -= 1

    explore(cfg.entry)
    return paths


def production_walk(ifg, path, direction):
    """Walk an entry→exit ``path`` in the flow direction of a
    ``direction`` problem, yielding ``(node, on_arrival, on_departure)``
    per step: the program position (:class:`~repro.core.placement.Position`)
    whose productions fire on arriving at and on leaving ``node``, or None.

    The walk is the view's: an AFTER problem walks the path backward,
    arriving at a node's AFTER position and leaving from its BEFORE one.
    Arrival productions fire except along a view CYCLE edge (a loop's
    back edge: header-entry productions live in the preheader position);
    departure productions fire only along a view FORWARD or JUMP edge.
    """
    if direction is Direction.AFTER:
        steps = path[::-1]
        arrive, depart = Position.AFTER, Position.BEFORE
        cycle = EdgeType.ENTRY  # reversal maps ENTRY -> CYCLE

        def edge_type(node, succ):
            return ifg.edge_type(succ, node)
    else:
        steps = path
        arrive, depart = Position.BEFORE, Position.AFTER
        cycle = EdgeType.CYCLE
        edge_type = ifg.edge_type
    on_arrival = arrive
    for node, succ in zip(steps, steps[1:]):
        edge = edge_type(node, succ)
        yield node, on_arrival, depart if edge in _EXIT_EDGES else None
        on_arrival = None if edge is cycle else arrive
    yield steps[-1], on_arrival, None
