"""Lazy Code Motion (Knoop, Rüthing, Steffen, PLDI '92).

The edge-based formulation as presented by Drechsler/Stadel and
Muchnick, run over the real edges of our (critical-edge-free) CFG:

* down-safety:    ANTIN/ANTOUT   (backward, intersection)
* availability:   AVIN/AVOUT     (forward, intersection)
* earliestness:   EARLIEST(i,j) = ANTIN(j) ∩ ¬AVOUT(i)
                                 ∩ (KILL(i) ∪ ¬ANTOUT(i))
* deferral:       LATER/LATERIN  (forward)
* placement:      INSERT(i,j) = LATER(i,j) ∩ ¬LATERIN(j)
                  DELETE(k)   = USED(k) ∩ ¬LATERIN(k)

Because the graph has no critical edges, every edge insertion projects
onto a node: the head when it has a single predecessor, else the tail
(which then has a single successor).

Unlike GIVE-N-TAKE, LCM is an *atomic* placement framework (single
insertion points, no production regions), it has no notion of side
effects (gives), and its safety discipline never hoists out of a
potentially zero-trip loop.
"""

class LCMResult:
    """Insertions and deletions computed by LCM."""

    def __init__(self, universe, insert_edges, insert_nodes, delete_nodes,
                 variables):
        self.universe = universe
        self.insert_edges = insert_edges  # {(src, dst): bits}
        self.insert_nodes = insert_nodes  # {node: bits} (projected)
        self.delete_nodes = delete_nodes  # {node: bits}
        self.variables = variables        # name -> {node: bits}

    def insertion_count(self):
        return sum(
            bin(bits).count("1") for bits in self.insert_edges.values()
        )

    def node_insertions_for(self, element):
        bit = self.universe.bit(element)
        return [node for node, bits in self.insert_nodes.items() if bits & bit]


def lazy_code_motion(ifg, problem):
    """Run LCM for ``problem`` (take=use, steal=kill) on ``ifg``'s CFG."""
    cfg = ifg.cfg
    universe = problem.universe
    nodes = cfg.nodes()
    top = universe.top

    used = {n: problem.take_init(n) for n in nodes}
    kill = {n: problem.steal_init(n) for n in nodes}
    # Node granularity: a use precedes a kill in the same node, so the
    # expression is computed but not available at the node's exit.
    comp = {n: used[n] & ~kill[n] for n in nodes}

    # -- down-safety (anticipability), backward ---------------------------
    antin = {n: 0 for n in nodes}
    antout = {n: 0 for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in reversed(nodes):
            succs = cfg.succs(n)
            new_out = _meet(antin[s] for s in succs) if succs else 0
            new_in = used[n] | (new_out & ~kill[n])
            if new_out != antout[n] or new_in != antin[n]:
                antout[n], antin[n] = new_out, new_in
                changed = True

    # -- availability, forward ---------------------------------------------
    avin = {n: 0 for n in nodes}
    avout = {n: top for n in nodes}
    avout[cfg.entry] = comp[cfg.entry]
    changed = True
    while changed:
        changed = False
        for n in nodes:
            preds = cfg.preds(n)
            new_in = _meet(avout[p] for p in preds) if preds else 0
            new_out = (new_in | comp[n]) & ~kill[n]
            if new_in != avin[n] or new_out != avout[n]:
                avin[n], avout[n] = new_in, new_out
                changed = True

    # -- earliestness per edge (Drechsler-Stadel form) ------------------------
    # A pseudo edge (START, entry) lets expressions that are down-safe at
    # the program entry be inserted there.
    START = None
    edges = [(START, cfg.entry)] + cfg.edges()
    earliest = {}
    for i, j in edges:
        if i is START:
            earliest[(i, j)] = antin[j]
        else:
            earliest[(i, j)] = antin[j] & ~avout[i] & (kill[i] | ~antin[i])

    # -- deferral (later), forward ----------------------------------------------
    laterin = {n: top for n in nodes}
    later = {edge: top for edge in edges}
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            if i is START:
                new_later = earliest[(i, j)]
            else:
                new_later = earliest[(i, j)] | (laterin[i] & ~used[i])
            if new_later != later[(i, j)]:
                later[(i, j)] = new_later
                changed = True
        for n in nodes:
            incoming = [(p, n) for p in cfg.preds(n)]
            if n is cfg.entry:
                incoming.append((START, n))
            new_in = _meet(later[edge] for edge in incoming) if incoming else 0
            if new_in != laterin[n]:
                laterin[n] = new_in
                changed = True

    # -- insert / delete ------------------------------------------------------
    insert_edges = {}
    for edge in edges:
        bits = later[edge] & ~laterin[edge[1]]
        if bits:
            insert_edges[edge] = bits
    delete_nodes = {}
    for n in nodes:
        deletable = used[n] & ~laterin[n]
        if deletable:
            delete_nodes[n] = deletable

    insert_nodes = {}
    for (i, j), bits in insert_edges.items():
        if i is None or len(cfg.preds(j)) == 1:
            target = j
        else:
            target = i
        insert_nodes[target] = insert_nodes.get(target, 0) | bits

    variables = {
        "ANTIN": antin, "ANTOUT": antout,
        "AVIN": avin, "AVOUT": avout,
        "LATERIN": laterin,
    }
    return LCMResult(universe, insert_edges, insert_nodes, delete_nodes,
                     variables)


def _meet(values):
    result = None
    for value in values:
        result = value if result is None else (result & value)
    return 0 if result is None else result
