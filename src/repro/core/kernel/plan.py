"""Compile-once solver plans: slot schedules and flattened adjacency.

A :class:`SolverPlan` is everything about one ``(graph, direction)``
pair that the GIVE-N-TAKE equations consult repeatedly but that never
depends on the problem being solved: traversal orders, children,
headers, per-letter neighbor sets, and the static read/dependent
structure between *bundles* (see below).  It is built once per view
shape and cached on the interval flow graph itself
(:func:`plan_for`), so all problems and timings solved on one graph —
the READ solve plus both WRITE solves of
:func:`~repro.commgen.pipeline.prepare_communication` — share one
forward and one backward plan.  Plans are cheap to rebuild and a cache
hit never reads one, so :class:`~repro.batch.cache.PipelineCache`
snapshots leave them out.

Slots
-----
``nodes[slot]`` lists the view's nodes in PREORDER, so *slot order is
schedule order*: the S1/S2 consumption sweep runs slots in descending
order (REVERSEPREORDER), S3/S4 in ascending order.  Every per-node
datum becomes a tuple indexed by slot; every neighbor set becomes a
tuple of slot indices.

Bundles
-------
The S1/S2 sweep's unit of work at node ``n`` is one *bundle*:
Equations 9/10 for each child of ``n`` (in FORWARD order) followed by
Equations 1–8 for ``n`` itself.  ``reads[s]`` is the set of other
bundles whose values bundle ``s`` consumes; ``dependents`` is its
inverse.  ``seeds`` are the bundles with at least one read from a
*lower* slot — the only evaluations the descending sweep order cannot
have made current — and therefore the complete initial worklist of the
sparse backward fixpoint (``docs/scaling.md`` has the argument).
"""

from operator import add

from repro.obs.collector import current_collector


class SolverPlan:
    """The compiled, problem-independent schedule for one view shape.

    Built in one pass over the view's per-letter adjacency (no per-node
    view queries): each edge letter becomes one slot column, and the
    multi-letter neighbor sets are slot-by-slot concatenations of those
    columns in letter order — exactly the order the view's per-node
    ``succs``/``preds`` return."""

    def __init__(self, view):
        obs = current_collector()
        start = obs.clock() if obs.enabled else 0.0
        nodes = view.nodes_preorder()
        slot_of = view.position
        n = len(nodes)

        self.direction = view.direction
        self.key = view.plan_key
        self.nodes = nodes
        self.slot_of = slot_of
        self.n = n
        self.root_slot = root_slot = slot_of[view.root]

        succs, preds = view.letter_adjacency()
        succ = {letter: _slot_column(succs[letter], slot_of, n)
                for letter in "EFJS"}
        pred = {letter: _slot_column(preds[letter], slot_of, n)
                for letter in "FJS"}
        pred[""] = ((),) * n  # a view without synthetic local flow
        self.succs_e = succ["E"]
        self.succs_f = succ["F"]
        self.succs_ef = _joined(succ, "EF")
        self.succs_fj = _joined(succ, "FJ")
        self.succs_fjs = _joined(succ, "FJS")
        self.preds_fj = _joined(pred, "FJ")
        self.preds_loc = _joined(pred, view.loc_pred_letters)
        self.preds_syn = _joined(pred, view.loc_synthetic_letters)
        # LASTCHILD(n) is the source of the CYCLE edge into n, HEADER(n)
        # the source of the ENTRY edge into n (both unique).  Headers,
        # ROOT included, are exactly the nodes with a LASTCHILD.
        self.lastchild = _first_source(preds["C"], slot_of, n)
        self.header = _first_source(preds["E"], slot_of, n)
        self.is_header = tuple(lc >= 0 for lc in self.lastchild)
        steal_all = [False] * n
        for node in view.blocked_headers:
            steal_all[slot_of[node]] = True
        self.steal_all = tuple(steal_all)

        # CHILDREN(h) are the nodes whose innermost enclosing header is
        # h (ROOT for top-level nodes); ascending slots keep them in the
        # view's FORWARD order, which Eqs 9/10 require.
        innermost = view.ifg.forest.innermost
        parent = [-1] * n
        children = {}
        for s, node in enumerate(nodes):
            if s != root_slot:
                header = innermost(node)
                p = root_slot if header is None else slot_of[header]
                parent[s] = p
                children.setdefault(p, []).append(s)
        self.parent = tuple(parent)
        column = [()] * n
        for p, kids in children.items():
            column[p] = tuple(kids)
        self.children = tuple(column)

        self.requires_iteration = view.requires_consumption_iteration
        self.natural_bound = (
            max((view.ifg.level(m) for m, _ in view.ifg.jump_edges()),
                default=0) + 1
            if self.requires_iteration else None
        )

        self._compute_dependencies()

        if obs.enabled:
            obs.event("solver", "plan",
                      direction=self.direction,
                      nodes=n,
                      seeds=len(self.seeds),
                      requires_iteration=self.requires_iteration,
                      natural_bound=self.natural_bound,
                      duration_s=obs.clock() - start)
            obs.count("solver_plans", "compiled")

    def _compute_dependencies(self):
        """Cross-bundle reads, their inverse, and the sweep-order seeds.

        Ownership: Equations 1–8 of node ``x`` belong to bundle ``x``;
        Equations 9/10 of ``x`` (the ``_loc`` chain values) belong to
        bundle ``parent(x)``, which evaluates them.  The read sets below
        enumerate every cross-bundle operand of Figure 13's S1/S2
        equations; same-bundle reads are resolved within one bundle
        evaluation and need no tracking.
        """
        n = self.n
        parent = self.parent
        reads = [set() for _ in range(n)]
        for s in range(n):
            owners = reads[s]
            # Eq 3 (BLOCK_loc of ENTRY succs), Eq 5 (TAKEN_in/TAKE_loc
            # of ENTRY succs), Eq 4 (TAKEN_in of FJS succs), Eq 7
            # (BLOCK_loc of F succs), Eq 8 (TAKE_loc of EF succs):
            # those variables belong to the successor's own bundle.
            owners.update(self.succs_e[s])
            owners.update(self.succs_fjs[s])
            owners.update(self.succs_f[s])
            owners.update(self.succs_ef[s])
            for c in self.children[s]:
                # Eqs 9/10 read GIVE/TAKE/STEAL of the child itself ...
                owners.add(c)
                # ... and the _loc values of its FJ/S predecessors,
                # owned by whichever bundle evaluates them.  (Synthetic
                # predecessors are headers of *inner* loops, so this is
                # genuinely cross-bundle for multi-level jumps.)
                for p in self.preds_loc[c]:
                    if parent[p] >= 0:
                        owners.add(parent[p])
                for p in self.preds_syn[c]:
                    if parent[p] >= 0:
                        owners.add(parent[p])
            owners.discard(s)

        dependents = [[] for _ in range(n)]
        for s, owners in enumerate(reads):
            for d in owners:
                dependents[d].append(s)
        self.reads = tuple(frozenset(owners) for owners in reads)
        self.dependents = tuple(tuple(sorted(deps)) for deps in dependents)
        # Descending, matching the round's evaluation order.
        self.seeds = tuple(sorted(
            (s for s in range(n) if any(d < s for d in reads[s])),
            reverse=True,
        ))


def _slot_column(adjacency, slot_of, n):
    """One letter's neighbor sets as a slot-indexed tuple of slot
    tuples (``()`` for nodes without such edges)."""
    column = [()] * n
    for node, neighbors in adjacency.items():
        column[slot_of[node]] = tuple([slot_of[m] for m in neighbors])
    return tuple(column)


def _first_source(adjacency, slot_of, n):
    """Per slot, the slot of the first predecessor along one letter's
    edges, or -1."""
    column = [-1] * n
    for node, sources in adjacency.items():
        column[slot_of[node]] = slot_of[sources[0]]
    return tuple(column)


def _joined(columns, letters):
    """The neighbor sets over ``letters``: the per-letter columns
    concatenated slot by slot, memoized in ``columns`` (so ``"FJS"``
    extends ``"FJ"``)."""
    joined = columns.get(letters)
    if joined is None:
        joined = columns[letters] = tuple(
            map(add, _joined(columns, letters[:-1]), columns[letters[-1]]))
    return joined


def plan_for(view):
    """The (cached) :class:`SolverPlan` for ``view``.

    Plans are keyed by ``view.plan_key`` and stored on the interval
    flow graph instance, so every view of the same shape — and every
    solve on the same graph — reuses one compiled plan.  Pickling the
    graph (batch cache snapshots) leaves the plans out; an unpickled
    graph compiles them again on first use.
    """
    plans = view.ifg.solver_cache("plans")
    key = view.plan_key
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = SolverPlan(view)
    return plan
