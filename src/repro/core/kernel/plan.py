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
forward and one backward plan, and the plans travel with the graph
through :class:`~repro.batch.cache.PipelineCache` snapshots.

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

from repro.obs.collector import current_collector


class SolverPlan:
    """The compiled, problem-independent schedule for one view shape."""

    def __init__(self, view):
        nodes = tuple(view.nodes_preorder())
        slot_of = {node: index for index, node in enumerate(nodes)}
        n = len(nodes)

        def slots(sequence):
            return tuple(slot_of[node] for node in sequence)

        self.direction = view.direction
        self.key = view.plan_key
        self.nodes = nodes
        self.slot_of = slot_of
        self.n = n
        self.root_slot = slot_of[view.root]

        self.children = tuple(slots(view.children(node)) for node in nodes)
        parent = [-1] * n
        for s, kids in enumerate(self.children):
            for c in kids:
                parent[c] = s
        self.parent = tuple(parent)

        def optional_slot(node):
            return -1 if node is None else slot_of[node]

        self.lastchild = tuple(optional_slot(view.lastchild(node))
                               for node in nodes)
        self.header = tuple(optional_slot(view.header_of(node))
                            for node in nodes)
        self.is_header = tuple(view.is_header(node) for node in nodes)
        self.steal_all = tuple(view.steal_all(node) for node in nodes)

        self.succs_e = tuple(slots(view.succs(node, "E")) for node in nodes)
        self.succs_f = tuple(slots(view.succs(node, "F")) for node in nodes)
        self.succs_ef = tuple(slots(view.succs(node, "EF")) for node in nodes)
        self.succs_fj = tuple(slots(view.succs(node, "FJ")) for node in nodes)
        self.succs_fjs = tuple(slots(view.succs(node, "FJS"))
                               for node in nodes)
        self.preds_fj = tuple(slots(view.preds(node, "FJ")) for node in nodes)
        self.preds_loc = tuple(slots(view.preds(node, view.loc_pred_letters))
                               for node in nodes)
        self.preds_syn = tuple(
            slots(view.preds(node, view.loc_synthetic_letters))
            if view.loc_synthetic_letters else ()
            for node in nodes
        )

        self.requires_iteration = view.requires_consumption_iteration
        self.natural_bound = (
            max((view.ifg.level(m) for m, _ in view.ifg.jump_edges()),
                default=0) + 1
            if self.requires_iteration else None
        )

        self._compute_dependencies()

        obs = current_collector()
        if obs.enabled:
            obs.event("solver", "plan",
                      direction=self.direction,
                      nodes=n,
                      seeds=len(self.seeds),
                      requires_iteration=self.requires_iteration,
                      natural_bound=self.natural_bound)
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


def plan_for(view):
    """The (cached) :class:`SolverPlan` for ``view``.

    Plans are keyed by ``view.plan_key`` and stored on the interval
    flow graph instance, so every view of the same shape — and every
    solve on the same graph — reuses one compiled plan, and pickling
    the graph (batch cache snapshots) carries the plans along.
    """
    ifg = view.ifg
    plans = ifg.__dict__.get("_solver_plans")
    if plans is None:
        plans = ifg.__dict__["_solver_plans"] = {}
    key = view.plan_key
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = SolverPlan(view)
    return plan
