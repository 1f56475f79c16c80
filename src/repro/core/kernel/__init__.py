"""The planned solver backend: compile-once equation schedules.

The reference :class:`~repro.core.solver.GiveNTakeSolver` pays a large
Python constant factor on the paper's O(E) bound: one function call per
equation per node, per-node store lookups, and traversal lists rebuilt
per solve.  This package removes those constants without touching the
algorithm:

* :class:`~repro.core.kernel.plan.SolverPlan` — compiled once per
  ``(interval flow graph, direction)`` and cached on the graph: nodes
  mapped to dense integer *slots* (slot order = the view's PREORDER),
  children/adjacency/headers flattened to tuples of slot indices.
* :class:`~repro.core.kernel.planned.PlannedSolver` — sweeps S1–S4 as
  tight loops over the slot columns of the one solution store
  (:class:`~repro.core.solution.Solution`), under the Figure 15 driver
  both kernels share (:class:`~repro.core.sweep.GiveNTake`).

The planned backend is bit-identical to the reference solver for all
fifteen variables (``tests/core/test_kernel_equivalence.py``); pick it
with ``solve(..., backend="planned")`` — the default — or fall back to
``backend="reference"`` (see ``docs/scaling.md``).
"""

from repro.core.kernel.plan import SolverPlan, plan_for
from repro.core.kernel.planned import PlannedSolver

__all__ = ["SolverPlan", "plan_for", "PlannedSolver"]
