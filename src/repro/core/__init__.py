"""The GIVE-N-TAKE framework itself (paper §3–§5).

* :mod:`repro.core.lattice` — the dataflow universe (interned elements,
  bitset sets).
* :mod:`repro.core.problem` — problem description: direction
  (BEFORE/AFTER), initial variables ``TAKE_init`` / ``STEAL_init`` /
  ``GIVE_init``, zero-trip hoisting control.
* :mod:`repro.core.equations` — the fifteen dataflow equations.
* :mod:`repro.core.sweep` — algorithm *GiveNTake* (Figure 15): four
  passes, each equation evaluated exactly once per node — the one
  driver of the reference kernel (:mod:`repro.core.solver`, with
  :func:`~repro.core.solver.solve`) and the planned kernel
  (:mod:`repro.core.kernel`), which both write the one
  :class:`~repro.core.solution.Solution` store.
* :mod:`repro.core.placement` — EAGER/LAZY production placements in
  program positions.
* :mod:`repro.core.checker` — ground-truth validation of the
  correctness criteria C1 (balance), C2 (safety), C3 (sufficiency) and
  optimality O1 over every execution path; :mod:`repro.core.paths`
  enumerates bounded paths and walks them for its path-replay test
  oracle and for region extraction.
* :mod:`repro.core.postpass` — shifting production off synthetic nodes
  (§5.4).
"""

from repro.core.lattice import Universe
from repro.core.problem import Direction, Timing, Problem
from repro.core.solution import Solution
from repro.core.solver import solve, GiveNTakeSolver
from repro.core.placement import Placement, Production
from repro.core.paths import enumerate_paths
from repro.core.checker import check_placement, CheckReport, Violation
from repro.core.postpass import shift_synthetic_productions
from repro.core.pressure import limit_production_span, measure_spans
from repro.core.regions import Region, extract_regions, region_summary

__all__ = [
    "Universe",
    "Direction",
    "Timing",
    "Problem",
    "Solution",
    "solve",
    "GiveNTakeSolver",
    "Placement",
    "Production",
    "enumerate_paths",
    "check_placement",
    "CheckReport",
    "Violation",
    "shift_synthetic_productions",
    "limit_production_span",
    "measure_spans",
    "Region",
    "extract_regions",
    "region_summary",
]
