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

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.core.lattice": ("Universe",),
    "repro.core.problem": ("Direction", "Timing", "Problem"),
    "repro.core.solution": ("Solution",),
    "repro.core.solver": ("solve", "GiveNTakeSolver"),
    "repro.core.placement": ("Placement", "Production"),
    "repro.core.paths": ("enumerate_paths",),
    "repro.core.checker": ("check_placement", "CheckReport", "Violation"),
    "repro.core.postpass": ("shift_synthetic_productions",),
    "repro.core.pressure": ("limit_production_span", "measure_spans"),
    "repro.core.regions": ("Region", "extract_regions", "region_summary"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
