"""Workload builders shared by the test suite, examples, and benchmarks.

* :mod:`repro.testing.programs` — the paper's example programs (Figures
  1, 3, 11) and small canonical shapes, with helpers to look nodes up by
  preorder number or statement text.
* :mod:`repro.testing.graphs` — hand-built CFGs for the criteria figures
  (4–10, 16) that are given as flow graphs rather than programs.
* :mod:`repro.testing.generator` — seeded random structured programs and
  random GIVE-N-TAKE problems over them, used for property-based testing
  and the linear-scaling benchmark.
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.testing.programs": (
        "FIG1_SOURCE",
        "FIG3_SOURCE",
        "FIG11_SOURCE",
        "AnalyzedProgram",
        "analyze_source",
    ),
    "repro.testing.graphs": ("GraphSketch",),
    "repro.testing.generator": (
        "ProgramGenerator",
        "random_analyzed_program",
        "random_problem",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
