"""Communication generation for distributed arrays (paper §2, §3.1).

The pipeline compiles a mini-Fortran program with ``distribute``
directives into the same program annotated with vectorized, balanced,
latency-hiding communication:

* READs are a BEFORE problem — ``READ_Send`` is the EAGER solution,
  ``READ_Recv`` the LAZY solution;
* WRITEs are an AFTER problem — ``WRITE_Send`` is the LAZY solution,
  ``WRITE_Recv`` the EAGER solution;
* non-owned definitions produce the data they define "for free" for the
  READ problem (no owner round-trip), without disturbing balance.

Entry points: :func:`repro.commgen.pipeline.generate_communication`
(raises on anything irregular) and
:class:`repro.commgen.hardened.HardenedPipeline` (self-checking, runs
under resource budgets, degrades down a ladder instead of raising — see
``docs/robustness.md``).
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.commgen.problems": ("build_read_problem", "build_write_problem"),
    "repro.commgen.annotate": ("Annotator",),
    "repro.commgen.pipeline": ("CommunicationResult",
                               "generate_communication"),
    "repro.commgen.naive": ("naive_communication",),
    "repro.commgen.hardened": (
        "DegradationReport",
        "HardenedPipeline",
        "HardenedResult",
        "ResourceBudget",
        "RungAttempt",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
