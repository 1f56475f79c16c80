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

from repro.commgen.problems import build_read_problem, build_write_problem
from repro.commgen.annotate import Annotator
from repro.commgen.pipeline import CommunicationResult, generate_communication
from repro.commgen.naive import naive_communication
from repro.commgen.hardened import (
    DegradationReport,
    HardenedPipeline,
    HardenedResult,
    ResourceBudget,
    RungAttempt,
)

__all__ = [
    "build_read_problem",
    "build_write_problem",
    "Annotator",
    "CommunicationResult",
    "generate_communication",
    "naive_communication",
    "DegradationReport",
    "HardenedPipeline",
    "HardenedResult",
    "ResourceBudget",
    "RungAttempt",
]
