"""Classical partial redundancy elimination baselines.

GIVE-N-TAKE generalizes PRE (a LAZY, BEFORE problem); these are the
frameworks the paper positions itself against:

* :mod:`repro.pre.morel_renvoise` — the original bidirectional MR79
  system;
* :mod:`repro.pre.lazy_code_motion` — Knoop/Rüthing/Steffen LCM (KRS92),
  edge-based, on our critical-edge-free graphs;
* :mod:`repro.pre.gnt_pre` — the same instances solved by GIVE-N-TAKE,
  for head-to-head comparison (insertions, evaluations per path,
  zero-trip hoisting, side-effect exploitation);
* :mod:`repro.pre.expressions` — building PRE instances (used/killed
  expression sets) from mini-Fortran programs for common-subexpression
  elimination.

Both baselines consume the same :class:`repro.core.problem.Problem`
shape: ``take_init`` = locally anticipated use, ``steal_init`` = kill.
``give_init`` has no classical counterpart — exploiting side effects
without separate equation systems is one of the paper's contributions —
so the baselines ignore it.
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.pre.lazy_code_motion": ("LCMResult", "lazy_code_motion"),
    "repro.pre.morel_renvoise": ("MorelRenvoiseResult", "morel_renvoise"),
    "repro.pre.gnt_pre": ("gnt_pre_placement",),
    "repro.pre.expressions": ("build_cse_problem",),
    "repro.pre.transform": (
        "CSEResult",
        "eliminate_common_subexpressions",
        "eliminate_with_lcm",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
