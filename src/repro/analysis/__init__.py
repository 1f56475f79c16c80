"""Array reference analysis for communication generation.

The paper's communication instance of GIVE-N-TAKE uses a "value number
based data flow universe" ([Han93]): each universe element is an *array
portion* identified by the value number of its (loop-normalized)
subscript.  This package provides:

* :mod:`repro.analysis.expr` — symbolic affine expressions and ranges
  over loop indices and parameters (``k + 10``, ``1:n``);
* :mod:`repro.analysis.sections` — section descriptors: affine sections
  ``x(11:n+10)``, indirect sections ``x(a(1:n))``, and single points
  ``x(5)``; two textually different references with the same normalized
  descriptor share a value number (``x(a(k))`` ≡ ``x(a(l))``);
* :mod:`repro.analysis.value_numbering` — normalization of AST array
  references against their loop context into section descriptors;
* :mod:`repro.analysis.references` — collection of all array reads and
  definitions of a program, attached to CFG nodes;
* :mod:`repro.analysis.ownership` — the distribution/ownership model
  deciding which references require communication.
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.analysis.expr": ("SymExpr", "SymRange", "NonAffineError"),
    "repro.analysis.sections": (
        "AffineSection",
        "IndirectSection",
        "PointSection",
        "section_conflicts",
    ),
    "repro.analysis.value_numbering": ("ValueNumbering", "LoopContext"),
    "repro.analysis.references": ("ArrayAccess", "collect_accesses"),
    "repro.analysis.ownership": ("OwnershipModel",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
