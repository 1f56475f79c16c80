"""Register promotion via GIVE-N-TAKE (paper §1, §6).

The paper's opening criticism of classical PRE: load and store placement
traditionally need "different, but interdependent sets of equations"
([Dha88b]).  GIVE-N-TAKE handles both with one system:

* **loads** are a BEFORE problem — a use of ``x(5)`` consumes the value;
  the EAGER solution is where the ``LOAD`` happens (hoisted out of loops
  and branches), availability ends at a conflicting store;
* **stores** are an AFTER problem — a definition of ``x(5)`` must reach
  memory; the LAZY solution keeps the value in the register, the EAGER
  solution is the latest point the ``STORE`` writes it back (sunk out of
  loops);
* a definition *gives* the value for subsequent loads (the register
  holds it) — the same give-for-free coupling as communication.

The result is classic scalar replacement: memory traffic inside loops
collapses to one load before and one store after.
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.regpromo.pipeline": ("RegisterPromotionResult", "promote_registers"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
