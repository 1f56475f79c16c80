"""Cache prefetching via GIVE-N-TAKE (paper §6's suggested application).

A memory load is a *consumer* of its cache line(s); a prefetch is a
production region: the EAGER solution issues ``PREFETCH`` as early as
possible, the LAZY solution marks the latest point the data must have
arrived (the demand access).  Stores to the same region *steal* (the
prefetched line goes stale), and a load itself *gives* the line for
subsequent loads (it is in cache now) — the same give-for-free coupling
as communication generation, with no separate equation system.

This instance exercises the framework's BEFORE/EAGER+LAZY machinery on
a completely different cost model, demonstrating the generality claimed
in §6.
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.prefetch.pipeline": ("PrefetchResult", "generate_prefetches"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
