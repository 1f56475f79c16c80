"""Structured tracing, counters, and profiling (``docs/observability.md``).

The subsystem has three layers:

* :mod:`repro.obs.collector` — the collector protocol: a zero-cost
  :class:`NullCollector` default and a recording
  :class:`TraceCollector`, activated with :func:`tracing`;
* :mod:`repro.obs.trace` — JSON payloads, the deterministic
  :func:`stable_form`, human rendering;
* :mod:`repro.obs.profile` / :mod:`repro.obs.bench` — end-to-end
  profiling (``repro profile``, ``--trace``) and the ``BENCH_*.json``
  artifacts;
* :mod:`repro.obs.histogram` — O(1)-memory latency percentiles for the
  long-running compile service (``docs/serving.md``).
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.obs.collector": (
        "NULL",
        "NullCollector",
        "TraceCollector",
        "current_collector",
        "set_collector",
        "tracing",
    ),
    "repro.obs.histogram": ("LatencyHistogram",),
    "repro.obs.profile": (
        "build_profile",
        "format_profile",
        "profile_source",
        "run_satisfies_each_equation_once",
        "summarize",
    ),
    "repro.obs.trace": ("stable_form", "to_json", "trace_payload"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
