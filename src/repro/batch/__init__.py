"""Batch compilation: many programs, worker pools, a result cache.

The plain pipeline recompiles everything from scratch on every call;
this package makes corpus-scale compilation cheap (``docs/scaling.md``):

* :class:`PipelineCache` — a content-addressed cache of compile
  results (annotated source, placement counts, stable trace);
* :func:`compile_many` / :func:`compile_one` — the drivers that fan a
  corpus across a process pool and merge per-program results, errors,
  cache statistics, traces, and degradation reports;
* ``repro batch <dir>`` — the CLI front door;
* ``python -m repro.obs.bench --batch`` — the throughput benchmark
  (``BENCH_batch.json``).
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.batch.cache": ("CACHE_SCHEMA", "PipelineCache",
                          "source_fingerprint"),
    "repro.batch.driver": (
        "BatchOptions",
        "BatchResult",
        "CompiledProgram",
        "compile_many",
        "compile_one",
        "resolve_jobs",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
