"""Batch compilation: many programs, worker pools, a result cache.

The plain pipeline recompiles everything from scratch on every call;
this package makes corpus-scale compilation cheap (``docs/scaling.md``):

* :class:`PipelineCache` — a content-addressed cache of compile
  results (annotated source, placement counts, stable trace) and of
  per-program interval records for :func:`compile_delta`;
* :func:`compile_many` / :func:`compile_one` — the drivers that fan a
  corpus across a process pool and merge per-program results, errors,
  cache statistics, traces, and degradation reports;
* ``repro batch <dir>`` — the CLI front door;
* ``python -m repro.obs.bench --batch`` — the throughput benchmark
  (``BENCH_batch.json``).
"""

from repro.batch.cache import CACHE_SCHEMA, PipelineCache, source_fingerprint
from repro.batch.driver import (
    COMPILED_NAMESPACE,
    MERKLE_NAMESPACE,
    BatchOptions,
    BatchResult,
    CompiledProgram,
    compile_delta,
    compile_many,
    compile_one,
    resolve_jobs,
)

__all__ = [
    "CACHE_SCHEMA",
    "PipelineCache",
    "source_fingerprint",
    "COMPILED_NAMESPACE",
    "MERKLE_NAMESPACE",
    "BatchOptions",
    "BatchResult",
    "CompiledProgram",
    "compile_delta",
    "compile_many",
    "compile_one",
    "resolve_jobs",
]
