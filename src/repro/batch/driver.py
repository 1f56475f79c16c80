"""Batch compilation: fan a corpus of programs across workers.

:func:`compile_many` drives :func:`compile_one` over a list of
``(name, text)`` programs, either serially or on a
:class:`concurrent.futures.ProcessPoolExecutor`, and merges the
per-program outcomes into one :class:`BatchResult`:

* annotated sources and placement counts per program;
* per-program errors captured (one bad program never kills the corpus);
* cache hit/miss accounting against a shared
  :class:`~repro.batch.cache.PipelineCache`;
* optional per-program traces (deterministic
  :func:`~repro.obs.trace.stable_form` payloads) and hardened-pipeline
  degradation summaries.

Workers never share live pipeline objects — the cache stores pickled
pre-annotation snapshots and every compile annotates a private copy, so
the in-place AST mutation of
:func:`~repro.commgen.pipeline.annotate_prepared` cannot leak between
programs (``docs/scaling.md``).

Traces stay comparable between cached and uncached runs: the trace of
the prepare phase is captured once, on the cache miss, and stored (in
stable form) next to the snapshot; a hit replays the stored trace
instead of re-solving.  Since trace content is deterministic for a given
input, a warm cached run reports byte-identical stable traces to a cold
or uncached one — the equivalence suite pins this down.
"""

import os
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.batch.cache import PipelineCache, source_fingerprint
from repro.commgen.hardened import HardenedPipeline, ResourceBudget
from repro.commgen.pipeline import annotate_prepared, prepare_communication
from repro.core.kernel.incremental import IncrementalSolveMemo
from repro.core.solver import check_backend
from repro.graph.pipeline import analyzed_program_for
from repro.lang.printer import format_first_line
from repro.obs.collector import TraceCollector, tracing
from repro.obs.trace import stable_form, trace_payload
from repro.util.errors import ReproError

#: Cache namespace for solved pre-annotation pipeline state.
PREPARED_NAMESPACE = "prepared"

#: Cache namespace for per-program Merkle interval fingerprints, keyed
#: by the plain :func:`source_fingerprint` of the text — the digest a
#: ``compile_delta`` request names as its ``base``.
MERKLE_NAMESPACE = "interval-merkle"

#: prepare_communication keyword defaults — also the full set of options
#: that participate in the content address of a "prepared" entry.
PREPARE_DEFAULTS = {
    "owner_computes": False,
    "postpass": True,
    "hoist_zero_trip": True,
    "after_jumps": "optimistic",
    "refine_sections": True,
    "split_irreducible": False,
    "max_splits": None,
    "solver_rounds": None,
    "solver_backend": None,
}


def resolve_jobs(jobs):
    """The effective worker count for a requested ``jobs`` value.

    Positive values pass through; ``0`` (or anything non-positive) means
    "one worker per CPU" — the resolution shared by
    :func:`compile_many`, ``repro batch --jobs 0``, and the compile
    service's worker pool (:mod:`repro.service`)."""
    jobs = int(jobs)
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass
class BatchOptions:
    """Knobs of one batch run (picklable, shipped to pool workers).

    ``pipeline`` holds :func:`~repro.commgen.pipeline.
    prepare_communication` keyword overrides; unknown keys and unknown
    solver backends are rejected eagerly so typos fail fast rather than
    silently compiling with defaults."""

    split_messages: bool = True
    hardened: bool = False
    trace: bool = False
    pipeline: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.pipeline) - set(PREPARE_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown pipeline option(s): {sorted(unknown)}")
        check_backend(self.pipeline.get("solver_backend"))

    def prepare_kwargs(self):
        merged = dict(PREPARE_DEFAULTS)
        merged.update(self.pipeline)
        return merged


@dataclass
class CompiledProgram:
    """The outcome of compiling one program of the corpus."""

    name: str
    ok: bool
    annotated_source: Optional[str] = None
    reads: int = 0
    writes: int = 0
    cache_hit: bool = False
    duration_s: float = 0.0
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: hardened mode only: the rung that produced the placement
    rung: Optional[str] = None
    degraded: bool = False
    #: stable-form trace payload (``trace=True`` only)
    trace: Optional[dict] = None
    #: interval-memo accounting for cached compiles (whole-solve and
    #: fragment hits, write-verdict replays, changed-interval counts for
    #: deltas); ``None`` when no memo ran
    incremental: Optional[dict] = None

    def as_dict(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "reads": self.reads,
            "writes": self.writes,
            "cache_hit": self.cache_hit,
            "duration_s": self.duration_s,
            "error": self.error,
            "error_type": self.error_type,
            "rung": self.rung,
            "degraded": self.degraded,
            "incremental": self.incremental,
            "annotated_source": self.annotated_source,
        }


class BatchResult:
    """Merged outcome of one :func:`compile_many` run."""

    def __init__(self, programs, elapsed_s, jobs, cache_stats=None):
        self.programs = programs
        self.elapsed_s = elapsed_s
        self.jobs = jobs
        self.cache_stats = cache_stats

    @property
    def ok_count(self):
        return sum(1 for p in self.programs if p.ok)

    @property
    def error_count(self):
        return sum(1 for p in self.programs if not p.ok)

    @property
    def cache_hits(self):
        return sum(1 for p in self.programs if p.cache_hit)

    @property
    def degraded_count(self):
        return sum(1 for p in self.programs if p.degraded)

    @property
    def programs_per_second(self):
        if self.elapsed_s <= 0:
            return float("inf")
        return len(self.programs) / self.elapsed_s

    def errors(self):
        return [p for p in self.programs if not p.ok]

    def summary(self):
        text = (f"{self.ok_count}/{len(self.programs)} programs ok in "
                f"{self.elapsed_s:.3f}s ({self.programs_per_second:.1f}/s, "
                f"jobs={self.jobs}, cache hits={self.cache_hits})")
        if self.error_count:
            text += f", {self.error_count} failed"
        if self.degraded_count:
            text += f", {self.degraded_count} degraded"
        return text

    def as_dict(self):
        return {
            "elapsed_s": self.elapsed_s,
            "jobs": self.jobs,
            "ok": self.ok_count,
            "errors": self.error_count,
            "cache_hits": self.cache_hits,
            "degraded": self.degraded_count,
            "programs_per_second": self.programs_per_second,
            "cache": self.cache_stats,
            "programs": [p.as_dict() for p in self.programs],
        }


# ---------------------------------------------------------------------------


def compile_one(name, text, cache=None, options=None):
    """Compile one program; never raises for per-program
    :class:`~repro.util.errors.ReproError` failures."""
    options = options if options is not None else BatchOptions()
    start = time.perf_counter()
    try:
        if options.hardened:
            compiled = _compile_hardened(name, text, options)
        else:
            compiled = _compile_plain(name, text, cache, options)
    except ReproError as error:
        compiled = CompiledProgram(name=name, ok=False, error=str(error),
                                   error_type=type(error).__name__)
    compiled.duration_s = time.perf_counter() - start
    return compiled


def _compile_plain(name, text, cache, options):
    kwargs = options.prepare_kwargs()
    prepared, prepare_trace, hit, incremental = _prepared_state(
        text, cache, options, kwargs)
    annotate_collector = TraceCollector() if options.trace else None
    if annotate_collector is not None:
        with tracing(annotate_collector):
            result = annotate_prepared(
                prepared, split_messages=options.split_messages)
    else:
        result = annotate_prepared(prepared,
                                   split_messages=options.split_messages)
    reads, writes = result.communication_count()
    trace = None
    if options.trace:
        trace = _merge_traces(prepare_trace,
                              stable_form(trace_payload(annotate_collector)))
    return CompiledProgram(name=name, ok=True,
                           annotated_source=result.annotated_source(),
                           reads=reads, writes=writes, cache_hit=hit,
                           trace=trace, incremental=incremental)


def _prepared_state(text, cache, options, kwargs):
    """The solved pre-annotation state for ``text``: a private cached
    copy when possible, freshly computed (and snapshotted) otherwise.

    Returns ``(prepared, trace, hit, incremental)``.  On the miss path
    with a cache, solves run through an
    :class:`~repro.core.kernel.incremental.IncrementalSolveMemo`, so a
    fresh text that shares structure with anything compiled before —
    edit traffic — replays whole solves, interval fragments, and write
    verdicts instead of recomputing them; ``incremental`` reports that
    accounting.  Tracing disables the memo: a replayed solve emits no
    solver events, and traces must stay byte-identical between cached
    and uncached runs."""
    if cache is not None:
        key = cache.key(text, trace=options.trace, **kwargs)
        entry = cache.get(PREPARED_NAMESPACE, key)
        if entry is not None:
            return entry["prepared"], entry["trace"], True, None
    # The frontend is built outside any trace scope (on both the hit and
    # the miss path it comes from untraced construction), so stable
    # traces compare equal between cached and uncached runs.
    analyzed = analyzed_program_for(
        text, cache=cache, split_irreducible=kwargs["split_irreducible"],
        max_splits=kwargs["max_splits"])
    memo = None
    if cache is not None and not options.trace:
        memo = IncrementalSolveMemo(cache)
    if options.trace:
        with tracing() as collector:
            prepared = prepare_communication(analyzed, **_without_frontend(kwargs))
        prepare_trace = stable_form(trace_payload(collector))
    else:
        prepared = prepare_communication(analyzed, memo=memo,
                                         **_without_frontend(kwargs))
        prepare_trace = None
    if cache is not None:
        cache.put(PREPARED_NAMESPACE, key,
                  {"prepared": prepared, "trace": prepare_trace})
        _store_interval_fingerprints(cache, text, prepared.analyzed)
    return (prepared, prepare_trace, False,
            dict(memo.stats) if memo is not None else None)


def _render_interval_node(node):
    """A node's own-level text for interval fingerprinting: the first
    rendered line of its statement (a loop header's body lines belong to
    the nested interval's fingerprint, not its own), or a kind tag for
    synthetic nodes."""
    if node.stmt is None:
        return f"<{node.kind.value}:{node.name}>"
    return format_first_line(node.stmt)


def _store_interval_fingerprints(cache, text, analyzed):
    """Record the program's Merkle interval fingerprints under its plain
    source digest, so a later ``compile_delta`` naming this text as its
    base can report which intervals the edit changed."""
    forest = analyzed.ifg.forest
    fingerprints = forest.interval_fingerprints(_render_interval_node)
    cache.put(MERKLE_NAMESPACE, source_fingerprint(text),
              sorted(fingerprints.values()))


def compile_delta(name, text, cache, options=None, base_digest=None):
    """Incrementally recompile an edited program against a warm cache.

    ``text`` is the *edited* source; ``base_digest`` (optional) is the
    plain :func:`~repro.batch.cache.source_fingerprint` of the base text
    a previous compile warmed the cache with.  The compile itself is
    :func:`compile_one` — incremental replay is content-addressed, so it
    needs no base entry to splice from, only a warm cache — but the base
    digest adds the delta diagnostics: how many intervals the edit
    changed versus the base's Merkle fingerprints.  The result is
    byte-identical to a cold :func:`compile_one` of the same text.
    """
    if cache is None:
        raise ValueError("compile_delta requires a PipelineCache to replay "
                         "interval solves from")
    options = options if options is not None else BatchOptions()
    compiled = compile_one(name, text, cache, options)
    incremental = dict(compiled.incremental or {})
    incremental["digest"] = source_fingerprint(text)
    incremental["base"] = base_digest
    if compiled.ok and base_digest:
        base_fps = cache.get(MERKLE_NAMESPACE, base_digest)
        edited_fps = cache.get(MERKLE_NAMESPACE, incremental["digest"])
        if isinstance(base_fps, list) and isinstance(edited_fps, list):
            known = set(base_fps)
            incremental["intervals_total"] = len(edited_fps)
            incremental["intervals_changed"] = sum(
                1 for fp in edited_fps if fp not in known)
    compiled.incremental = incremental
    return compiled


def _without_frontend(kwargs):
    """Prepare kwargs minus the two the frontend already consumed
    (``prepare_communication`` ignores them for a pre-analyzed input,
    but keeping them out makes that explicit)."""
    rest = dict(kwargs)
    rest.pop("split_irreducible")
    rest.pop("max_splits")
    return rest


def _compile_hardened(name, text, options):
    budget = ResourceBudget(
        solver_rounds=options.prepare_kwargs()["solver_rounds"] or 64)
    pipeline = HardenedPipeline(
        budget=budget,
        owner_computes=options.prepare_kwargs()["owner_computes"],
        split_messages=options.split_messages,
        solver_backend=options.prepare_kwargs()["solver_backend"],
    )
    if options.trace:
        with tracing() as collector:
            hardened = pipeline.run(text)
        trace = stable_form(trace_payload(collector))
    else:
        hardened = pipeline.run(text)
        trace = None
    result = hardened.result
    reads = writes = 0
    if hasattr(result, "communication_count"):
        reads, writes = result.communication_count()
    return CompiledProgram(name=name, ok=True,
                           annotated_source=hardened.annotated_source(),
                           reads=reads, writes=writes,
                           rung=hardened.report.rung,
                           degraded=hardened.report.degraded,
                           trace=trace)


def _merge_traces(first, second):
    """Concatenate two stable trace payloads (events append, counters
    sum) — used to join the prepare-phase and annotate-phase traces into
    one per-program payload."""
    if first is None:
        return second
    if second is None:
        return first
    counters = {c: dict(bucket) for c, bucket in first["counters"].items()}
    for counter, bucket in second["counters"].items():
        merged = counters.setdefault(counter, {})
        for key, n in bucket.items():
            merged[key] = merged.get(key, 0) + n
    return {
        "schema": first["schema"],
        "events": list(first["events"]) + list(second["events"]),
        "counters": counters,
    }


# -- the worker pool --------------------------------------------------------

#: Per-process cache instances, keyed by directory (None = memory-only).
#: Worker processes keep them across tasks, so duplicates within one
#: worker's share of the corpus hit even without a disk cache.
_worker_caches = {}


def _worker_cache(cache_dir, use_cache):
    if not use_cache:
        return None
    cache = _worker_caches.get(cache_dir)
    if cache is None:
        cache = PipelineCache(directory=cache_dir)
        _worker_caches[cache_dir] = cache
    return cache


def _pool_compile(item, cache_dir, use_cache, options):
    name, text = item
    return compile_one(name, text, _worker_cache(cache_dir, use_cache),
                       options)


def _pool_compile_delta(item, cache_dir, use_cache, options, base_digest):
    name, text = item
    # compile_delta needs a cache to replay from; a worker without one
    # (memory-only service config) degrades to its private per-process
    # cache — still correct, just cold until that worker warms it.
    cache = (_worker_cache(cache_dir, use_cache)
             or _worker_cache(None, True))
    return compile_delta(name, text, cache, options=options,
                         base_digest=base_digest)


def compile_many(sources, jobs=1, cache=None, options=None):
    """Compile a corpus; return a :class:`BatchResult`.

    * ``sources`` — an iterable of ``(name, text)`` pairs or a
      ``{name: text}`` mapping; result order follows input order.
    * ``jobs`` — worker process count.  ``1`` compiles serially in this
      process (using ``cache`` directly); ``0`` means one worker per CPU
      (:func:`resolve_jobs`); higher values fan out over a
      :class:`~concurrent.futures.ProcessPoolExecutor`.  A cache with a
      ``directory`` is then shared by all workers through the
      filesystem; a memory-only cache degrades to one private cache per
      worker process (hits still happen within a worker, warmth is not
      shared across runs).
    * ``options`` — a :class:`BatchOptions` (or ``None`` for defaults).
    """
    items = list(sources.items()) if isinstance(sources, dict) else list(sources)
    options = options if options is not None else BatchOptions()
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()

    if jobs == 1 or len(items) <= 1:
        programs = [compile_one(name, text, cache, options)
                    for name, text in items]
        elapsed = time.perf_counter() - start
        stats = cache.stats() if cache is not None else None
        return BatchResult(programs, elapsed, jobs=1, cache_stats=stats)

    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    cache_dir = cache.directory if cache is not None else None
    worker = partial(_pool_compile, cache_dir=cache_dir,
                     use_cache=cache is not None, options=options)
    chunksize = max(1, len(items) // (jobs * 4))
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            programs = list(pool.map(worker, items, chunksize=chunksize))
    except (OSError, ImportError):
        # No usable multiprocessing primitives (restricted sandboxes):
        # degrade to a serial run rather than failing the corpus.
        programs = [compile_one(name, text, cache, options)
                    for name, text in items]
        jobs = 1
    elapsed = time.perf_counter() - start
    stats = cache.stats() if cache is not None else None
    if stats is not None and jobs > 1:
        # The parent's counters saw nothing; reconstruct lookup totals
        # from the per-program hit flags the workers reported.
        hits = sum(1 for p in programs if p.cache_hit)
        lookups = sum(1 for p in programs if p.ok)
        stats = dict(stats)
        stats.update(hits=hits, misses=lookups - hits,
                     hit_rate=hits / lookups if lookups else 0.0)
    return BatchResult(programs, elapsed, jobs=jobs, cache_stats=stats)
