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

With a cache, a compile stores its *result* — annotated source,
placement counts, stable trace and, for a hardened compile, its rung —
under the content address of the text and every option that shapes the
output, and a hit returns that result.  No pipeline object is ever
cached, so the in-place AST mutation of
:func:`~repro.commgen.pipeline.generate_communication` cannot leak
between compiles, and a cached run reports byte-identical sources and
stable traces to an uncached one (``docs/scaling.md``).

A cached compile is three steps, each callable on its own:
:func:`lookup_compiled`, :func:`compile_uncached` on a miss, and
:func:`store_compiled`.  Whoever receives the work owns the cache and
runs the first and last step — :func:`compile_one` in the calling
thread, :func:`compile_many` in the parent process, the compile service
on its event loop (:mod:`repro.service.server`); pool workers run only
:func:`compile_uncached`, which takes no cache.
"""

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.batch.cache import source_fingerprint, validate_fingerprint_value
from repro.commgen.hardened import HardenedPipeline, ResourceBudget
from repro.commgen.pipeline import generate_communication
from repro.graph.pipeline import analyzed_program_for
from repro.lang.printer import format_first_line
from repro.obs.collector import tracing
from repro.obs.trace import stable_form, trace_payload
from repro.util.errors import ReproError

#: Cache namespace for compile results: the :data:`ENTRY_FIELDS` of a
#: :class:`CompiledProgram`.
COMPILED_NAMESPACE = "compiled"

#: Cache namespace for per-program Merkle interval fingerprints, keyed
#: by the plain :func:`source_fingerprint` of the text — the digest a
#: ``compile_delta`` request names as its ``base``.
MERKLE_NAMESPACE = "interval-merkle"

#: generate_communication keyword defaults — with ``hardened``,
#: ``split_messages`` and ``trace``, the options that participate in the
#: content address of a "compiled" entry.
PIPELINE_DEFAULTS = {
    "owner_computes": False,
    "postpass": True,
    "hoist_zero_trip": True,
    "after_jumps": "optimistic",
    "refine_sections": True,
    "split_irreducible": False,
    "max_splits": None,
    "solver_rounds": None,
}

#: Pipeline options the hardened ladder sets itself, rung by rung (and
#: irreducible repair on first contact), so a hardened compile rejects
#: any other value instead of silently ignoring it.
HARDENED_FIXED = ("postpass", "hoist_zero_trip", "after_jumps",
                  "refine_sections", "split_irreducible")


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
    generate_communication` keyword overrides; unknown keys, values no
    cache key can hold (:class:`TypeError`) and, with ``hardened``,
    overrides of :data:`HARDENED_FIXED` are rejected eagerly so
    mistakes fail fast rather than silently compiling with defaults or
    failing mid-compile."""

    split_messages: bool = True
    hardened: bool = False
    trace: bool = False
    pipeline: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.pipeline) - set(PIPELINE_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown pipeline option(s): {sorted(unknown)}")
        for key, value in self.pipeline.items():
            validate_fingerprint_value(key, value)
        kwargs = self.pipeline_kwargs()
        ignored = [key for key in HARDENED_FIXED
                   if kwargs[key] != PIPELINE_DEFAULTS[key]]
        if self.hardened and ignored:
            raise ValueError(f"hardened compiles set {ignored} themselves; "
                             f"drop the override(s)")

    def pipeline_kwargs(self):
        merged = dict(PIPELINE_DEFAULTS)
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
    #: :func:`compile_delta` only: the edited and base digests and, when
    #: the base's interval record is cached, the changed-interval counts
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

#: The :class:`CompiledProgram` fields a "compiled" entry holds: a hit
#: rebuilds the program from them, named after the caller's request.
ENTRY_FIELDS = ("annotated_source", "reads", "writes", "trace", "rung",
                "degraded")


def compile_one(name, text, cache=None, options=None):
    """Compile one program; never raises for per-program
    :class:`~repro.util.errors.ReproError` failures.

    It runs the three steps in the calling thread:
    :func:`lookup_compiled`, on a miss :func:`compile_uncached`, then
    :func:`store_compiled` (the first and last do nothing without a
    ``cache``)."""
    options = options if options is not None else BatchOptions()
    start = time.perf_counter()
    compiled = lookup_compiled(cache, name, text, options)
    if compiled is None:
        compiled, intervals = compile_uncached(
            name, text, options, record_intervals=cache is not None)
        store_compiled(cache, text, options, compiled, intervals)
    compiled.duration_s = time.perf_counter() - start
    return compiled


def _result_key(cache, text, options):
    return cache.key(text, hardened=options.hardened,
                     split_messages=options.split_messages,
                     trace=options.trace, **options.pipeline_kwargs())


def lookup_compiled(cache, name, text, options):
    """The cached result of compiling ``text`` under ``options`` as a
    hit named ``name``, or ``None`` on a miss (always, for
    ``cache=None``)."""
    if cache is None:
        return None
    start = time.perf_counter()
    entry = cache.get(COMPILED_NAMESPACE, _result_key(cache, text, options))
    if entry is None:
        return None
    return CompiledProgram(name=name, ok=True, cache_hit=True,
                           duration_s=time.perf_counter() - start, **entry)


def compile_uncached(name, text, options, record_intervals=False):
    """Compile one program without touching a cache: the step a pool
    worker runs.  Returns ``(compiled, intervals)``, where
    ``intervals`` is the program's Merkle interval record when
    ``record_intervals`` asks for it and a plain compile succeeded
    (``None`` otherwise); never raises for per-program
    :class:`~repro.util.errors.ReproError` failures."""
    start = time.perf_counter()
    intervals = None
    try:
        if options.hardened:
            compiled = _compile_hardened(name, text, options)
        else:
            compiled, intervals = _compile_plain(name, text, options,
                                                 record_intervals)
    except ReproError as error:
        compiled = CompiledProgram(name=name, ok=False, error=str(error),
                                   error_type=type(error).__name__)
    compiled.duration_s = time.perf_counter() - start
    return compiled, intervals


def store_compiled(cache, text, options, compiled, intervals=None):
    """Store a successful compile's result, and its interval record
    when there is one; a failed compile (or ``cache=None``) stores
    nothing."""
    if cache is None or not compiled.ok:
        return
    cache.put(COMPILED_NAMESPACE, _result_key(cache, text, options),
              {key: getattr(compiled, key) for key in ENTRY_FIELDS})
    if intervals is not None:
        cache.put(MERKLE_NAMESPACE, source_fingerprint(text), intervals)


def _compile_plain(name, text, options, record_intervals):
    kwargs = options.pipeline_kwargs()
    # The frontend is built outside the trace scope, so a traced compile
    # records only what follows it.  It consumes the two frontend
    # options; generate_communication gets the rest.
    analyzed = analyzed_program_for(
        text, split_irreducible=kwargs.pop("split_irreducible"),
        max_splits=kwargs.pop("max_splits"))
    # Fingerprint the intervals before annotation moves labels around.
    intervals = _interval_record(analyzed) if record_intervals else None
    with tracing() if options.trace else nullcontext() as collector:
        result = generate_communication(
            analyzed, split_messages=options.split_messages, **kwargs)
    trace = stable_form(trace_payload(collector)) if options.trace else None
    reads, writes = result.communication_count()
    return CompiledProgram(name=name, ok=True,
                           annotated_source=result.annotated_source(),
                           reads=reads, writes=writes, trace=trace), intervals


def _render_interval_node(node):
    """A node's own-level text for interval fingerprinting: the first
    rendered line of its statement (a loop header's body lines belong to
    the nested interval's fingerprint, not its own), or a kind tag for
    synthetic nodes."""
    if node.stmt is None:
        return f"<{node.kind.value}:{node.name}>"
    return format_first_line(node.stmt)


def _interval_record(analyzed):
    """The program's sorted Merkle interval fingerprints: stored under
    its plain source digest, so a later ``compile_delta`` naming this
    text as its base can report which intervals the edit changed."""
    forest = analyzed.ifg.forest
    return sorted(forest.interval_fingerprints(_render_interval_node).values())


def compile_delta(name, text, cache, options=None, base_digest=None):
    """Recompile an edited program and report which intervals the edit
    changed.

    ``text`` is the *edited* source; ``base_digest`` (optional) is the
    plain :func:`~repro.batch.cache.source_fingerprint` of the base text
    a previous compile through ``cache`` stored.  The compile itself is
    :func:`compile_one`, so the result is byte-identical to a cold
    compile of the same text; the base digest adds the diagnostics
    (:func:`interval_diff`).
    """
    if cache is None:
        raise ValueError("compile_delta requires a PipelineCache to read "
                         "interval records from")
    return interval_diff(cache, compile_one(name, text, cache, options),
                         text, base_digest)


def interval_diff(cache, compiled, text, base_digest):
    """Set ``compiled.incremental`` for a delta compile of ``text``:
    its digest, the base digest and, when ``cache`` holds both interval
    records, how many of the edited program's intervals are missing
    from the base's.  Returns ``compiled``."""
    incremental = {"digest": source_fingerprint(text), "base": base_digest}
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


def _compile_hardened(name, text, options):
    kwargs = options.pipeline_kwargs()
    pipeline = HardenedPipeline(
        budget=ResourceBudget(solver_rounds=kwargs["solver_rounds"] or 64,
                              max_splits=kwargs["max_splits"]),
        owner_computes=kwargs["owner_computes"],
        split_messages=options.split_messages,
    )
    with tracing() if options.trace else nullcontext() as collector:
        hardened = pipeline.run(text)
    trace = stable_form(trace_payload(collector)) if options.trace else None
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


# -- the worker pool --------------------------------------------------------


def compile_many(sources, jobs=1, cache=None, options=None):
    """Compile a corpus; return a :class:`BatchResult`.

    * ``sources`` — an iterable of ``(name, text)`` pairs or a
      ``{name: text}`` mapping; result order follows input order.
    * ``jobs`` — worker process count.  ``1`` compiles serially in this
      process; ``0`` means one worker per CPU (:func:`resolve_jobs`);
      higher values look every program up in ``cache`` here, fan only
      the misses out over a
      :class:`~concurrent.futures.ProcessPoolExecutor` (none is spawned
      when every program hits), and store what comes back — the workers
      never see the cache.
    * ``options`` — a :class:`BatchOptions` (or ``None`` for defaults).
    """
    items = list(sources.items()) if isinstance(sources, dict) else list(sources)
    options = options if options is not None else BatchOptions()
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()

    if jobs == 1 or len(items) <= 1:
        programs = [compile_one(name, text, cache, options)
                    for name, text in items]
        jobs = 1
    else:
        programs = [lookup_compiled(cache, name, text, options)
                    for name, text in items]
        misses = [index for index, program in enumerate(programs)
                  if program is None]
        work = partial(compile_uncached, options=options,
                       record_intervals=cache is not None)
        try:
            outcomes = _pool_map(work, [items[i] for i in misses], jobs)
        except (OSError, ImportError):
            # No usable multiprocessing primitives (restricted sandboxes):
            # degrade to a serial run rather than failing the corpus.
            outcomes = [work(*items[i]) for i in misses]
            jobs = 1
        for index, (compiled, intervals) in zip(misses, outcomes):
            store_compiled(cache, items[index][1], options, compiled,
                           intervals)
            programs[index] = compiled
    elapsed = time.perf_counter() - start
    stats = cache.stats() if cache is not None else None
    return BatchResult(programs, elapsed, jobs=jobs, cache_stats=stats)


def _pool_map(work, items, jobs):
    """``work(name, text)`` over ``items`` on a process pool, in order;
    no pool is spawned for an empty list."""
    if not items:
        return []
    from concurrent.futures import ProcessPoolExecutor

    names, texts = zip(*items)
    chunksize = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(work, names, texts, chunksize=chunksize))
