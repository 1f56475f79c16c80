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
from functools import partial

from repro.commgen.pipeline import generate_communication
from repro.graph.pipeline import analyzed_program_for
from repro.obs.collector import tracing
from repro.obs.trace import stable_form, trace_payload
from repro.util.errors import ReproError
from repro.util.record import Record

#: generate_communication keyword defaults — with ``hardened``,
#: ``split_messages`` and ``trace``, the options that participate in the
#: content address of a cache entry.
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


class BatchOptions(Record):
    """Knobs of one batch run (picklable, shipped to pool workers).

    ``pipeline`` holds :func:`~repro.commgen.pipeline.
    generate_communication` keyword overrides (``None``: none); unknown
    keys, values no cache key can hold (:class:`TypeError`) and, with
    ``hardened``, overrides of :data:`HARDENED_FIXED` are rejected
    eagerly so mistakes fail fast rather than silently compiling with
    defaults or failing mid-compile."""

    _fields = ("split_messages", "hardened", "trace", "pipeline")

    def __init__(self, split_messages=True, hardened=False, trace=False,
                 pipeline=None):
        self.split_messages = split_messages
        self.hardened = hardened
        self.trace = trace
        self.pipeline = {} if pipeline is None else pipeline
        unknown = set(self.pipeline) - set(PIPELINE_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown pipeline option(s): {sorted(unknown)}")
        if self.pipeline:
            from repro.batch.cache import validate_fingerprint_value

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


class CompiledProgram(Record):
    """The outcome of compiling one program of the corpus.

    ``rung`` and ``degraded`` are set by hardened compiles only (the
    rung that produced the placement), and ``trace`` holds the
    stable-form trace payload of a ``trace=True`` compile."""

    _fields = ("name", "ok", "annotated_source", "reads", "writes",
               "cache_hit", "duration_s", "error", "error_type", "rung",
               "degraded", "trace")

    def __init__(self, name, ok, annotated_source=None, reads=0, writes=0,
                 cache_hit=False, duration_s=0.0, error=None,
                 error_type=None, rung=None, degraded=False, trace=None):
        self.name = name
        self.ok = ok
        self.annotated_source = annotated_source
        self.reads = reads
        self.writes = writes
        self.cache_hit = cache_hit
        self.duration_s = duration_s
        self.error = error
        self.error_type = error_type
        self.rung = rung
        self.degraded = degraded
        self.trace = trace

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

#: The :class:`CompiledProgram` fields a cache entry holds: a hit
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
        compiled = compile_uncached(name, text, options)
        store_compiled(cache, text, options, compiled)
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
    entry = cache.get(_result_key(cache, text, options))
    if entry is None:
        return None
    return CompiledProgram(name=name, ok=True, cache_hit=True,
                           duration_s=time.perf_counter() - start, **entry)


def compile_uncached(name, text, options):
    """Compile one program without touching a cache: the step a pool
    worker runs.  Never raises for per-program
    :class:`~repro.util.errors.ReproError` failures."""
    start = time.perf_counter()
    try:
        if options.hardened:
            compiled = _compile_hardened(name, text, options)
        else:
            compiled = _compile_plain(name, text, options)
    except ReproError as error:
        compiled = CompiledProgram(name=name, ok=False, error=str(error),
                                   error_type=type(error).__name__)
    compiled.duration_s = time.perf_counter() - start
    return compiled


def store_compiled(cache, text, options, compiled):
    """Store a successful compile's result; a failed compile (or
    ``cache=None``) stores nothing."""
    if cache is None or not compiled.ok:
        return
    cache.put(_result_key(cache, text, options),
              {key: getattr(compiled, key) for key in ENTRY_FIELDS})


def _compile_plain(name, text, options):
    kwargs = options.pipeline_kwargs()
    # The frontend is built outside the trace scope, so a traced compile
    # records only what follows it.  It consumes the two frontend
    # options; generate_communication gets the rest.
    analyzed = analyzed_program_for(
        text, split_irreducible=kwargs.pop("split_irreducible"),
        max_splits=kwargs.pop("max_splits"))
    with tracing() if options.trace else nullcontext() as collector:
        result = generate_communication(
            analyzed, split_messages=options.split_messages, **kwargs)
    trace = stable_form(trace_payload(collector)) if options.trace else None
    reads, writes = result.communication_count()
    return CompiledProgram(name=name, ok=True,
                           annotated_source=result.annotated_source(),
                           reads=reads, writes=writes, trace=trace)


def _compile_hardened(name, text, options):
    from repro.commgen.hardened import HardenedPipeline, ResourceBudget

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
        work = partial(compile_uncached, options=options)
        try:
            outcomes = _pool_map(work, [items[i] for i in misses], jobs)
        except (OSError, ImportError):
            # No usable multiprocessing primitives (restricted sandboxes):
            # degrade to a serial run rather than failing the corpus.
            outcomes = [work(*items[i]) for i in misses]
            jobs = 1
        for index, compiled in zip(misses, outcomes):
            store_compiled(cache, items[index][1], options, compiled)
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
