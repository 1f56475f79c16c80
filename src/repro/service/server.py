"""The resident compile server (``docs/serving.md``).

A :class:`CompileService` is the long-lived process the one-shot entry
points (``repro annotate``, ``repro batch``) cannot be: it pays
interpreter startup, worker spawn, and cache warmup **once**, then
serves compile requests over TCP while the batch layer's
content-addressed :class:`~repro.batch.cache.PipelineCache` of compile
results stays warm across requests — the same overlap-and-amortize
idea GIVE-N-TAKE applies to communication, applied to the compiler
itself.

Division of labor:

* the **event loop** owns admission, metrics, deadlines, the wire
  protocol and the cache — it looks every admitted request up, answers
  a hit at once, stores what the pool returns, and never compiles
  anything, so a slow program cannot stall accept/status/drain
  handling;
* the **worker pool** (a ``ProcessPoolExecutor``, or a thread pool
  where multiprocessing is unavailable) compiles the misses with
  :func:`repro.batch.driver.compile_uncached`, which takes no cache.

Admission is a hard bound, not a silent queue: once ``queue_limit``
requests are in flight, new work is refused immediately with a ``busy``
error carrying ``retry_after_s`` — the client-visible backpressure that
keeps latency bounded under overload.  Per-request deadlines cancel the
*wait*, not the worker: an expired request gets its ``deadline`` reply
at once, the abandoned compile still releases its admission slot and
stores its result when it finishes (so capacity accounting stays
truthful and the work is not wasted), and a not-yet-started pool task
is cancelled outright.  ``drain`` flips the service
into refusing new work, waits for every in-flight request to complete,
replies, and shuts down — the graceful exit both the CLI's signal
handlers and the CI smoke job use.

The worker pool is **supervised** (``docs/robustness.md``): a worker
that dies mid-compile (OOM kill, segfault, chaos) breaks the whole
``ProcessPoolExecutor`` — every in-flight future fails with
:class:`~concurrent.futures.BrokenExecutor` and every later submit
would too.  Instead of poisoning the connection (and all subsequent
requests), the service detects the broken pool, rebuilds the executor
exactly once per failure (concurrent detections coalesce on a
generation counter), resubmits each affected request once, and counts
the event in :class:`~repro.service.metrics.ServiceMetrics`
(``pool_rebuilds`` / ``requeued``).  Only a request that fails on the
*fresh* pool too surfaces an ``internal`` error.

The socket, the per-connection read loop, the dispatch, connection
tracking and the shutdown-once contract are the
:class:`~repro.service.lineserver.LineServer` core this class shares
with the fleet router; what is here is the compile role: admission,
the supervised pool, the cache, and the handlers.
"""

import asyncio
import contextlib
import functools
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

from repro.batch.cache import PipelineCache
from repro.batch.driver import (
    compile_uncached,
    interval_diff,
    lookup_compiled,
    resolve_jobs,
    store_compiled,
)
from repro.obs.collector import current_collector
from repro.service.config import ServiceConfig
from repro.service.lineserver import LineServer
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    E_BAD_REQUEST,
    E_BUSY,
    E_DEADLINE,
    E_DRAINING,
    E_INTERNAL,
    E_UNAVAILABLE,
    PROTOCOL,
    ProtocolError,
    error_response,
    ok_response,
    request_deadline,
    request_options,
)

#: Cap on the ``retry_after_s`` backpressure hint, in seconds.
MAX_RETRY_AFTER_S = 2.0

#: Human messages for admission refusals.
ADMISSION_MESSAGES = {
    E_BUSY: "queue limit reached; retry after the suggested delay",
    E_DRAINING: "service is draining and accepts no new work",
}


class CompileService(LineServer):
    """One resident compile service (see the module docstring).

    Lifecycle: ``await start()`` binds the socket and spins the pool up,
    ``await wait_closed()`` parks until a drain or :meth:`shutdown`
    finishes; :func:`run_service` packages both for the CLI and
    :class:`~repro.service.runner.ThreadedServer` for tests/benchmarks.
    """

    def __init__(self, config=None):
        super().__init__(config if config is not None else ServiceConfig())
        self.metrics = ServiceMetrics()
        self.workers = resolve_jobs(self.config.workers)
        self.pool_kind = None
        self.cache = None
        self._executor = None
        self._idle = None
        self._pool_lock = None
        self._pool_generation = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind the socket, start the pool, open the cache."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._pool_lock = asyncio.Lock()
        self._executor, self.pool_kind = self._build_executor()
        if self.config.use_cache:
            self.cache = PipelineCache(directory=self.config.cache_dir)
        await super().start()
        obs = current_collector()
        if obs.enabled:
            obs.event("service", "start", host=self.host, port=self.port,
                      workers=self.workers, pool=self.pool_kind)
        return self

    def _build_executor(self):
        if self.config.pool in ("auto", "process"):
            try:
                pool = ProcessPoolExecutor(max_workers=self.workers)
                # Probe + warm: spawns the workers now and fails loudly
                # where multiprocessing primitives are unavailable
                # (restricted sandboxes), mirroring compile_many's
                # serial fallback.
                pool.submit(resolve_jobs, 1).result(timeout=120)
                return pool, "process"
            except Exception:
                if self.config.pool == "process":
                    raise
        pool = ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="repro-service")
        return pool, "thread"

    async def shutdown(self, drain=True):
        """Stop the service; with ``drain`` wait for in-flight work."""
        self._draining = True
        if drain:
            await self._idle.wait()
        await super().shutdown()

    def _teardown(self, abort):
        """Reap the worker pool.

        A graceful stop cancels anything still queued and waits for the
        workers; an abort kills them outright."""
        if self._executor is not None:
            processes = getattr(self._executor, "_processes", None)
            if abort and processes:
                for process in list(processes.values()):
                    with contextlib.suppress(Exception):
                        process.kill()
            self._executor.shutdown(wait=not abort, cancel_futures=True)

    def status(self):
        """The ``status`` payload: live metrics plus server facts."""
        return self.metrics.snapshot(cache=self.cache, server={
            "protocol": PROTOCOL,
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "pool": self.pool_kind,
            "queue_limit": self.config.queue_limit,
            "deadline_s": self.config.deadline_s,
            "hardened": self.config.hardened,
            "draining": self._draining,
        })

    # -- admission -----------------------------------------------------------

    def _admit(self, units):
        """Take ``units`` admission slots or return the refusal code."""
        if self._draining:
            return E_DRAINING
        if self.metrics.queue_depth + units > self.config.queue_limit:
            return E_BUSY
        self.metrics.admit(units)
        self._idle.clear()
        return None

    def _release(self):
        """Free one admission slot."""
        self.metrics.release(1)
        if self.metrics.queue_depth == 0:
            self._idle.set()

    def _retry_after(self):
        """Backpressure hint: roughly one median request per queued unit
        per worker, clamped to sane bounds.

        The 0.05 s fallback applies only while the histogram is *empty*
        (no request has completed yet, so there is nothing to estimate
        from).  A recorded median of zero is a legitimate measurement —
        sub-resolution-fast requests — and must not be confused with
        "no data", or a fast service would tell clients to back off
        five times longer than its real service time."""
        histogram = self.metrics.latency["total_s"]
        median = (0.05 if histogram.count == 0
                  else histogram.percentile(0.5))
        estimate = median * max(1, self.metrics.queue_depth) / self.workers
        return round(min(MAX_RETRY_AFTER_S, max(0.01, estimate)), 4)

    # -- execution -----------------------------------------------------------

    async def _compile(self, name, source, options):
        """One admitted compile.  A cache hit is answered here on the
        loop and returns its slot at once, as does a lookup that raises;
        a miss goes to the pool, whose work frees the slot when it ends."""
        try:
            compiled = lookup_compiled(self.cache, name, source, options)
        except BaseException:
            self._release()
            raise
        if compiled is None:
            return await self._run_supervised(name, source, options)
        self._release()
        return compiled

    def _submit(self, name, source, options):
        """Schedule one uncached compile on the pool; returns an asyncio
        future of its ``(compiled, intervals)`` pair.

        Whenever the work truly ends — done, failed, or cancelled before
        it started — :meth:`_settle` runs on the loop, even for a request
        a deadline abandoned.  A pool so broken that ``submit`` itself
        raises releases the slot synchronously, so every attempt frees
        exactly one slot no matter how it dies."""
        try:
            work = self._executor.submit(compile_uncached, name, source,
                                         options, self.cache is not None)
        except BrokenExecutor:
            self._release()
            raise
        # Registered before wrap_future's own callback, so the store
        # lands before the awaiting task resumes.
        work.add_done_callback(functools.partial(self._settle_threadsafe,
                                                 source, options))
        return asyncio.wrap_future(work, loop=self._loop)

    def _settle_threadsafe(self, source, options, work):
        """Pool-thread side of :meth:`_settle`.  Only after an aborting
        teardown can work outlive the loop, and then nothing is left to
        account for."""
        with contextlib.suppress(RuntimeError):  # the loop is closed
            self._loop.call_soon_threadsafe(self._settle, source, options,
                                            work)

    def _settle(self, source, options, work):
        """Free the admission slot of finished pool work and store its
        result, so even a deadline-expired miss warms the cache."""
        self._release()
        if not work.cancelled() and work.exception() is None:
            store_compiled(self.cache, source, options, *work.result())

    async def _run_supervised(self, name, source, options):
        """One compile under worker-pool supervision: a broken executor
        (a worker crashed mid-compile) is rebuilt and the request
        requeued once instead of failing the connection."""
        try:
            compiled, _ = await self._submit(name, source, options)
        except BrokenExecutor:
            if self._closing:
                raise
            await self._supervise_pool_failure()
            # The failed attempt released its admission slot; take it
            # back unconditionally — a requeue is a continuation of
            # already-admitted work, not new admission.
            self.metrics.admit(1)
            self._idle.clear()
            self.metrics.requeue(1)
            compiled, _ = await self._submit(name, source, options)
        return compiled

    async def _supervise_pool_failure(self):
        """Replace a broken executor exactly once per failure: every
        request that saw the same generation coalesces on the lock and
        only the first rebuilds."""
        generation = self._pool_generation
        async with self._pool_lock:
            if self._pool_generation != generation:
                return  # a sibling request already rebuilt the pool
            broken = self._executor
            # _build_executor spawns and probes workers — run it off the
            # event loop so a slow spawn cannot stall accept/status.
            self._executor, self.pool_kind = await self._loop.run_in_executor(
                None, self._build_executor)
            self._pool_generation += 1
            self.metrics.pool_rebuilt()
            obs = current_collector()
            if obs.enabled:
                obs.event("service", "pool_rebuild",
                          generation=self._pool_generation,
                          pool=self.pool_kind)
            broken.shutdown(wait=False, cancel_futures=True)

    async def _await_with_deadline(self, awaitable, deadline):
        """``await`` under the request deadline; the compile is shielded,
        so an expiry answers at once and the abandoned pool work still
        settles through :meth:`_settle`."""
        if deadline is None:
            return await awaitable
        return await asyncio.wait_for(asyncio.shield(awaitable), deadline)

    # -- request handlers ----------------------------------------------------

    async def _refuse(self, request, send, code, message, units=1, **extra):
        """Count one refused request and send its error reply."""
        self.metrics.reject(code, units=units)
        await send(error_response(request, code, message, **extra))

    async def _run_admitted(self, request, send, what, programs):
        """The admission step both compile handlers share: parse the
        request's options and deadline, admit one slot per ``(name,
        source)`` of ``programs``, and compile them under the deadline.

        Returns the :class:`~repro.batch.driver.CompiledProgram` list in
        order, or ``None`` once a refusal, ``deadline`` or ``internal``
        reply has gone out; ``what`` names the request in the deadline
        message."""
        try:
            options = request_options(request, self.config)
            deadline = request_deadline(request, self.config)
        except ProtocolError as error:
            await self._refuse(request, send, E_BAD_REQUEST, str(error))
            return None
        units = len(programs)
        code = self._admit(units)
        if code is not None:
            await self._refuse(request, send, code, ADMISSION_MESSAGES[code],
                               units=units,
                               retry_after_s=self._retry_after())
            return None
        futures = [self._loop.create_task(self._compile(name, source, options))
                   for name, source in programs]
        try:
            return await self._await_with_deadline(asyncio.gather(*futures),
                                                   deadline)
        except asyncio.TimeoutError:
            for future in futures:
                future.cancel()  # lands only if the pool has not started it
            self.metrics.expire_deadline(units=units)
            await send(error_response(
                request, E_DEADLINE,
                f"deadline of {deadline:g}s expired before the {what} "
                f"finished", deadline_s=deadline))
        except Exception as error:  # worker-pool failure, not a ReproError
            self.metrics.internal_error()
            await send(error_response(request, E_INTERNAL,
                                      f"{type(error).__name__}: {error}"))
        return None

    async def _handle_compile(self, request, send):
        received = time.monotonic()
        source = request.get("source")
        delta = request.get("type") == "compile_delta"
        if not isinstance(source, str):
            await self._refuse(request, send, E_BAD_REQUEST,
                               f"{request.get('type')} requests need a "
                               f"string 'source' field")
            return
        # No base digest: still a delta compile, just without
        # changed-interval diagnostics.
        base = request.get("base") or None
        if delta and base is not None and not isinstance(base, str):
            await self._refuse(request, send, E_BAD_REQUEST,
                               "compile_delta 'base' must be a string digest")
            return
        if delta and self.cache is None:
            await self._refuse(request, send, E_UNAVAILABLE,
                               "compile_delta needs the service cache; this "
                               "service runs with use_cache=False")
            return
        results = await self._run_admitted(
            request, send, "compile",
            [(request.get("name") or "<request>", source)])
        if results is None:
            return
        compiled, = results
        if delta:
            interval_diff(self.cache, compiled, source, base)
        self.metrics.observe(compiled, time.monotonic() - received)
        await send(ok_response(request, result=compiled.as_dict()))

    async def _handle_batch(self, request, send):
        received = time.monotonic()
        programs = await self._batch_programs(request, send)
        if programs is None:
            return
        results = await self._run_admitted(
            request, send, "batch",
            [(p.get("name") or f"<batch-{index}>", p["source"])
             for index, p in enumerate(programs)])
        if results is None:
            return
        total = time.monotonic() - received
        for compiled in results:
            self.metrics.observe(compiled, total)
        await send(ok_response(
            request,
            results=[compiled.as_dict() for compiled in results],
            ok_count=sum(1 for c in results if c.ok),
            error_count=sum(1 for c in results if not c.ok),
            cache_hits=sum(1 for c in results if c.cache_hit),
        ))

    async def _handle_drain(self, request, send):
        obs = current_collector()
        if obs.enabled:
            obs.event("service", "drain", inflight=self.metrics.queue_depth)
        self._draining = True
        await self._idle.wait()
        await send(ok_response(request, drained=True,
                               completed=self.metrics.completed,
                               failed=self.metrics.failed))
        self._spawn(self.shutdown(drain=False))


async def _serve_main(config, out):
    import signal

    service = CompileService(config)
    await service.start()
    if out is not None:
        out.write(f"repro-service listening on {service.host}:{service.port} "
                  f"(workers={service.workers}, pool={service.pool_kind}, "
                  f"queue_limit={service.config.queue_limit})\n")
        if hasattr(out, "flush"):
            out.flush()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError,
                                 ValueError):
            loop.add_signal_handler(
                signum, service.begin_shutdown, service.shutdown)
    await service.wait_closed()


def run_service(config=None, out=None):
    """Run a service in the foreground until drained or signalled —
    the body of ``repro serve``."""
    try:
        asyncio.run(_serve_main(config, out))
    except KeyboardInterrupt:
        pass
