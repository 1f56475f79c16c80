"""The resident compile server (``docs/serving.md``).

A :class:`CompileService` is the long-lived process the one-shot entry
points (``repro annotate``, ``repro batch``) cannot be: it pays
interpreter startup, worker spawn, and cache warmup **once**, then
serves compile requests over TCP while the batch layer's
content-addressed :class:`~repro.batch.cache.PipelineCache` of solved
programs stays warm across requests — the same overlap-and-amortize
idea GIVE-N-TAKE applies to communication, applied to the compiler
itself.

Division of labor:

* the **event loop** owns admission, metrics, deadlines, and the wire
  protocol — it never compiles anything, so a slow program cannot stall
  accept/status/drain handling;
* the **worker pool** (a ``ProcessPoolExecutor`` reusing
  :func:`repro.batch.driver._pool_compile` workers, or a thread pool
  where multiprocessing is unavailable) does the compiles, sharing
  cache warmth through the service's cache directory (process pool) or
  the service's own in-memory cache (thread pool).

Admission is a hard bound, not a silent queue: once ``queue_limit``
requests are in flight, new work is refused immediately with a ``busy``
error carrying ``retry_after_s`` — the client-visible backpressure that
keeps latency bounded under overload.  Per-request deadlines cancel the
*wait*, not the worker: an expired request gets its ``deadline`` reply
at once, the abandoned compile still releases its admission slot when
it finishes (so capacity accounting stays truthful), and a not-yet-
started pool task is cancelled outright.  ``drain`` flips the service
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
"""

import asyncio
import contextlib
import functools
import tempfile
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

from repro.batch.cache import PipelineCache
from repro.batch.driver import (
    _pool_compile,
    _pool_compile_delta,
    compile_delta,
    compile_one,
    resolve_jobs,
)
from repro.obs.collector import current_collector
from repro.service.config import ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    E_BAD_REQUEST,
    E_BUSY,
    E_DEADLINE,
    E_DRAINING,
    E_INTERNAL,
    E_UNAVAILABLE,
    MAX_LINE_BYTES,
    PROTOCOL,
    ProtocolError,
    encode_message,
    error_response,
    ok_response,
    parse_request,
    request_deadline,
    request_options,
)

#: Human messages for admission refusals.
ADMISSION_MESSAGES = {
    E_BUSY: "queue limit reached; retry after the suggested delay",
    E_DRAINING: "service is draining and accepts no new work",
}


class CompileService:
    """One resident compile service (see the module docstring).

    Lifecycle: ``await start()`` binds the socket and spins the pool up,
    ``await wait_closed()`` parks until a drain or :meth:`shutdown`
    finishes; :func:`run_service` packages both for the CLI and
    :class:`~repro.service.runner.ThreadedServer` for tests/benchmarks.
    """

    def __init__(self, config=None):
        self.config = config if config is not None else ServiceConfig()
        self.metrics = ServiceMetrics()
        self.workers = resolve_jobs(self.config.workers)
        self.pool_kind = None
        self.cache = None
        self.host = self.config.host
        self.port = None
        self._cache_tmp = None
        self._executor = None
        self._server = None
        self._loop = None
        self._draining = False
        self._closing = False
        self._idle = None
        self._stopped = None
        self._connections = set()
        self._tasks = set()
        self._pool_lock = None
        self._pool_generation = 0

    def _spawn(self, coroutine):
        """``create_task`` with a strong reference until done — the
        event loop only weak-refs its tasks, so a fire-and-forget
        handler with no other reference can be garbage-collected
        mid-await (the task dies with ``GeneratorExit``, the client
        never gets a reply)."""
        task = self._loop.create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind the socket, start the pool, warm the cache layer."""
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._pool_lock = asyncio.Lock()
        self._executor, self.pool_kind = self._build_executor()
        self._build_cache()
        self._server = await asyncio.start_server(
            self._serve_client, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
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

    def _build_cache(self):
        if not self.config.use_cache:
            return
        directory = self.config.cache_dir
        if directory is None and self.pool_kind == "process":
            # Pool workers are separate processes: warmth is shared
            # through the filesystem, so give the service-private cache
            # a service-lifetime directory.
            self._cache_tmp = tempfile.TemporaryDirectory(
                prefix="repro-service-cache-")
            directory = self._cache_tmp.name
        self.cache = PipelineCache(directory=directory)

    async def shutdown(self, drain=True):
        """Stop the service; with ``drain`` wait for in-flight work."""
        self._draining = True
        if drain:
            await self._idle.wait()
        if self._closing:
            await self._stopped.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._executor is not None:
            # In-flight work is done (idle) or abandoned past its
            # deadline; cancel anything still queued and reap workers.
            self._executor.shutdown(wait=True, cancel_futures=True)
        if self._cache_tmp is not None:
            self._cache_tmp.cleanup()
        self._stopped.set()

    async def wait_closed(self):
        await self._stopped.wait()

    async def abort(self):
        """Die like a crashed shard: no drain, no goodbyes.

        The listening socket closes, every open connection is reset
        (clients see ``ECONNRESET``, not a clean EOF), and pool workers
        are killed outright.  This is the fleet chaos harness's
        ``kill_shard`` primitive — production code wants
        :meth:`shutdown`."""
        self._draining = True
        if self._closing:
            await self._stopped.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.transport.abort()
        if self._executor is not None:
            processes = getattr(self._executor, "_processes", None)
            if processes:
                for process in list(processes.values()):
                    with contextlib.suppress(Exception):
                        process.kill()
            self._executor.shutdown(wait=False, cancel_futures=True)
        if self._cache_tmp is not None:
            with contextlib.suppress(Exception):
                self._cache_tmp.cleanup()
        self._stopped.set()

    async def sever_connections(self):
        """Abruptly reset every open client connection (in-flight work
        keeps running and stays accounted for) — the chaos harness's
        torn-network primitive."""
        severed = 0
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.transport.abort()
                severed += 1
        return severed

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

    def _release_slot(self, future):
        """Done-callback on every pool future: free the admission slot
        (even for abandoned, deadline-expired work) and swallow the
        exception of a future nobody awaits anymore."""
        self.metrics.release(1)
        if self.metrics.queue_depth == 0:
            self._idle.set()
        if not future.cancelled():
            future.exception()

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
        return round(min(self.config.max_retry_after_s,
                         max(0.01, estimate)), 4)

    # -- execution -----------------------------------------------------------

    def _submit(self, name, source, options, base=None):
        """Schedule one compile on the pool; returns an asyncio future
        whose admission slot is released when the work truly finishes.

        ``base=<digest or "">`` marks an incremental (``compile_delta``)
        request; a plain compile passes ``base=None``.  A pool so broken
        that ``submit`` itself raises releases the slot synchronously,
        so every attempt frees exactly one slot no matter how it dies."""
        if self.pool_kind == "process":
            cache_dir = self.cache.directory if self.cache is not None else None
            if base is not None:
                call = functools.partial(
                    _pool_compile_delta, (name, source), cache_dir=cache_dir,
                    use_cache=self.cache is not None, options=options,
                    base_digest=base or None)
            else:
                call = functools.partial(
                    _pool_compile, (name, source), cache_dir=cache_dir,
                    use_cache=self.cache is not None, options=options)
        elif base is not None:
            call = functools.partial(compile_delta, name, source, self.cache,
                                     options=options,
                                     base_digest=base or None)
        else:
            call = functools.partial(compile_one, name, source, self.cache,
                                     options)
        try:
            future = self._loop.run_in_executor(self._executor, call)
        except BrokenExecutor:
            self.metrics.release(1)
            if self.metrics.queue_depth == 0:
                self._idle.set()
            raise
        future.add_done_callback(self._release_slot)
        return future

    async def _run_supervised(self, name, source, options, base=None):
        """One compile under worker-pool supervision: a broken executor
        (a worker crashed mid-compile) is rebuilt and the request
        requeued once instead of failing the connection."""
        try:
            return await self._submit(name, source, options, base=base)
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
            return await self._submit(name, source, options, base=base)

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
        """``await`` under the request deadline; the underlying pool
        futures are shielded so abandoned work still settles slots."""
        if deadline is None:
            return await awaitable
        return await asyncio.wait_for(asyncio.shield(awaitable), deadline)

    # -- the wire ------------------------------------------------------------

    async def _serve_client(self, reader, writer):
        self._connections.add(writer)
        write_lock = asyncio.Lock()

        async def send(payload):
            try:
                async with write_lock:
                    writer.write(encode_message(payload))
                    await writer.drain()
            except (ConnectionError, RuntimeError):
                # Client went away; the work stays accounted for.
                pass

        try:
            while True:
                try:
                    line = await reader.readline()
                except asyncio.CancelledError:
                    # Loop shutdown cancelled a connection parked in
                    # readline (a client that never disconnected before
                    # a drain finished).  End the handler quietly: the
                    # asyncio.start_server completion callback would
                    # otherwise log the CancelledError as an "Exception
                    # in callback" traceback.  Nothing awaits this task,
                    # so absorbing the cancellation is safe.
                    break
                except ConnectionError:
                    # Peer vanished without a FIN (reset, severed by
                    # chaos, router hung up mid-forward) — same as a
                    # clean disconnect from our side.
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    await send(error_response(
                        {}, E_BAD_REQUEST,
                        f"request line over {MAX_LINE_BYTES} bytes"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self.metrics.receive()
                try:
                    request = parse_request(line)
                except ProtocolError as error:
                    self.metrics.reject(E_BAD_REQUEST)
                    await send(error_response({}, E_BAD_REQUEST, str(error)))
                    continue
                rtype = request["type"]
                if rtype == "ping":
                    await send(ok_response(request, protocol=PROTOCOL))
                elif rtype == "status":
                    await send(ok_response(request, status=self.status()))
                elif rtype == "drain":
                    self._spawn(self._handle_drain(request, send))
                elif rtype == "batch":
                    self._spawn(self._handle_batch(request, send))
                else:
                    self._spawn(self._handle_compile(request, send))
        finally:
            # In-flight tasks keep running (their sends no-op if the
            # client is gone); just tear the connection down.  No await
            # here: this finally also runs when the task is cancelled
            # during server close, and awaiting would re-raise there.
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    # -- request handlers ----------------------------------------------------

    async def _handle_compile(self, request, send):
        received = time.monotonic()
        source = request.get("source")
        name = request.get("name") or "<request>"
        delta = request.get("type") == "compile_delta"
        if not isinstance(source, str):
            self.metrics.reject(E_BAD_REQUEST)
            await send(error_response(
                request, E_BAD_REQUEST,
                f"{request.get('type')} requests need a string 'source' "
                f"field"))
            return
        base = None
        if delta:
            # The empty string marks "delta with no base digest": still
            # an incremental compile, just without changed-interval
            # diagnostics (the replay is content-addressed either way).
            base = request.get("base") or ""
            if not isinstance(base, str):
                self.metrics.reject(E_BAD_REQUEST)
                await send(error_response(
                    request, E_BAD_REQUEST,
                    "compile_delta 'base' must be a string digest"))
                return
            if self.cache is None:
                self.metrics.reject(E_UNAVAILABLE)
                await send(error_response(
                    request, E_UNAVAILABLE,
                    "compile_delta needs the service cache; this service "
                    "runs with use_cache=False"))
                return
        try:
            options = request_options(request, self.config)
            deadline = request_deadline(request, self.config)
        except ProtocolError as error:
            self.metrics.reject(E_BAD_REQUEST)
            await send(error_response(request, E_BAD_REQUEST, str(error)))
            return
        code = self._admit(1)
        if code is not None:
            self.metrics.reject(code)
            await send(error_response(request, code, ADMISSION_MESSAGES[code],
                                      retry_after_s=self._retry_after()))
            return
        future = self._loop.create_task(
            self._run_supervised(name, source, options, base=base))
        try:
            compiled = await self._await_with_deadline(future, deadline)
        except asyncio.TimeoutError:
            future.cancel()  # lands only if the pool has not started it
            self.metrics.expire_deadline()
            await send(error_response(
                request, E_DEADLINE,
                f"deadline of {deadline:g}s expired before the compile "
                f"finished", deadline_s=deadline))
            return
        except asyncio.CancelledError:
            raise
        except Exception as error:  # worker-pool failure, not a ReproError
            self.metrics.internal_error()
            await send(error_response(request, E_INTERNAL,
                                      f"{type(error).__name__}: {error}"))
            return
        self.metrics.observe(compiled, time.monotonic() - received)
        await send(ok_response(request, result=compiled.as_dict()))

    async def _handle_batch(self, request, send):
        received = time.monotonic()
        programs = request.get("programs")
        if (not isinstance(programs, list) or not programs
                or not all(isinstance(p, dict)
                           and isinstance(p.get("source"), str)
                           for p in programs)):
            self.metrics.reject(E_BAD_REQUEST)
            await send(error_response(
                request, E_BAD_REQUEST,
                "batch requests need a non-empty 'programs' list of "
                "{name, source} objects"))
            return
        try:
            options = request_options(request, self.config)
            deadline = request_deadline(request, self.config)
        except ProtocolError as error:
            self.metrics.reject(E_BAD_REQUEST)
            await send(error_response(request, E_BAD_REQUEST, str(error)))
            return
        units = len(programs)
        code = self._admit(units)
        if code is not None:
            self.metrics.reject(code, units=units)
            await send(error_response(request, code, ADMISSION_MESSAGES[code],
                                      retry_after_s=self._retry_after()))
            return
        futures = [
            self._loop.create_task(self._run_supervised(
                p.get("name") or f"<batch-{index}>", p["source"], options))
            for index, p in enumerate(programs)
        ]
        try:
            results = await self._await_with_deadline(
                asyncio.gather(*futures), deadline)
        except asyncio.TimeoutError:
            for future in futures:
                future.cancel()
            self.metrics.expire_deadline(units=units)
            await send(error_response(
                request, E_DEADLINE,
                f"deadline of {deadline:g}s expired before the batch "
                f"finished", deadline_s=deadline))
            return
        except asyncio.CancelledError:
            raise
        except Exception as error:
            self.metrics.internal_error()
            await send(error_response(request, E_INTERNAL,
                                      f"{type(error).__name__}: {error}"))
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
                signum,
                lambda: service._spawn(service.shutdown(drain=True)))
    await service.wait_closed()


def run_service(config=None, out=None):
    """Run a service in the foreground until drained or signalled —
    the body of ``repro serve``."""
    try:
        asyncio.run(_serve_main(config, out))
    except KeyboardInterrupt:
        pass
