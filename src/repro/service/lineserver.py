"""The line-protocol server core of the compile service and the fleet router.

:class:`LineServer` owns what both servers of ``repro-service/1``
(:mod:`repro.service.protocol`) do alike: the listening socket, the
per-connection read loop (line cap, blank lines, parsing, one write
lock), the dispatch (``ping`` and ``status`` inline, every other request
type as a task it holds a strong reference to), connection tracking and
severing, the batch-shape check, and shutdown once (``_closing``,
``_stopped``, :meth:`~LineServer.wait_closed`).

A role — :class:`~repro.service.server.CompileService` or
:class:`~repro.fleet.router.FleetRouter` — supplies ``_handle_compile``,
``_handle_batch`` and ``_handle_drain``, a ``metrics`` object with
``receive()`` and ``reject(code)``, ``status()``, ``_ping_fields()`` and
``_teardown(abort)``.  :class:`~repro.service.runner.LoopThread` runs
either on a background event-loop thread.
"""

import asyncio
import contextlib

from repro.service.protocol import (
    E_BAD_REQUEST,
    MAX_LINE_BYTES,
    PROTOCOL,
    ProtocolError,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)


class LineServer:
    """One newline-JSON server (see the module docstring).

    ``config`` carries the listen address: ``host`` and ``port``
    (``port=0`` binds an ephemeral port; :meth:`start` records the bound
    one in ``self.port``)."""

    def __init__(self, config):
        self.config = config
        self.host = config.host
        self.port = None
        self._server = None
        self._loop = None
        self._draining = False
        self._closing = False
        self._stopped = None
        #: Open connection -> the set of its in-flight handler tasks.
        self._connections = {}
        self._tasks = set()

    async def start(self):
        """Bind the listening socket."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_client, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self

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

    # -- shutdown ------------------------------------------------------------

    def begin_shutdown(self, shutdown):
        """Start ``shutdown()`` unless a shutdown already owns this server.

        Call it on the loop thread.  The coroutine is created only when
        the loop will run it: a client's drain may already be closing the
        loop, and a coroutine handed to a loop that never runs again would
        be dropped unawaited."""
        if not self._closing:
            self._spawn(shutdown())

    async def shutdown(self):
        """Stop gracefully: close the listener, run the role's teardown,
        close each connection once its in-flight handlers have replied,
        and wait until the listener has let go of every connection.

        Closing the connections is what ends the read loops of clients
        that never hung up: since Python 3.12.1,
        ``asyncio.Server.wait_closed`` waits for every open connection."""
        await self._stop(abort=False)

    async def abort(self):
        """Die like a crashed process: no drain, no goodbyes.

        The listening socket closes, every open connection is reset
        (clients see ``ECONNRESET``, not a clean EOF), and the role's
        teardown runs in its abort form.  This is the fleet chaos
        harness's ``kill_shard`` primitive — production code wants
        :meth:`shutdown`."""
        await self._stop(abort=True)

    async def _stop(self, abort):
        self._draining = True
        if self._closing:
            await self._stopped.wait()
            return
        self._closing = True
        self._server.close()
        if abort:
            await self.sever_connections()
        self._teardown(abort)
        if not abort:
            for writer, handlers in list(self._connections.items()):
                if handlers:
                    await asyncio.wait(handlers)
                writer.close()
            await self._server.wait_closed()
        self._stopped.set()

    def _teardown(self, abort):
        """The role's own teardown, run once the listener has closed."""

    async def wait_closed(self):
        await self._stopped.wait()

    async def sever_connections(self):
        """Abruptly reset every open client connection (in-flight work
        keeps running and stays accounted for) — the chaos harness's
        torn-network primitive.  Returns how many were reset."""
        severed = 0
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.transport.abort()
                severed += 1
        return severed

    # -- the wire ------------------------------------------------------------

    def _ping_fields(self):
        """The payload of a ``ping`` reply."""
        return {"protocol": PROTOCOL}

    async def _serve_client(self, reader, writer):
        if self._closing:
            # Accepted just before the listener closed: the shutdown has
            # already closed the connections it knew of.
            writer.close()
            return
        handlers = self._connections[writer] = set()
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
                    # readline.  End the handler quietly: the
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
                    self.metrics.receive()
                    self.metrics.reject(E_BAD_REQUEST)
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
                    await send(ok_response(request, **self._ping_fields()))
                elif rtype == "status":
                    await send(ok_response(request, status=self.status()))
                else:
                    if rtype == "drain":
                        handler = self._handle_drain
                    elif rtype == "batch":
                        handler = self._handle_batch
                    else:
                        handler = self._handle_compile
                    task = self._spawn(handler(request, send))
                    handlers.add(task)
                    task.add_done_callback(handlers.discard)
        finally:
            # In-flight tasks keep running (their sends no-op if the
            # client is gone); just tear the connection down.  No await
            # here: this finally also runs when the task is cancelled
            # during loop shutdown, and awaiting would re-raise there.
            del self._connections[writer]
            with contextlib.suppress(Exception):
                writer.close()

    async def _batch_programs(self, request, send):
        """The ``programs`` of a batch request, or ``None`` once a
        ``bad_request`` reply has gone out: they must be a non-empty list
        of ``{name, source}`` objects."""
        programs = request.get("programs")
        if (isinstance(programs, list) and programs
                and all(isinstance(p, dict)
                        and isinstance(p.get("source"), str)
                        for p in programs)):
            return programs
        self.metrics.reject(E_BAD_REQUEST)
        await send(error_response(
            request, E_BAD_REQUEST,
            "batch requests need a non-empty 'programs' list of "
            "{name, source} objects"))
        return None
