"""In-process server harness: a real TCP server on a background thread.

The tests, the ``--service`` and ``--fleet`` benchmarks, ``repro fleet``
and interactive sessions all need a genuine server — real sockets, real
admission, real pool — without managing a subprocess.
:class:`LoopThread` runs one :class:`~repro.service.lineserver.LineServer`
on a daemon thread's event loop, blocks :meth:`~LoopThread.start` until
the port is bound (surfacing startup errors in the caller), and stops it
through the server's own shutdown.  :class:`ThreadedServer` runs a
:class:`~repro.service.server.CompileService` this way, and
:class:`~repro.fleet.harness.ThreadedRouter` a
:class:`~repro.fleet.router.FleetRouter`.

::

    with ThreadedServer(ServiceConfig(pool="thread", workers=2)) as server:
        with ServiceClient(port=server.port) as client:
            client.compile(source)
"""

import asyncio
import contextlib
import threading

from repro.service.server import CompileService


class LoopThread:
    """Run the server ``make_server()`` builds on a private event-loop
    thread named ``name``."""

    def __init__(self, make_server, name, timeout_s=60.0):
        self.server = None
        self._make_server = make_server
        self._name = name
        self._thread = None
        self._loop = None
        self._ready = threading.Event()
        self._error = None
        self._timeout = timeout_s

    def start(self):
        """Start the loop thread; returns once the socket is bound."""
        self._thread = threading.Thread(target=self._run, name=self._name,
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(self._timeout):
            raise RuntimeError(f"{self._name} did not start in time")
        if self._error is not None:
            raise self._error
        return self

    def _run(self):
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # pragma: no cover - defensive
            self._error = error
            self._ready.set()

    async def _amain(self):
        self._loop = asyncio.get_running_loop()
        self.server = self._make_server()
        try:
            await self.server.start()
        except Exception as error:
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self.server.wait_closed()

    @property
    def host(self):
        return self.server.host

    @property
    def port(self):
        return self.server.port

    def call(self, coroutine):
        """Run ``coroutine`` on the loop thread and return its result
        (``None`` when the loop has already closed)."""
        try:
            future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        except RuntimeError:  # loop already closed
            coroutine.close()
            return None
        return future.result(timeout=self._timeout)

    def status(self):
        """The server's status payload, read off the loop thread."""
        return self.server.status()

    def sever(self):
        """Reset every client connection into the server; returns how
        many were open."""
        return self.call(self.server.sever_connections()) or 0

    def stop(self):
        """Shut the server down gracefully and join the loop thread.
        Idempotent: a server a client already drained just joins."""
        self._finish(lambda: self.server.shutdown())

    def kill(self):
        """Kill the server like a crashed process: connections reset,
        nothing drained (the chaos harness's shard-kill primitive; see
        :meth:`~repro.service.lineserver.LineServer.abort`)."""
        self._finish(lambda: self.server.abort())

    def _finish(self, shutdown):
        """Have the server start ``shutdown()`` on its loop — unless a
        shutdown already owns it
        (:meth:`~repro.service.lineserver.LineServer.begin_shutdown`) —
        then join the loop thread.  When the loop has already closed,
        this just joins."""
        if self._thread is None or not self._thread.is_alive():
            return
        with contextlib.suppress(RuntimeError):  # loop already closed
            self._loop.call_soon_threadsafe(self.server.begin_shutdown,
                                            shutdown)
        self._thread.join(self._timeout)

    def join(self, timeout=None):
        """Block until the loop thread exits (a client's drain shuts the
        server down; this is how ``repro fleet`` waits)."""
        if self._thread is not None:
            self._thread.join(timeout)

    __enter__ = start

    def __exit__(self, *exc_info):
        self.stop()


class ThreadedServer(LoopThread):
    """Run a :class:`CompileService` on a private event-loop thread."""

    def __init__(self, config=None, timeout_s=60.0):
        super().__init__(lambda: CompileService(config),
                         "repro-service-loop", timeout_s)

    @property
    def service(self):
        return self.server

    def stop(self, drain=True):
        """Shut the service down (gracefully by default) and join the
        loop thread.  Idempotent: a server already drained by a client
        just joins."""
        self._finish(lambda: self.service.shutdown(drain=drain))
