"""In-process service harness: a real TCP server on a background thread.

The tests, the ``--service`` benchmark, and interactive sessions all
need a genuine :class:`~repro.service.server.CompileService` — real
sockets, real admission, real pool — without managing a subprocess.
:class:`ThreadedServer` runs the service's event loop on a daemon
thread, blocks :meth:`start` until the port is bound (surfacing startup
errors in the caller), and tears down via the same graceful
:meth:`~repro.service.server.CompileService.shutdown` path the drain
request uses.

::

    with ThreadedServer(ServiceConfig(pool="thread", workers=2)) as server:
        with ServiceClient(port=server.port) as client:
            client.compile(source)
"""

import asyncio
import contextlib
import threading

from repro.service.server import CompileService


class ThreadedServer:
    """Run a :class:`CompileService` on a private event-loop thread."""

    def __init__(self, config=None, timeout_s=60.0):
        self.config = config
        self.service = None
        self._thread = None
        self._loop = None
        self._ready = threading.Event()
        self._error = None
        self._timeout = timeout_s

    def start(self):
        """Start the loop thread; returns once the socket is bound."""
        self._thread = threading.Thread(target=self._run,
                                        name="repro-service-loop",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(self._timeout):
            raise RuntimeError("compile service did not start in time")
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
        self.service = CompileService(self.config)
        self._loop = asyncio.get_running_loop()
        try:
            await self.service.start()
        except Exception as error:
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self.service.wait_closed()

    @property
    def host(self):
        return self.service.host

    @property
    def port(self):
        return self.service.port

    def stop(self, drain=True):
        """Shut the service down (gracefully by default) and join the
        loop thread.  Idempotent: a server already drained by a client
        just joins."""
        stop_loop_thread(self._thread, self._loop, self.service,
                         lambda: self.service.shutdown(drain=drain),
                         self._timeout)

    def kill(self):
        """Kill the service like a crashed process: connections reset,
        workers shot, nothing drained (the chaos harness's shard-kill
        primitive; see :meth:`CompileService.abort`)."""
        stop_loop_thread(self._thread, self._loop, self.service,
                         lambda: self.service.abort(),
                         self._timeout)

    __enter__ = start

    def __exit__(self, *exc_info):
        self.stop()


def stop_loop_thread(thread, loop, owner, shutdown, timeout):
    """Run ``shutdown()`` on ``owner``'s event loop, then join the loop
    thread.

    ``owner`` is a :class:`CompileService` or a
    :class:`~repro.fleet.router.FleetRouter`.  The coroutine is created
    by a callback on the loop thread, and only when no shutdown owns
    ``owner`` yet: a client's drain may already be closing the loop, and
    a coroutine handed to a loop that never runs again would be dropped
    unawaited while this thread waited out ``timeout`` for its result.
    When the loop is already closed, this just joins."""
    if thread is None or not thread.is_alive():
        return
    if owner is not None and loop is not None:
        def begin():
            if not owner._closing:
                owner._spawn(shutdown())

        with contextlib.suppress(RuntimeError):  # loop already closed
            loop.call_soon_threadsafe(begin)
    thread.join(timeout)
