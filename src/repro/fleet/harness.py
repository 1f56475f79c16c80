"""In-process fleet harness: K real shards + a real router, one call.

The fleet counterpart of :class:`~repro.service.runner.ThreadedServer`:
everything runs in this process (each shard's event loop on its own
daemon thread, the router's on another, each a
:class:`~repro.service.lineserver.LineServer` run by the one
:class:`~repro.service.runner.LoopThread` runner), but over real TCP
sockets with real admission, real pools, and real failure modes — which
is exactly what the chaos harness (:mod:`repro.fleet.chaos`) needs to
kill things under load without managing subprocesses.

::

    with LocalFleet(n_shards=3) as fleet:
        with ServiceClient(port=fleet.port) as client:
            client.compile(source)          # routed by source digest
        fleet.kill_shard(0)                 # requests re-route
        fleet.crash_worker(1)               # shard 1 supervises + requeues

:class:`LocalFleet` also exposes the chaos primitives —
:meth:`~LocalFleet.kill_shard`, :meth:`~LocalFleet.crash_worker`,
:meth:`~LocalFleet.sever`, :meth:`~LocalFleet.delay_shard`,
:meth:`~LocalFleet.restart_shard` — that
:class:`~repro.fleet.chaos.ChaosPlan` events map onto.
"""

import contextlib
import dataclasses
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

from repro.fleet.router import FleetRouter
from repro.service.config import ServiceConfig
from repro.service.runner import LoopThread, ThreadedServer


class ThreadedRouter(LoopThread):
    """Run a :class:`FleetRouter` on a private event-loop thread."""

    def __init__(self, shard_addresses, config=None, timeout_s=60.0):
        shard_addresses = list(shard_addresses)
        super().__init__(lambda: FleetRouter(shard_addresses, config),
                         "repro-fleet-router", timeout_s)

    @property
    def router(self):
        return self.server


class LocalFleet:
    """``n_shards`` compile shards plus a router, all in this process.

    ``service_config`` is the template for every shard (its ``port`` is
    ignored — each shard binds an ephemeral port, remembered so
    :meth:`restart_shard` can rebind the same address the ring knows).
    Shards keep private caches by default; pass a ``cache_dir`` template
    to share one (the affinity story is cleaner with private caches:
    a re-routed request is a cache miss, a home-routed one a hit).
    """

    def __init__(self, n_shards=3, service_config=None, fleet_config=None):
        if n_shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self.n_shards = n_shards
        base = service_config if service_config is not None else \
            ServiceConfig(pool="thread", workers=2)
        self._shard_configs = [dataclasses.replace(base, port=0)
                               for _ in range(n_shards)]
        self.fleet_config = fleet_config
        self.shards = []
        self.router = None
        self.killed = set()

    def start(self):
        self.shards = []
        try:
            for index in range(self.n_shards):
                shard = ThreadedServer(self._shard_configs[index]).start()
                # Remember the bound port so a restart reuses the
                # address the router's ring already routes to.
                self._shard_configs[index] = dataclasses.replace(
                    self._shard_configs[index], port=shard.port)
                self.shards.append(shard)
            self.router = ThreadedRouter(
                [(shard.host, shard.port) for shard in self.shards],
                self.fleet_config).start()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self):
        if self.router is not None:
            self.router.stop()
        for server in self.shards:
            with contextlib.suppress(Exception):
                server.stop(drain=False)

    @property
    def host(self):
        return self.router.host

    @property
    def port(self):
        """The one address clients talk to: the router's."""
        return self.router.port

    def alive_shards(self):
        return [index for index in range(len(self.shards))
                if index not in self.killed]

    # -- chaos primitives ----------------------------------------------------

    def kill_shard(self, index):
        """Kill shard ``index`` like a crashed process: connections
        reset, workers shot, nothing drained."""
        self.shards[index].kill()
        self.killed.add(index)
        return f"shard-{index} killed"

    def restart_shard(self, index):
        """Bring a killed shard back on its original address (the
        router's heartbeat closes its breaker again within a few
        beats)."""
        if index not in self.killed:
            raise ValueError(f"shard-{index} is not killed")
        shard = ThreadedServer(self._shard_configs[index]).start()
        self.shards[index] = shard
        self.killed.discard(index)
        return f"shard-{index} restarted on port {shard.port}"

    def crash_worker(self, index):
        """Crash one pool worker inside shard ``index``.

        Process pools get the real thing — ``SIGKILL`` on a live worker
        pid, so in-flight futures and the next submit raise
        :class:`BrokenProcessPool`.  Thread pools (workers can't be
        killed) get a one-shot submit wrapper raising the same
        exception, which exercises the identical supervision path:
        rebuild, requeue once, count it."""
        service = self.shards[index].service
        executor = service._executor
        processes = getattr(executor, "_processes", None)
        if processes:
            pid = next(iter(processes))
            os.kill(pid, signal.SIGKILL)
            return f"shard-{index}: SIGKILL worker {pid}"
        original = executor.submit

        def broken_submit(*args, **kwargs):
            executor.submit = original
            raise BrokenProcessPool("induced worker crash (chaos)")

        executor.submit = broken_submit
        return f"shard-{index}: next submit raises BrokenProcessPool"

    def sever(self):
        """Abort every open connection — clients into the router and
        clients directly into live shards.  In-flight forwards die with
        resets; the router re-routes, clients resend."""
        severed = self.router.sever()
        for index in self.alive_shards():
            severed += self.shards[index].sever()
        return f"severed {severed} connection(s)"

    def delay_shard(self, index, seconds=0.5):
        """Turn shard ``index`` into a straggler: occupy every pool
        worker with a sleep, so real requests queue behind it (what
        hedging exists to beat)."""
        service = self.shards[index].service
        workers = getattr(service._executor, "_max_workers", 1)
        for _ in range(workers):
            service._executor.submit(time.sleep, seconds)
        return f"shard-{index}: {workers} worker(s) held {seconds}s"

    __enter__ = start

    def __exit__(self, *exc_info):
        self.stop()


def run_fleet(n_shards=3, service_config=None, fleet_config=None,
              announce=None):
    """Blocking entry point behind ``repro fleet``: start a local
    fleet, hand the started :class:`LocalFleet` to ``announce``, then
    serve until a client drains the router (or the user interrupts)."""
    fleet = LocalFleet(n_shards=n_shards, service_config=service_config,
                       fleet_config=fleet_config).start()
    try:
        if announce is not None:
            announce(fleet)
        fleet.router.join()
    except KeyboardInterrupt:
        pass
    finally:
        fleet.stop()
    return fleet
