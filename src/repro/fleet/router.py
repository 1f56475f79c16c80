"""The fleet router: one address in front of K compile shards.

:class:`FleetRouter` is an asyncio TCP server speaking the same
newline-delimited JSON protocol as a single
:class:`~repro.service.server.CompileService`, so every existing client
(:class:`~repro.service.client.ServiceClient`, ``repro request``) works
against a fleet unchanged.  What it adds is placement and fault
tolerance (``docs/serving.md``):

* **cache affinity** — requests are consistent-hashed by source digest
  (:class:`~repro.fleet.health.HashRing`), so a resubmitted program
  lands on the shard whose :class:`~repro.batch.cache.PipelineCache`
  already holds its solved state; a ``compile_delta`` request carrying
  a ``base`` digest routes by that digest *verbatim* — the edited text
  hashes differently, but the warm interval solves it wants to splice
  live on the shard that compiled the **base**;
* **health** — a heartbeat ping per shard feeds a per-shard
  :class:`~repro.fleet.health.CircuitBreaker`; an open breaker takes
  the shard out of rotation until a half-open probe succeeds;
* **failover** — a forward that fails at the connection level (shard
  died, connection severed, attempt timed out) is transparently
  re-routed down the ring's deterministic failover sequence and
  recompiled (compiles are pure functions of source + options, so a
  request that may or may not have completed on the dead shard is
  always safe to resend);
* **spill** — a shard refusing with ``busy``/``draining`` backpressure
  diverts the request to the least-loaded remaining shard instead of
  bouncing the refusal to the client (work-stealing overflow rather
  than static assignment);
* **hedging** — optionally (``hedge_delay_s``), a forward that has not
  answered within the delay gets one duplicate request on the next
  healthy shard; first answer wins, the loser is cancelled.  This
  bounds tail latency under stragglers at the cost of (rare) duplicate
  compiles — which are idempotent.

The router holds no compile state of its own: admission, deadlines, and
caching all live in the shards, so the router stays O(1) per request
and a router restart loses nothing but open sockets.
"""

import asyncio
import contextlib
import time
from dataclasses import dataclass

from repro.batch.cache import source_fingerprint
from repro.fleet.health import CLOSED, CircuitBreaker, HashRing
from repro.obs.collector import current_collector
from repro.service.protocol import (
    E_BAD_REQUEST,
    E_BUSY,
    E_DRAINING,
    E_UNAVAILABLE,
    MAX_LINE_BYTES,
    PROTOCOL,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)

#: Error codes that mean "this shard is refusing work right now" —
#: the router spills these to another shard instead of passing them
#: through.
REFUSAL_CODES = (E_BUSY, E_DRAINING)


@dataclass
class FleetConfig:
    """Knobs of one router instance.

    * ``host`` / ``port`` — listen address (``port=0`` ephemeral).
    * ``heartbeat_s`` — shard ping interval.
    * ``probe_timeout_s`` — heartbeat ping reply timeout.
    * ``connect_timeout_s`` — dialing a shard.
    * ``attempt_timeout_s`` — optional cap on one forwarded attempt's
      full round-trip (``None``: rely on resets and hedging).
    * ``failure_threshold`` / ``reset_timeout_s`` — breaker tuning
      (consecutive failures to trip; seconds until a half-open probe).
    * ``hedge_delay_s`` — duplicate an unanswered forward on another
      shard after this many seconds (``None`` disables hedging).
    * ``max_attempts`` — bound on forward attempts per request
      (re-routes and spills both consume attempts).
    * ``virtual_nodes`` — hash-ring replicas per shard.
    """

    host: str = "127.0.0.1"
    port: int = 0
    heartbeat_s: float = 0.25
    probe_timeout_s: float = 1.0
    connect_timeout_s: float = 2.0
    attempt_timeout_s: float = None
    failure_threshold: int = 3
    reset_timeout_s: float = 1.0
    hedge_delay_s: float = None
    max_attempts: int = 3
    virtual_nodes: int = 64

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")


class ShardHandle:
    """Router-side view of one shard: address, breaker, load gauges."""

    def __init__(self, name, host, port, config):
        self.name = name
        self.host = host
        self.port = port
        self.breaker = CircuitBreaker(
            failure_threshold=config.failure_threshold,
            reset_timeout_s=config.reset_timeout_s)
        self.inflight = 0
        self.forwards = 0
        self.failures = 0

    def snapshot(self):
        payload = {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "inflight": self.inflight,
            "forwards": self.forwards,
            "failures": self.failures,
            "available": self.breaker.available,
        }
        payload.update(self.breaker.snapshot())
        return payload


class FleetMetrics:
    """Router-side counters (shard-side metrics live in the shards)."""

    def __init__(self):
        self.received = 0
        self.forwards = 0
        self.completed = 0
        self.rerouted = 0
        self.spilled = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.unavailable = 0
        self.bad_requests = 0
        self.started_monotonic = time.monotonic()

    def snapshot(self, breaker_opens=0):
        return {
            "received": self.received,
            "forwards": self.forwards,
            "completed": self.completed,
            "rerouted": self.rerouted,
            "spilled": self.spilled,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "unavailable": self.unavailable,
            "bad_requests": self.bad_requests,
            "breaker_opens": breaker_opens,
            "uptime_s": time.monotonic() - self.started_monotonic,
        }


class _ForwardError(Exception):
    """One forwarded attempt died at the connection level."""


def _retrieve(task):
    """Done callback: mark a finished task's exception as retrieved."""
    if not task.cancelled():
        task.exception()


async def _within(awaitable, timeout):
    """``asyncio.wait_for`` that never leaves an exception unretrieved.

    Before Python 3.12, ``wait_for`` runs ``awaitable`` as a task of its
    own.  When the caller is cancelled just as that task fails (a
    probe's connect erroring while shutdown cancels the heartbeat),
    ``wait_for`` cancels the task, waits for it and re-raises the
    cancellation without reading the task's exception, and asyncio logs
    "Task exception was never retrieved".  Reading it from a done
    callback keeps every outcome accounted for."""
    task = asyncio.ensure_future(awaitable)
    task.add_done_callback(_retrieve)
    return await asyncio.wait_for(task, timeout)


class FleetRouter:
    """Route compile traffic across shards (see the module docstring).

    ``shards`` is a list of ``(host, port)`` addresses of running
    :class:`~repro.service.server.CompileService` instances.
    """

    def __init__(self, shards, config=None):
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        self.config = config if config is not None else FleetConfig()
        self.shards = [
            ShardHandle(f"shard-{index}", host, port, self.config)
            for index, (host, port) in enumerate(shards)
        ]
        self._by_name = {shard.name: shard for shard in self.shards}
        self._ring = HashRing([shard.name for shard in self.shards],
                              virtual_nodes=self.config.virtual_nodes)
        self.metrics = FleetMetrics()
        self.host = self.config.host
        self.port = None
        self._server = None
        self._loop = None
        self._heartbeats = []
        self._connections = set()
        self._tasks = set()
        self._draining = False
        self._closing = False
        self._stopped = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_client, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._heartbeats = [
            self._loop.create_task(self._heartbeat(shard))
            for shard in self.shards
        ]
        obs = current_collector()
        if obs.enabled:
            obs.event("fleet", "start", host=self.host, port=self.port,
                      shards=len(self.shards))
        return self

    def _spawn(self, coroutine):
        """``create_task`` with a strong reference until done (the loop
        only weak-refs tasks; a fire-and-forget handler could be
        garbage-collected mid-await otherwise)."""
        task = self._loop.create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def shutdown(self):
        if self._closing:
            await self._stopped.wait()
            return
        self._closing = True
        self._draining = True
        for task in self._heartbeats:
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()

    async def wait_closed(self):
        await self._stopped.wait()

    async def sever_connections(self):
        """Abruptly reset every open client connection — the chaos
        harness's router-side torn-network primitive."""
        severed = 0
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.transport.abort()
                severed += 1
        return severed

    # -- introspection -------------------------------------------------------

    def home_shard(self, source):
        """The shard a compile of ``source`` has affinity with."""
        return self._by_name[self._ring.home(source_fingerprint(source))]

    def delta_home_shard(self, base_digest):
        """The shard a ``compile_delta`` against ``base_digest`` routes
        to — the base digest enters the ring verbatim (it already *is*
        the fingerprint the base compile was routed by)."""
        return self._by_name[self._ring.home(base_digest)]

    def status(self):
        """The ``status`` payload: fleet counters + shard table."""
        return {
            "server": {
                "protocol": PROTOCOL,
                "role": "fleet-router",
                "host": self.host,
                "port": self.port,
                "shards": len(self.shards),
                "heartbeat_s": self.config.heartbeat_s,
                "hedge_delay_s": self.config.hedge_delay_s,
                "max_attempts": self.config.max_attempts,
                "draining": self._draining,
            },
            "fleet": self.metrics.snapshot(
                breaker_opens=sum(s.breaker.opens for s in self.shards)),
            "shards": [shard.snapshot() for shard in self.shards],
        }

    # -- shard I/O -----------------------------------------------------------

    async def _roundtrip(self, shard, payload):
        """One request/response round-trip to ``shard`` over a fresh
        connection; raises :class:`_ForwardError` on any
        connection-level failure."""
        writer = None
        try:
            reader, writer = await _within(
                asyncio.open_connection(shard.host, shard.port,
                                        limit=MAX_LINE_BYTES),
                self.config.connect_timeout_s)
            writer.write(encode_message(payload))
            await writer.drain()
            read = reader.readline()
            if self.config.attempt_timeout_s is not None:
                read = _within(read, self.config.attempt_timeout_s)
            line = await read
            if not line:
                raise ConnectionResetError("shard closed the connection")
            return decode_message(line)
        except (OSError, asyncio.TimeoutError, ProtocolError,
                asyncio.IncompleteReadError, ValueError) as error:
            raise _ForwardError(f"{shard.name}: {type(error).__name__}: "
                                f"{error}") from error
        finally:
            if writer is not None:
                with contextlib.suppress(Exception):
                    writer.close()

    async def _try_shard(self, shard, payload):
        """One accounted forward attempt: load gauge, breaker verdict."""
        shard.inflight += 1
        try:
            reply = await self._roundtrip(shard, payload)
        except _ForwardError:
            # Only transport failures feed the breaker — a cancelled
            # hedge loser says nothing about the shard's health.
            shard.failures += 1
            shard.breaker.record_failure()
            raise
        else:
            shard.breaker.record_success()
            shard.forwards += 1
            self.metrics.forwards += 1
            return reply
        finally:
            shard.inflight -= 1

    async def _heartbeat(self, shard):
        """Ping ``shard`` forever; successes close its breaker,
        failures feed it (and perform the half-open probing)."""
        while not self._closing:
            try:
                await asyncio.sleep(self.config.heartbeat_s)
            except asyncio.CancelledError:
                return
            if shard.breaker.state != CLOSED and not shard.breaker.allow():
                continue  # open and not yet due for a probe
            try:
                reply = await _within(
                    self._roundtrip(shard, {"type": "ping"}),
                    self.config.probe_timeout_s)
                ok = bool(reply.get("ok"))
            except (_ForwardError, asyncio.TimeoutError):
                ok = False
            if self._closing:
                return
            if ok:
                shard.breaker.record_success()
            else:
                shard.breaker.record_failure()

    # -- routing -------------------------------------------------------------

    def _affinity_digest(self, request, source):
        """The digest a request enters the hash ring under.

        Plain compiles hash their own source.  A ``compile_delta``
        carrying a ``base`` digest routes by it **verbatim** — ``base``
        already is the :func:`~repro.batch.cache.source_fingerprint` of
        the base text, so re-hashing it would send the delta anywhere
        *but* the shard whose cache holds the base's interval solves."""
        if request.get("type") == "compile_delta":
            base = request.get("base")
            if isinstance(base, str) and base:
                return base
        return source_fingerprint(source)

    def _preference(self, digest):
        """Shards in failover order for an affinity digest (home
        first)."""
        order = self._ring.preference(digest)
        return [self._by_name[name] for name in order]

    async def _route(self, request, digest):
        """Forward ``request`` with failover, spill, and hedging; always
        returns a response dict (never raises for shard trouble).
        ``digest`` is the affinity digest (:meth:`_affinity_digest`)."""
        candidates = self._preference(digest)
        refusal = None
        attempts = 0
        rerouting = False
        while attempts < self.config.max_attempts and candidates:
            shard = None
            for index, candidate in enumerate(candidates):
                if candidate.breaker.allow():
                    shard = candidate
                    backups = candidates[index + 1:] + candidates[:index]
                    candidates = backups
                    break
            if shard is None:
                break
            attempts += 1
            if rerouting:
                self.metrics.rerouted += 1
            try:
                reply = await self._attempt(shard, backups, request)
            except _ForwardError:
                rerouting = True
                continue
            if not reply.get("ok"):
                code = (reply.get("error") or {}).get("code")
                if code in REFUSAL_CODES:
                    # Spill: try the least-loaded remaining shard.
                    refusal = reply
                    self.metrics.spilled += 1
                    candidates.sort(key=lambda s: s.inflight)
                    rerouting = False
                    continue
            self.metrics.completed += 1
            return reply
        if refusal is not None:
            return refusal  # every shard is refusing: surface backpressure
        self.metrics.unavailable += 1
        return error_response(
            request, E_UNAVAILABLE,
            f"no shard available after {attempts} attempt(s)",
            retry_after_s=round(self.config.reset_timeout_s / 2, 4))

    async def _attempt(self, shard, backups, request):
        """One forward, hedged onto a backup shard when the primary has
        not answered within ``hedge_delay_s``."""
        if self.config.hedge_delay_s is None or not backups:
            return await self._try_shard(shard, request)
        primary = self._loop.create_task(self._try_shard(shard, request))
        done, _ = await asyncio.wait({primary},
                                     timeout=self.config.hedge_delay_s)
        if done:
            return primary.result()
        backup_shard = next(
            (candidate for candidate in backups
             if candidate.breaker.allow()), None)
        if backup_shard is None:
            return await primary
        self.metrics.hedges += 1
        backup = self._loop.create_task(
            self._try_shard(backup_shard, request))
        pending = {primary, backup}
        first_error = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED)
            for task in done:
                try:
                    reply = task.result()
                except _ForwardError as error:
                    first_error = first_error or error
                    continue
                for loser in pending:
                    loser.cancel()
                if task is backup:
                    self.metrics.hedge_wins += 1
                return reply
        raise first_error

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
                pass  # client went away mid-reply

        try:
            while True:
                try:
                    line = await reader.readline()
                except asyncio.CancelledError:
                    break
                except ConnectionError:
                    break  # peer vanished without a FIN (reset, severed)
                except (asyncio.LimitOverrunError, ValueError):
                    await send(error_response(
                        {}, E_BAD_REQUEST,
                        f"request line over {MAX_LINE_BYTES} bytes"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self.metrics.received += 1
                try:
                    request = parse_request(line)
                except ProtocolError as error:
                    self.metrics.bad_requests += 1
                    await send(error_response({}, E_BAD_REQUEST, str(error)))
                    continue
                rtype = request["type"]
                if rtype == "ping":
                    await send(ok_response(request, protocol=PROTOCOL,
                                           role="fleet-router",
                                           shards=len(self.shards)))
                elif rtype == "status":
                    await send(ok_response(request, status=self.status()))
                elif rtype == "drain":
                    self._spawn(self._handle_drain(request, send))
                elif rtype == "batch":
                    self._spawn(self._handle_batch(request, send))
                else:
                    self._spawn(self._handle_compile(request, send))
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _handle_compile(self, request, send):
        if self._draining:
            await send(error_response(
                request, E_DRAINING, "fleet router is draining"))
            return
        source = request.get("source")
        if not isinstance(source, str):
            self.metrics.bad_requests += 1
            await send(error_response(
                request, E_BAD_REQUEST,
                "compile requests need a string 'source' field"))
            return
        await send(await self._route(
            request, self._affinity_digest(request, source)))

    async def _handle_batch(self, request, send):
        """Split a batch across the fleet: each program routes by its
        own digest (affinity per program), the replies reassemble into
        one batch response.  Any sub-request that ends in a refusal or
        transport error fails the whole batch with that error — same
        all-or-nothing contract as a single shard's admission."""
        if self._draining:
            await send(error_response(
                request, E_DRAINING, "fleet router is draining"))
            return
        programs = request.get("programs")
        if (not isinstance(programs, list) or not programs
                or not all(isinstance(p, dict)
                           and isinstance(p.get("source"), str)
                           for p in programs)):
            self.metrics.bad_requests += 1
            await send(error_response(
                request, E_BAD_REQUEST,
                "batch requests need a non-empty 'programs' list of "
                "{name, source} objects"))
            return
        subrequests = []
        for index, program in enumerate(programs):
            sub = {"type": "compile",
                   "name": program.get("name") or f"<batch-{index}>",
                   "source": program["source"]}
            for key in ("options", "deadline_s"):
                if key in request:
                    sub[key] = request[key]
            subrequests.append(sub)
        replies = await asyncio.gather(*[
            self._route(sub, source_fingerprint(sub["source"]))
            for sub in subrequests
        ])
        for reply in replies:
            if not reply.get("ok"):
                error = dict(reply)
                error["id"] = request.get("id")
                error["type"] = request.get("type")
                await send(error)
                return
        results = [reply["result"] for reply in replies]
        await send(ok_response(
            request,
            results=results,
            ok_count=sum(1 for r in results if r["ok"]),
            error_count=sum(1 for r in results if not r["ok"]),
            cache_hits=sum(1 for r in results if r["cache_hit"]),
        ))

    async def _handle_drain(self, request, send):
        """Drain the whole fleet: stop taking work, ask every shard to
        drain (dead shards are reported, not fatal), reply, shut the
        router down."""
        self._draining = True
        outcomes = {}

        async def drain_shard(shard):
            try:
                reply = await self._roundtrip(shard, {"type": "drain"})
                outcomes[shard.name] = ("drained" if reply.get("ok")
                                        else "refused")
            except _ForwardError:
                outcomes[shard.name] = "unreachable"

        await asyncio.gather(*[drain_shard(s) for s in self.shards])
        await send(ok_response(
            request, drained=True, shards=outcomes,
            completed=self.metrics.completed))
        self._spawn(self.shutdown())
