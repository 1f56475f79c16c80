"""Blocking client for the compile service (``docs/serving.md``).

:class:`ServiceClient` speaks the newline-delimited JSON protocol over
one TCP connection: each call is a request/response round-trip, matched
by the auto-assigned ``id``.  Refusals and failures surface as
:class:`~repro.service.protocol.ServiceError` (a
:class:`~repro.util.errors.ReproError`, so the CLI's one-line error
handling applies); :meth:`compile_retrying` additionally honors the
server's ``retry_after_s`` backpressure hint **and** rides out
connection-level failures — refused connections while a server (or
fleet shard) restarts, resets when a connection is severed mid-request
— by reconnecting with exponential backoff.  Compiles are pure
functions of (source, options), so resending one that may or may not
have completed is always safe.

::

    with ServiceClient(port=7421) as client:
        result = client.compile(source, name="fig11.f")
        print(result["annotated_source"], end="")
"""

import contextlib
import socket
import time

from repro.service.config import DEFAULT_PORT
from repro.service.protocol import (
    E_BUSY,
    E_UNAVAILABLE,
    ServiceError,
    decode_message,
    encode_message,
    raise_for_error,
)

#: :meth:`ServiceClient.compile_retrying` retries these error codes —
#: ``busy`` (admission backpressure) and ``unavailable`` (a fleet
#: router with no healthy shard right now).  Everything else is a real
#: answer and propagates.
RETRYABLE_CODES = (E_BUSY, E_UNAVAILABLE)

#: Backoff for connection-level retries: ``base * 2**attempt`` capped.
RETRY_BACKOFF_BASE_S = 0.05
RETRY_BACKOFF_CAP_S = 1.0


class ServiceConnectionError(ServiceError):
    """The connection died mid-round-trip (reset, or a clean close with
    no reply) — retryable, since the request can be resent verbatim."""

    def __init__(self, message):
        super().__init__(E_UNAVAILABLE, message)


class ServiceClient:
    """One connection to a running compile service."""

    def __init__(self, host="127.0.0.1", port=DEFAULT_PORT, timeout_s=30.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._sock = None
        self._file = None
        self._next_id = 0
        self._connect()

    def _connect(self):
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout_s)
        self._file = self._sock.makefile("rwb")

    def close(self):
        try:
            if self._file is not None:
                with contextlib.suppress(OSError):
                    self._file.close()
        finally:
            self._file = None
            if self._sock is not None:
                with contextlib.suppress(OSError):
                    self._sock.close()
            self._sock = None

    def reconnect(self):
        """Drop the current connection (if any) and dial again —
        raises the usual socket errors when the server is down."""
        self.close()
        self._connect()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- the round-trip ------------------------------------------------------

    def request(self, body):
        """Send one request, read one response; return the ``ok``
        response dict or raise :class:`ServiceError`
        (:class:`ServiceConnectionError` when the connection died
        before a reply arrived)."""
        if self._file is None:
            self.reconnect()
        self._next_id += 1
        body = dict(body)
        body.setdefault("id", self._next_id)
        self._file.write(encode_message(body))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceConnectionError("connection closed by server")
        return raise_for_error(decode_message(line))

    # -- request types -------------------------------------------------------

    def ping(self):
        return self.request({"type": "ping"})

    def status(self):
        """The live metrics snapshot (``docs/serving.md`` glossary)."""
        return self.request({"type": "status"})["status"]

    def drain(self):
        """Ask the server to finish in-flight work and shut down;
        returns only once everything in flight has completed."""
        return self.request({"type": "drain"})

    def compile(self, source, name="<client>", deadline_s=None, options=None):
        """Compile one program; returns the result dict (the service-side
        :meth:`~repro.batch.driver.CompiledProgram.as_dict` payload —
        check ``result["ok"]`` for the per-program verdict)."""
        body = {"type": "compile", "name": name, "source": source}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        if options:
            body["options"] = options
        return self.request(body)["result"]

    def compile_delta(self, source, base_digest=None, name="<client>",
                      deadline_s=None, options=None):
        """Recompile an edited program (``compile_delta``).

        ``source`` is the full *edited* text; ``base_digest`` (optional)
        is the :func:`~repro.batch.cache.source_fingerprint` of the base
        text a previous compile through the server's cache stored — with it
        the result's ``incremental`` dict reports how many intervals the
        edit changed, and a fleet router uses it for cache affinity.
        The result dict is byte-identical to :meth:`compile` of the same
        text."""
        body = {"type": "compile_delta", "name": name, "source": source}
        if base_digest:
            body["base"] = base_digest
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        if options:
            body["options"] = options
        return self.request(body)["result"]

    def batch(self, programs, deadline_s=None, options=None):
        """Compile ``programs`` (``(name, source)`` pairs or a mapping)
        as one admission unit; returns the full batch response."""
        items = programs.items() if isinstance(programs, dict) else programs
        body = {"type": "batch",
                "programs": [{"name": name, "source": source}
                             for name, source in items]}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        if options:
            body["options"] = options
        return self.request(body)

    def compile_retrying(self, source, name="<client>", deadline_s=None,
                         options=None, max_attempts=100, sleep=time.sleep):
        """:meth:`compile`, but survive the transient failures a polite
        load generator should: ``busy`` backpressure (wait out the
        server's ``retry_after_s`` hint), ``unavailable`` replies from a
        fleet router between healthy shards, and connection-level
        failures — refused while the server restarts, reset when severed
        mid-request — by reconnecting under exponential backoff."""
        failures = 0
        for attempt in range(max_attempts):
            last = attempt == max_attempts - 1
            try:
                return self.compile(source, name=name, deadline_s=deadline_s,
                                    options=options)
            except ServiceConnectionError:
                if last:
                    raise
            except ServiceError as error:
                if error.code not in RETRYABLE_CODES or last:
                    raise
                sleep(error.retry_after_s or RETRY_BACKOFF_BASE_S)
                continue
            except OSError:
                # Dead socket or refused dial (server restarting).
                if last:
                    raise
            # Connection-level failure: back off, then reconnect.  A
            # refused reconnect just counts as this attempt's failure.
            sleep(min(RETRY_BACKOFF_CAP_S,
                      RETRY_BACKOFF_BASE_S * (2 ** min(failures, 10))))
            failures += 1
            with contextlib.suppress(OSError):
                self.reconnect()
        raise AssertionError("unreachable")  # pragma: no cover
