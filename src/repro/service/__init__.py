"""The resident compile service (``docs/serving.md``).

Every other entry point in this repo is a one-shot process; this
package is the subsystem that makes compilation *resident*, so the
batch layer's content-addressed cache and the compiled solver plans
amortize across requests instead of dying with each invocation:

* :class:`CompileService` — an ``asyncio`` TCP server speaking a
  newline-delimited JSON protocol (``compile`` / ``batch`` / ``status``
  / ``drain``), with a bounded admission queue and explicit
  ``retry_after_s`` backpressure, per-request deadlines, an optional
  hardened mode (over-budget programs degrade down the
  :mod:`~repro.commgen.hardened` ladder instead of failing), a warm
  :class:`~repro.batch.cache.PipelineCache` its event loop owns, and a
  worker pool that compiles only the misses;
* :class:`ServiceConfig` — every knob of one instance;
* :class:`ServiceClient` — the blocking client library (and
  ``repro request``, its CLI face; ``repro serve`` runs the server);
* :class:`ThreadedServer` — an in-process harness for tests and the
  ``python -m repro.obs.bench --service`` load generator
  (``BENCH_service.json``);
* :class:`ServiceMetrics` — the live queue/admission/cache/latency
  metrics behind the ``status`` request type.
"""

from repro.service.client import ServiceClient, ServiceConnectionError
from repro.service.config import DEFAULT_PORT, ServiceConfig
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    E_BAD_REQUEST,
    E_BUSY,
    E_DEADLINE,
    E_DRAINING,
    E_INTERNAL,
    E_UNAVAILABLE,
    ERROR_CODES,
    MAX_LINE_BYTES,
    PROTOCOL,
    REQUEST_TYPES,
    ProtocolError,
    ServiceError,
    decode_message,
    encode_message,
)
from repro.service.runner import ThreadedServer
from repro.service.server import CompileService, run_service

__all__ = [
    "CompileService",
    "DEFAULT_PORT",
    "ERROR_CODES",
    "E_BAD_REQUEST",
    "E_BUSY",
    "E_DEADLINE",
    "E_DRAINING",
    "E_INTERNAL",
    "E_UNAVAILABLE",
    "MAX_LINE_BYTES",
    "PROTOCOL",
    "ProtocolError",
    "REQUEST_TYPES",
    "ServiceClient",
    "ServiceConfig",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceMetrics",
    "ThreadedServer",
    "decode_message",
    "encode_message",
    "run_service",
]
