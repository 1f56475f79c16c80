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

from repro.util.lazy import lazy_exports

#: The port ``repro serve`` / ``repro request`` default to; defined here
#: so the CLI reads it without loading any service module.
DEFAULT_PORT = 7421

#: Exports by owning module, imported on first read, so the config and
#: the protocol load without the server, the runner, the client or
#: asyncio; ``__all__`` lists them sorted.
_EXPORTS = {
    "repro.service.client": ("ServiceClient", "ServiceConnectionError"),
    "repro.service.config": ("ServiceConfig",),
    "repro.service.metrics": ("ServiceMetrics",),
    "repro.service.protocol": (
        "E_BAD_REQUEST",
        "E_BUSY",
        "E_DEADLINE",
        "E_DRAINING",
        "E_INTERNAL",
        "E_UNAVAILABLE",
        "ERROR_CODES",
        "MAX_LINE_BYTES",
        "PROTOCOL",
        "REQUEST_TYPES",
        "ProtocolError",
        "ServiceError",
        "decode_message",
        "encode_message",
    ),
    "repro.service.runner": ("ThreadedServer",),
    "repro.service.server": ("CompileService", "run_service"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__.append("DEFAULT_PORT")
__all__.sort()
