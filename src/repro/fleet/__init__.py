"""The fault-tolerant compile fleet (``docs/serving.md``,
``docs/robustness.md``).

One :class:`~repro.service.server.CompileService` survives worker
crashes (supervised pool rebuilds); this package makes *shards* of them
survive each other:

* :class:`FleetRouter` — one address in front of K shards, speaking the
  same wire protocol; consistent-hashes compiles by source digest for
  cache affinity, re-routes around dead shards, spills around busy
  ones, optionally hedges stragglers;
* :class:`CircuitBreaker` / :class:`HashRing` — the health and
  placement mechanisms under the router;
* :class:`LocalFleet` / :class:`ThreadedRouter` — the in-process
  harness (K real shards + router, real sockets, one call);
* :class:`ChaosPlan` / :func:`run_chaos` — seeded, scripted failure
  injection against a live fleet, verified byte-for-byte by
  ``python -m repro.obs.bench --fleet``.
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.fleet.chaos": (
        "ACTIONS",
        "ChaosController",
        "ChaosEvent",
        "ChaosPlan",
        "run_chaos",
    ),
    "repro.fleet.harness": ("LocalFleet", "ThreadedRouter", "run_fleet"),
    "repro.fleet.health": ("CircuitBreaker", "HashRing"),
    "repro.fleet.router": (
        "FleetConfig",
        "FleetMetrics",
        "FleetRouter",
        "ShardHandle",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__.sort()
