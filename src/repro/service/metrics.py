"""Live service metrics (``docs/serving.md`` has the glossary).

One :class:`ServiceMetrics` instance lives on the event loop of a
:class:`~repro.service.server.CompileService` and is only ever touched
from there, so plain counters suffice.  Three things are tracked:

* **admission** — received/admitted/completed/failed totals, the
  current queue depth (admitted-but-unfinished work) and its peak, and
  every rejection by reason (``busy``, ``draining``) plus expired
  deadlines;
* **cache effectiveness** — per-request hit flags aggregated into a
  lookup/hit/hit-rate view (the warm-cache story the service exists
  for);
* **latency** — per-phase :class:`~repro.obs.histogram.LatencyHistogram`
  recorders (``compile_s`` = pure pipeline time inside the worker,
  ``queue_s`` = everything else in the round-trip: admission wait, pool
  dispatch, result transfer, ``total_s`` = the request's full
  server-side residence) reporting p50/p90/p99 live;
* **supervision** — worker-pool failures survived rather than
  surfaced: ``pool_rebuilds`` (a broken executor was detected and
  replaced) and ``requeued`` (requests resubmitted to the fresh pool
  instead of failing their connection).

Everything is also mirrored into the active :mod:`repro.obs` collector
(category ``"service"``) when tracing is enabled, so a traced test run
sees admission decisions as structured events.
"""

import time

from repro.obs.collector import current_collector
from repro.obs.histogram import LatencyHistogram

#: Histogram phases, in reporting order.
PHASES = ("queue_s", "compile_s", "total_s")


class ServiceMetrics:
    """Counters, gauges, and latency histograms of one service."""

    def __init__(self):
        self.received = 0
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected_busy = 0
        self.rejected_draining = 0
        self.bad_requests = 0
        self.internal_errors = 0
        self.deadline_expired = 0
        self.cache_lookups = 0
        self.cache_hits = 0
        self.queue_depth = 0
        self.queue_peak = 0
        self.pool_rebuilds = 0
        self.requeued = 0
        self.latency = {phase: LatencyHistogram() for phase in PHASES}
        self.started_monotonic = time.monotonic()

    # -- admission -----------------------------------------------------------

    def receive(self):
        self.received += 1

    def admit(self, units=1):
        self.admitted += units
        self.queue_depth += units
        self.queue_peak = max(self.queue_peak, self.queue_depth)
        obs = current_collector()
        if obs.enabled:
            obs.event("service", "admission", decision="admitted",
                      units=units, queue_depth=self.queue_depth)
            obs.count("service", "admitted", n=units)

    def release(self, units=1):
        self.queue_depth = max(0, self.queue_depth - units)

    def reject(self, code, units=1):
        if code == "busy":
            self.rejected_busy += units
        elif code == "draining":
            self.rejected_draining += units
        else:
            self.bad_requests += units
        obs = current_collector()
        if obs.enabled:
            obs.event("service", "admission", decision=code, units=units,
                      queue_depth=self.queue_depth)
            obs.count("service", f"rejected_{code}", n=units)

    def expire_deadline(self, units=1):
        self.deadline_expired += units
        obs = current_collector()
        if obs.enabled:
            obs.count("service", "deadline_expired", n=units)

    def internal_error(self):
        self.internal_errors += 1

    # -- supervision ---------------------------------------------------------

    def pool_rebuilt(self):
        """One broken worker pool detected and replaced."""
        self.pool_rebuilds += 1
        obs = current_collector()
        if obs.enabled:
            obs.event("service", "supervision", action="pool_rebuilt",
                      rebuilds=self.pool_rebuilds)
            obs.count("service", "pool_rebuilds")

    def requeue(self, units=1):
        """``units`` requests resubmitted after a pool failure."""
        self.requeued += units
        obs = current_collector()
        if obs.enabled:
            obs.event("service", "supervision", action="requeued",
                      units=units)
            obs.count("service", "requeued", n=units)

    # -- completion ----------------------------------------------------------

    def observe(self, compiled, total_s):
        """Account one finished compile: verdict, cache hit, latencies.

        ``compiled`` is a :class:`~repro.batch.driver.CompiledProgram`;
        ``total_s`` the server-side residence time of its request (for
        batch requests, of the whole batch round-trip)."""
        if compiled.ok:
            self.completed += 1
        else:
            self.failed += 1
        self.cache_lookups += 1
        if compiled.cache_hit:
            self.cache_hits += 1
        compile_s = max(0.0, compiled.duration_s)
        self.latency["compile_s"].record(compile_s)
        self.latency["queue_s"].record(max(0.0, total_s - compile_s))
        self.latency["total_s"].record(total_s)
        obs = current_collector()
        if obs.enabled:
            obs.count("service", "completed" if compiled.ok else "failed")
            if compiled.cache_hit:
                obs.count("service", "cache_hits")

    @property
    def cache_hit_rate(self):
        if not self.cache_lookups:
            return 0.0
        return self.cache_hits / self.cache_lookups

    # -- reporting -----------------------------------------------------------

    def snapshot(self, cache=None, server=None):
        """The JSON payload behind the ``status`` request type.

        ``cache`` merges the service's
        :class:`~repro.batch.cache.PipelineCache` store-level stats
        (every lookup and store runs on the event loop, so they count
        every request); ``server`` carries static facts the
        owning service wants surfaced (address, pool kind, limits)."""
        payload = {
            "uptime_s": time.monotonic() - self.started_monotonic,
            "requests": {
                "received": self.received,
                "admitted": self.admitted,
                "completed": self.completed,
                "failed": self.failed,
                "inflight": self.queue_depth,
                "queue_peak": self.queue_peak,
            },
            "admission": {
                "rejected_busy": self.rejected_busy,
                "rejected_draining": self.rejected_draining,
                "deadline_expired": self.deadline_expired,
                "bad_requests": self.bad_requests,
                "internal_errors": self.internal_errors,
            },
            "supervision": {
                "pool_rebuilds": self.pool_rebuilds,
                "requeued": self.requeued,
            },
            "cache": {
                "lookups": self.cache_lookups,
                "hits": self.cache_hits,
                "hit_rate": self.cache_hit_rate,
            },
            "latency": {phase: hist.snapshot()
                        for phase, hist in self.latency.items()},
        }
        if cache is not None:
            payload["cache"]["store"] = cache.stats()
        if server is not None:
            payload["server"] = dict(server)
        return payload
