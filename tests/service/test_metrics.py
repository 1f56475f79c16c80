"""ServiceMetrics: admission accounting, latency phases, the snapshot."""

import json
from types import SimpleNamespace

import pytest

from repro.obs import TraceCollector, tracing
from repro.service.metrics import PHASES, ServiceMetrics


def compiled(ok=True, cache_hit=False, duration_s=0.01):
    """A CompiledProgram stand-in: observe() only reads these fields."""
    return SimpleNamespace(ok=ok, cache_hit=cache_hit, duration_s=duration_s)


def test_admission_counters_and_queue_depth():
    metrics = ServiceMetrics()
    metrics.receive()
    metrics.admit(2)
    metrics.admit(1)
    assert metrics.received == 1
    assert metrics.admitted == 3
    assert metrics.queue_depth == 3 and metrics.queue_peak == 3
    metrics.release(2)
    assert metrics.queue_depth == 1
    assert metrics.queue_peak == 3  # peak is sticky
    metrics.release(5)
    assert metrics.queue_depth == 0  # never goes negative


def test_rejections_bucket_by_code():
    metrics = ServiceMetrics()
    metrics.reject("busy")
    metrics.reject("busy", units=3)
    metrics.reject("draining")
    metrics.reject("bad_request")
    metrics.expire_deadline(units=2)
    metrics.internal_error()
    assert metrics.rejected_busy == 4
    assert metrics.rejected_draining == 1
    assert metrics.bad_requests == 1
    assert metrics.deadline_expired == 2
    assert metrics.internal_errors == 1


def test_observe_splits_latency_into_phases():
    metrics = ServiceMetrics()
    metrics.observe(compiled(duration_s=0.02), total_s=0.05)
    assert metrics.completed == 1 and metrics.failed == 0
    assert metrics.latency["compile_s"].count == 1
    assert metrics.latency["compile_s"].max_value == 0.02
    # queue time is everything that was not the compile itself
    assert metrics.latency["queue_s"].max_value == pytest.approx(0.03)
    assert metrics.latency["total_s"].max_value == 0.05


def test_observe_clamps_clock_skew():
    metrics = ServiceMetrics()
    # worker wall-clock can exceed event-loop residence under load
    metrics.observe(compiled(duration_s=0.1), total_s=0.05)
    assert metrics.latency["queue_s"].max_value == 0.0


def test_cache_hit_rate():
    metrics = ServiceMetrics()
    assert metrics.cache_hit_rate == 0.0
    metrics.observe(compiled(cache_hit=False), total_s=0.01)
    metrics.observe(compiled(cache_hit=True), total_s=0.01)
    metrics.observe(compiled(cache_hit=True), total_s=0.01)
    assert metrics.cache_lookups == 3 and metrics.cache_hits == 2
    assert metrics.cache_hit_rate == 2 / 3


def test_failed_compiles_count_separately():
    metrics = ServiceMetrics()
    metrics.observe(compiled(ok=False), total_s=0.01)
    assert metrics.completed == 0 and metrics.failed == 1


def test_snapshot_is_json_shaped_and_complete():
    metrics = ServiceMetrics()
    metrics.receive()
    metrics.admit()
    metrics.observe(compiled(), total_s=0.01)
    metrics.release()
    snap = metrics.snapshot(server={"pool": "thread", "workers": 2})
    json.dumps(snap)
    assert snap["requests"] == {"received": 1, "admitted": 1,
                               "completed": 1, "failed": 0,
                               "inflight": 0, "queue_peak": 1}
    assert set(snap["latency"]) == set(PHASES)
    assert snap["latency"]["total_s"]["count"] == 1
    assert snap["server"]["pool"] == "thread"
    assert snap["uptime_s"] >= 0.0
    assert "store" not in snap["cache"]  # only merged when a cache exists


def test_snapshot_merges_cache_store_stats():
    from repro.batch import PipelineCache

    cache = PipelineCache()
    cache.put(cache.key("x"), 1)
    snap = ServiceMetrics().snapshot(cache=cache)
    assert snap["cache"]["store"]["stores"] == 1
    assert "corrupt" in snap["cache"]["store"]


def test_metrics_mirror_into_the_obs_collector():
    metrics = ServiceMetrics()
    with tracing(TraceCollector()) as obs:
        metrics.admit(2)
        metrics.reject("busy")
        metrics.observe(compiled(cache_hit=True), total_s=0.01)
    decisions = [event["decision"]
                 for event in obs.events("service", "admission")]
    assert decisions == ["admitted", "busy"]
    counters = obs.counters()["service"]
    assert counters["admitted"] == 2
    assert counters["rejected_busy"] == 1
    assert counters["completed"] == 1
    assert counters["cache_hits"] == 1


def test_disabled_collector_records_nothing():
    metrics = ServiceMetrics()
    metrics.admit()  # no tracing active: must not blow up
    metrics.observe(compiled(), total_s=0.01)
    assert metrics.completed == 1
