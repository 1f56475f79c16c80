"""FleetRouter end to end: real shards, real sockets, real failures.

A shared three-shard :class:`LocalFleet` covers the happy paths
(affinity, batching, status); destructive tests — kills, restarts,
hedging, full-fleet drain — each get a private fleet so breaker state
and body counts never leak between tests.
"""

import asyncio
import gc
import time

import pytest

from repro.commgen.pipeline import generate_communication
from repro.fleet import FleetConfig, LocalFleet
from repro.fleet.router import FleetRouter, _ForwardError
from repro.lang.printer import format_program
from repro.service import ServiceClient, ServiceError
from repro.service.protocol import (
    E_BAD_REQUEST,
    E_DRAINING,
    E_UNAVAILABLE,
    PROTOCOL,
)
from repro.testing.generator import ArrayProgramGenerator
from repro.testing.programs import FIG11_SOURCE


def generated_source(size, seed=0):
    return format_program(ArrayProgramGenerator(seed=seed).program(size=size))


def fast_config(**overrides):
    """A router that notices failures quickly (tests stay subsecond)."""
    base = dict(heartbeat_s=0.1, reset_timeout_s=0.3, connect_timeout_s=1.0)
    base.update(overrides)
    return FleetConfig(**base)


def source_homed_on(fleet, shard_name, sizes=range(8, 40)):
    """A valid program whose digest homes on ``shard_name``."""
    for seed, size in enumerate(sizes):
        source = generated_source(size, seed=200 + seed)
        if fleet.router.router.home_shard(source).name == shard_name:
            return source
    raise AssertionError(f"no generated source homed on {shard_name}")


def wait_until(predicate, timeout_s=5.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


@pytest.fixture(scope="module")
def fleet():
    with LocalFleet(n_shards=3, fleet_config=fast_config()) as local:
        yield local


@pytest.fixture()
def client(fleet):
    with ServiceClient(port=fleet.port) as connection:
        yield connection


# -- transparent protocol -----------------------------------------------------

def test_ping_identifies_the_router(client):
    reply = client.ping()
    assert reply["ok"] is True
    assert reply["protocol"] == PROTOCOL
    assert reply["role"] == "fleet-router"
    assert reply["shards"] == 3


def test_compile_through_router_is_byte_identical(client):
    result = client.compile(FIG11_SOURCE, name="fig11")
    direct = generate_communication(FIG11_SOURCE)
    assert result["ok"] is True
    assert result["annotated_source"] == direct.annotated_source()


def test_affinity_repeat_compiles_hit_the_home_shards_cache(client):
    source = generated_source(12, seed=77)
    first = client.compile(source, name="affine")
    second = client.compile(source, name="affine")
    assert first["ok"] and second["ok"]
    assert not first["cache_hit"]
    assert second["cache_hit"]  # same digest -> same shard -> warm


def test_batch_splits_by_program_and_reassembles(client):
    programs = [(f"gen-{i}", generated_source(10 + i, seed=50 + i))
                for i in range(4)]
    reply = client.batch(programs)
    assert reply["ok_count"] == 4 and reply["error_count"] == 0
    assert [r["name"] for r in reply["results"]] == [n for n, _ in programs]
    for (_, source), result in zip(programs, reply["results"]):
        direct = generate_communication(source)
        assert result["annotated_source"] == direct.annotated_source()


def test_per_program_errors_stay_data_through_the_router(client):
    result = client.compile("program p\n???\n", name="broken")
    assert result["ok"] is False
    assert result["error_type"] == "ParseError"


def test_compile_without_source_is_a_bad_request(client):
    with pytest.raises(ServiceError) as excinfo:
        client.request({"type": "compile", "name": "nosrc"})
    assert excinfo.value.code == E_BAD_REQUEST


def test_status_reports_fleet_counters_and_shard_table(client):
    client.compile(FIG11_SOURCE, name="fig11")
    status = client.status()
    assert status["server"]["role"] == "fleet-router"
    assert status["server"]["protocol"] == PROTOCOL
    assert status["server"]["shards"] == 3
    assert status["fleet"]["completed"] >= 1
    assert status["fleet"]["forwards"] >= status["fleet"]["completed"]
    assert len(status["shards"]) == 3
    for shard in status["shards"]:
        assert {"name", "state", "inflight", "forwards",
                "available"} <= set(shard)


def test_home_shard_is_stable(fleet):
    router = fleet.router.router
    assert (router.home_shard(FIG11_SOURCE).name
            == router.home_shard(FIG11_SOURCE).name)


# -- incremental recompiles ---------------------------------------------------

def test_compile_delta_routes_to_the_base_digest_home(fleet, client):
    from repro.batch import source_fingerprint
    base = generated_source(30, seed=91)
    edited = base.replace("+ 1", "+ 2", 1)
    assert edited != base
    digest = source_fingerprint(base)
    router = fleet.router.router
    # delta affinity targets the *base* shard, not the edited text's
    assert router.delta_home_shard(digest) is router.home_shard(base)
    assert client.compile(base, name="delta")["ok"]
    delta = client.compile_delta(edited, name="delta", base_digest=digest)
    assert delta["ok"]
    direct = generate_communication(edited)
    assert delta["annotated_source"] == direct.annotated_source()
    # the warm base really was on the routed shard
    assert delta["incremental"]["whole_hits"] > 0


def test_delta_affinity_uses_the_base_digest_verbatim(fleet):
    from repro.batch import source_fingerprint
    router = fleet.router.router
    digest = source_fingerprint(generated_source(12, seed=92))
    request = {"type": "compile_delta", "source": "edited", "base": digest}
    assert router._affinity_digest(request, "edited") == digest
    # no base (or the empty marker) falls back to the source digest
    for request in ({"type": "compile_delta", "source": "edited"},
                    {"type": "compile_delta", "source": "edited",
                     "base": ""}):
        assert (router._affinity_digest(request, "edited")
                == source_fingerprint("edited"))
    # plain compiles never consult the base key
    request = {"type": "compile", "source": "edited", "base": digest}
    assert (router._affinity_digest(request, "edited")
            == source_fingerprint("edited"))


# -- failover -----------------------------------------------------------------

def test_requests_fail_over_when_their_home_shard_dies():
    with LocalFleet(n_shards=3, fleet_config=fast_config()) as fleet:
        source = source_homed_on(fleet, "shard-1")
        fleet.kill_shard(1)
        with ServiceClient(port=fleet.port) as client:
            result = client.compile_retrying(source, name="orphan")
            assert result["ok"] is True
            direct = generate_communication(source)
            assert result["annotated_source"] == direct.annotated_source()
            status = client.status()
        assert status["fleet"]["rerouted"] >= 1
        # the dead shard's breaker opened (via the forward failure, the
        # heartbeat, or both)
        assert wait_until(lambda: fleet.router.status()["shards"][1]["state"]
                          in ("open", "half_open"))


def test_restarted_shard_rejoins_the_rotation():
    with LocalFleet(n_shards=3, fleet_config=fast_config()) as fleet:
        source = source_homed_on(fleet, "shard-0")
        fleet.kill_shard(0)
        with ServiceClient(port=fleet.port) as client:
            assert client.compile_retrying(source, name="away")["ok"]
            fleet.restart_shard(0)
            # heartbeat probes close the breaker within a few beats
            assert wait_until(
                lambda: fleet.router.status()["shards"][0]["state"]
                == "closed")
            result = client.compile_retrying(source, name="home-again")
            assert result["ok"] is True


def test_unavailable_when_every_shard_is_dead():
    with LocalFleet(n_shards=2, fleet_config=fast_config()) as fleet:
        fleet.kill_shard(0)
        fleet.kill_shard(1)
        with ServiceClient(port=fleet.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.compile(FIG11_SOURCE, name="doomed")
            assert excinfo.value.code == E_UNAVAILABLE
            assert excinfo.value.retry_after_s > 0
            status = client.status()
        assert status["fleet"]["unavailable"] >= 1


def test_hedging_beats_a_straggler_shard():
    config = fast_config(hedge_delay_s=0.15)
    with LocalFleet(n_shards=3, fleet_config=config) as fleet:
        source = source_homed_on(fleet, "shard-2")
        fleet.delay_shard(2, seconds=1.5)  # every worker held busy
        with ServiceClient(port=fleet.port) as client:
            started = time.perf_counter()
            result = client.compile_retrying(source, name="hedged")
            elapsed = time.perf_counter() - started
            assert result["ok"] is True
            status = client.status()
        assert status["fleet"]["hedges"] >= 1
        assert status["fleet"]["hedge_wins"] >= 1
        assert elapsed < 1.5  # did not wait out the straggler


def test_drain_drains_every_shard_and_stops_the_router():
    with LocalFleet(n_shards=3, fleet_config=fast_config()) as fleet:
        with ServiceClient(port=fleet.port) as client:
            assert client.compile(FIG11_SOURCE, name="work")["ok"]
            reply = client.drain()
        assert reply["drained"] is True
        assert set(reply["shards"]) == {"shard-0", "shard-1", "shard-2"}
        assert all(v == "drained" for v in reply["shards"].values())
        fleet.router.join(timeout=10)
        assert not fleet.router._thread.is_alive()


def test_drain_reports_dead_shards_instead_of_hanging():
    with LocalFleet(n_shards=3, fleet_config=fast_config()) as fleet:
        fleet.kill_shard(2)
        with ServiceClient(port=fleet.port) as client:
            reply = client.drain()
        assert reply["drained"] is True
        assert reply["shards"]["shard-2"] == "unreachable"
        assert reply["shards"]["shard-0"] == "drained"


def test_compile_after_drain_is_refused_as_draining():
    with LocalFleet(n_shards=1, fleet_config=fast_config()) as fleet:
        router = fleet.router.router
        router._draining = True  # as _handle_drain sets before replying
        with ServiceClient(port=fleet.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.compile(FIG11_SOURCE, name="late")
            assert excinfo.value.code == E_DRAINING


def test_severed_router_connections_are_survivable():
    with LocalFleet(n_shards=3, fleet_config=fast_config()) as fleet:
        with ServiceClient(port=fleet.port) as client:
            assert client.compile(FIG11_SOURCE, name="before")["ok"]
            fleet.sever()
            result = client.compile_retrying(FIG11_SOURCE, name="after")
            assert result["ok"] is True
            assert result["cache_hit"] is True  # same home shard, warm


def test_heartbeat_cancelled_mid_probe_retrieves_the_probe_failure():
    """Shutdown cancels a heartbeat just as its probe fails: the probe's
    exception must still be retrieved.  (Python 3.11's ``wait_for``
    dropped it, and asyncio logged "Task exception was never
    retrieved" through the loop's exception handler.)"""

    async def scenario():
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(
            lambda _loop, context: reported.append(context["message"]))
        config = FleetConfig(heartbeat_s=0.001, probe_timeout_s=30)
        router = FleetRouter([("127.0.0.1", 9)], config)
        probing = asyncio.Event()

        async def failing_roundtrip(shard, payload):
            probing.set()
            try:
                await asyncio.sleep(30)
            except asyncio.CancelledError:
                raise _ForwardError("connect failed as the probe was "
                                    "cancelled") from None

        router._roundtrip = failing_roundtrip
        heartbeat = loop.create_task(router._heartbeat(router.shards[0]))
        await probing.wait()
        router._closing = True  # as shutdown() sets before cancelling
        heartbeat.cancel()
        await asyncio.gather(heartbeat, return_exceptions=True)
        for _ in range(3):
            await asyncio.sleep(0)
        gc.collect()
        return reported

    assert asyncio.run(scenario()) == []
