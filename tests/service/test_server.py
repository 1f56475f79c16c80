"""CompileService end to end: real sockets, real admission, real pool.

Every test here talks to a genuine TCP server via
:class:`~repro.service.runner.ThreadedServer`; the shared module fixture
uses a thread pool (cheap), while dedicated tests exercise the process
pool.  Either way the event loop owns the cache.
"""

import asyncio
import gc
import logging
import socket
import threading
import time
import warnings

import pytest

from repro.batch import BatchOptions, compile_one
from repro.commgen.pipeline import generate_communication
from repro.fleet import ThreadedRouter
from repro.lang.printer import format_program
from repro.service import (
    E_BAD_REQUEST,
    E_BUSY,
    E_DEADLINE,
    E_DRAINING,
    E_INTERNAL,
    MAX_LINE_BYTES,
    PROTOCOL,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ThreadedServer,
    decode_message,
)
from repro.service import server as server_module
from repro.service.server import MAX_RETRY_AFTER_S
from repro.testing.generator import ArrayProgramGenerator
from repro.testing.programs import FIG1_SOURCE, FIG11_SOURCE


def generated_source(size, seed=0):
    return format_program(ArrayProgramGenerator(seed=seed).program(size=size))


#: Slow enough (~300ms in CI) that admission races are deterministic.
SLOW_SOURCE = generated_source(400, seed=7)


def wait_until(predicate, timeout_s=5.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(port=0, workers=2, pool="thread")
    with ThreadedServer(config) as threaded:
        yield threaded


@pytest.fixture(scope="module")
def router():
    """A fleet router in front of one private shard."""
    config = ServiceConfig(port=0, workers=1, pool="thread")
    with ThreadedServer(config) as shard:
        with ThreadedRouter([(shard.host, shard.port)]) as threaded:
            yield threaded


@pytest.fixture(params=["service", "router"])
def line_client(request):
    """A client of the compile service or of the fleet router: one wire,
    two roles."""
    threaded = request.getfixturevalue(
        "server" if request.param == "service" else request.param)
    with ServiceClient(port=threaded.port) as connection:
        yield connection


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as connection:
        yield connection


# -- basic round-trips --------------------------------------------------------

def test_ping_reports_protocol(client):
    reply = client.ping()
    assert reply["ok"] is True
    assert reply["protocol"] == PROTOCOL


def test_compile_is_byte_identical_to_direct_pipeline(client):
    result = client.compile(FIG11_SOURCE, name="fig11")
    direct = generate_communication(FIG11_SOURCE)
    assert result["ok"] is True
    assert result["annotated_source"] == direct.annotated_source()
    assert (result["reads"], result["writes"]) == direct.communication_count()


def test_batch_round_trip(client):
    reply = client.batch([("fig11", FIG11_SOURCE), ("fig1", FIG1_SOURCE)])
    assert reply["ok_count"] == 2 and reply["error_count"] == 0
    names = [result["name"] for result in reply["results"]]
    assert names == ["fig11", "fig1"]
    for result in reply["results"]:
        direct = generate_communication(
            FIG11_SOURCE if result["name"] == "fig11" else FIG1_SOURCE)
        assert result["annotated_source"] == direct.annotated_source()


def test_per_program_errors_are_data_not_failures(client):
    result = client.compile("program p\n???\n", name="broken")
    assert result["ok"] is False
    assert result["error_type"] == "ParseError"
    assert result["error"]


def test_warm_cache_hits_on_repeat_requests(client):
    source = generated_source(12, seed=31)
    first = client.compile(source, name="warmup")
    second = client.compile(source, name="warmup")
    assert first["ok"] and second["ok"]
    assert not first["cache_hit"]
    assert second["cache_hit"]
    assert second["annotated_source"] == first["annotated_source"]


def test_compile_delta_round_trip(client):
    """``ServiceClient.compile_delta`` sends a ``compile`` of the edited
    text and ignores its base digest; the wire has no delta request."""
    from repro.batch import source_fingerprint
    base = generated_source(30, seed=41)
    edited = base.replace("+ 1", "+ 2", 1)
    assert edited != base
    digest = source_fingerprint(base)
    assert client.compile(base, name="base")["ok"]
    delta = client.compile_delta(edited, name="edited", base_digest=digest)
    assert delta["ok"] and not delta["cache_hit"]
    assert "incremental" not in delta
    assert (delta["annotated_source"]
            == generate_communication(edited).annotated_source())
    assert client.compile(edited, name="edited")["cache_hit"]
    with pytest.raises(ServiceError) as excinfo:
        client.request({"type": "compile_delta", "name": "edited",
                        "source": edited, "base": digest})
    assert excinfo.value.code == E_BAD_REQUEST


def test_hardened_mode_reports_rung(client):
    result = client.compile(FIG11_SOURCE, name="fig11",
                            options={"hardened": True})
    assert result["ok"] is True
    assert result["rung"] == "balanced"
    assert result["degraded"] is False


def test_status_shape(client):
    client.compile(FIG11_SOURCE, name="fig11")
    status = client.status()
    assert status["server"]["protocol"] == PROTOCOL
    assert status["server"]["pool"] == "thread"
    assert status["requests"]["completed"] >= 1
    assert status["requests"]["inflight"] == 0
    assert set(status["latency"]) == {"queue_s", "compile_s", "total_s"}
    assert status["latency"]["total_s"]["p50_s"] > 0
    assert status["cache"]["store"]["stores"] >= 1  # the fig11 result


# -- concurrency --------------------------------------------------------------

def test_concurrent_clients_get_byte_identical_results(server):
    corpus = [(f"gen-{i}", generated_source(10 + i, seed=100 + i))
              for i in range(6)]
    expected = {name: generate_communication(text).annotated_source()
                for name, text in corpus}
    failures = []

    def worker(index):
        try:
            with ServiceClient(port=server.port) as connection:
                for offset in range(len(corpus)):
                    name, text = corpus[(index + offset) % len(corpus)]
                    result = connection.compile_retrying(text, name=name)
                    if not result["ok"]:
                        failures.append((name, result["error"]))
                    elif result["annotated_source"] != expected[name]:
                        failures.append((name, "response corrupted"))
        except Exception as error:  # pragma: no cover - the assert reports
            failures.append((index, repr(error)))

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []


def test_one_connection_interleaves_request_types(client):
    # ping / status answered inline while compiles run through the pool
    assert client.ping()["ok"]
    result = client.compile(FIG11_SOURCE, name="fig11")
    assert result["ok"]
    assert client.status()["requests"]["completed"] >= 1
    assert client.ping()["ok"]


# -- admission: deadlines and backpressure ------------------------------------

def test_deadline_expires_before_slow_compile_finishes():
    config = ServiceConfig(port=0, workers=1, pool="thread")
    with ThreadedServer(config) as threaded:
        with ServiceClient(port=threaded.port) as connection:
            with pytest.raises(ServiceError) as excinfo:
                connection.compile(SLOW_SOURCE, name="slow",
                                   deadline_s=0.005)
            assert excinfo.value.code == E_DEADLINE
            # the connection stays usable after an expiry reply
            assert connection.ping()["ok"]
            status = connection.status()
            assert status["admission"]["deadline_expired"] == 1
            # the abandoned compile still releases its slot eventually,
            # which the graceful teardown below (stop -> drain) relies on


@pytest.mark.parametrize("what", ["compile", "batch"])
def test_deadline_reply_names_the_request_and_counts_each_program(what,
                                                                 caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")
    config = ServiceConfig(port=0, workers=1, pool="thread")
    with ThreadedServer(config) as threaded:
        with ServiceClient(port=threaded.port) as connection:
            with pytest.raises(ServiceError) as excinfo:
                if what == "compile":
                    connection.compile(SLOW_SOURCE, name="slow",
                                       deadline_s=0.005)
                else:
                    connection.batch([("slow", SLOW_SOURCE),
                                      ("fig11", FIG11_SOURCE)],
                                     deadline_s=0.005)
            assert str(excinfo.value) == (
                f"deadline: deadline of 0.005s expired before the {what} "
                f"finished")
            expired = connection.status()["admission"]["deadline_expired"]
            assert expired == (1 if what == "compile" else 2)
    # every outcome of the abandoned compile was read: asyncio logs an
    # unretrieved future's exception when the future is collected
    gc.collect()
    assert [record.getMessage() for record in caplog.records
            if record.name == "asyncio"] == []


def test_backpressure_rejects_with_retry_hint(monkeypatch):
    config = ServiceConfig(port=0, workers=1, pool="thread", queue_limit=1)
    release = threading.Event()
    compile_uncached = server_module.compile_uncached

    def held(name, *args):
        if name == "filler":
            release.wait(30)  # occupy the single slot until released
        return compile_uncached(name, *args)

    monkeypatch.setattr(server_module, "compile_uncached", held)
    with ThreadedServer(config) as threaded:
        filler_done = threading.Event()

        def filler():
            with ServiceClient(port=threaded.port) as connection:
                connection.compile(SLOW_SOURCE, name="filler")
            filler_done.set()

        thread = threading.Thread(target=filler)
        thread.start()
        try:
            with ServiceClient(port=threaded.port) as connection:
                assert wait_until(  # the filler holds the single slot
                    lambda: connection.status()["requests"]["inflight"] == 1)
                with pytest.raises(ServiceError) as excinfo:
                    connection.compile(FIG11_SOURCE, name="refused")
                assert excinfo.value.code == E_BUSY
                assert excinfo.value.retry_after_s > 0
                release.set()
                # the polite loop waits out the backpressure and succeeds
                result = connection.compile_retrying(FIG11_SOURCE,
                                                     name="fig11")
                assert result["ok"]
                status = connection.status()
                assert status["admission"]["rejected_busy"] >= 1
        finally:
            release.set()
            thread.join(60)
        assert filler_done.is_set()


def test_batch_admission_counts_each_program():
    # a batch larger than the whole queue can never be admitted
    config = ServiceConfig(port=0, workers=1, pool="thread", queue_limit=2)
    with ThreadedServer(config) as threaded:
        with ServiceClient(port=threaded.port) as connection:
            with pytest.raises(ServiceError) as excinfo:
                connection.batch([(f"p{i}", FIG11_SOURCE) for i in range(3)])
            assert excinfo.value.code == E_BUSY
            reply = connection.batch([("a", FIG11_SOURCE),
                                      ("b", FIG1_SOURCE)])
            assert reply["ok_count"] == 2


# -- drain --------------------------------------------------------------------

def test_drain_completes_in_flight_work_then_refuses():
    config = ServiceConfig(port=0, workers=1, pool="thread", queue_limit=8)
    with ThreadedServer(config) as threaded:
        outcomes = []
        lock = threading.Lock()

        def in_flight(index):
            try:
                with ServiceClient(port=threaded.port) as connection:
                    result = connection.compile(SLOW_SOURCE,
                                                name=f"inflight-{index}")
                    with lock:
                        outcomes.append(("completed", result["ok"]))
            except ServiceError as error:
                with lock:
                    outcomes.append((error.code, False))

        threads = [threading.Thread(target=in_flight, args=(index,))
                   for index in range(2)]
        with ServiceClient(port=threaded.port) as drainer:
            for thread in threads:
                thread.start()
            assert wait_until(  # both requests admitted
                lambda: drainer.status()["requests"]["admitted"] == 2)
            reply = drainer.drain()
            assert reply["drained"] is True
        for thread in threads:
            thread.join()
        # everything admitted before the drain completed, correctly
        assert all(ok for code, ok in outcomes if code == "completed")
        assert all(code in ("completed", E_DRAINING)
                   for code, _ in outcomes)
        assert any(code == "completed" for code, _ in outcomes)
        # the server is gone: new connections are refused
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", threaded.port),
                                         timeout=0.5).close()
            except OSError:
                break
            time.sleep(0.02)
        else:
            pytest.fail("server still accepting after drain")


def close_held_until_stop(runner_class):
    """``runner_class`` whose event loop, once a client's drain has shut
    it down, holds ``close()`` until ``stop()`` has scheduled work on it:
    the window in which a stop could hand its shutdown coroutine to a
    loop that never runs again."""

    class Held(runner_class):
        async def _amain(self):
            loop = asyncio.get_running_loop()
            self.closing = threading.Event()
            scheduled = threading.Event()
            schedule, close = loop.call_soon_threadsafe, loop.close

            def call_soon_threadsafe(*args, **kwargs):
                handle = schedule(*args, **kwargs)
                if self.closing.is_set():  # the loop thread waits in close
                    scheduled.set()
                return handle

            def held_close():
                self.closing.set()
                scheduled.wait(10)
                close()

            loop.call_soon_threadsafe = call_soon_threadsafe
            loop.close = held_close
            await super()._amain()

    return Held


def stop_after_drain(runner):
    """Wait until ``runner``'s drained loop is closing, ``stop()`` it,
    and return how long the stop took plus every "never awaited"
    warning it left behind."""
    assert runner.closing.wait(10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        started = time.monotonic()
        runner.stop()
        elapsed = time.monotonic() - started
        gc.collect()
    assert not runner._thread.is_alive()
    return elapsed, [str(w.message) for w in caught
                     if "never awaited" in str(w.message)]


@pytest.mark.parametrize("role", ["service", "router"])
def test_drain_stops_the_server_while_another_client_idles(role):
    """Regression: since Python 3.12.1, ``asyncio.Server.wait_closed``
    waits for every open connection, so a drain did not stop a server
    while another client held an idle one."""
    config = ServiceConfig(port=0, workers=1, pool="thread")
    with ThreadedServer(config) as shard:
        runner = (shard if role == "service"
                  else ThreadedRouter([(shard.host, shard.port)]).start())
        with socket.create_connection(("127.0.0.1", runner.port),
                                      timeout=5) as idle:
            with ServiceClient(port=runner.port) as drainer:
                assert drainer.drain()["drained"] is True
            runner._thread.join(2.0)
            assert not runner._thread.is_alive()
            assert idle.recv(1) == b""
        runner.stop()


def test_stop_after_a_client_drain_returns_promptly_and_leaks_nothing():
    """Regression: stop() created the shutdown coroutine on the caller's
    thread and passed it to a loop the client's drain was already
    closing; close() dropped it unawaited and stop() waited out its
    timeout for a result that never came."""
    config = ServiceConfig(port=0, workers=1, pool="thread")
    server = close_held_until_stop(ThreadedServer)(config,
                                                   timeout_s=5.0).start()
    with ServiceClient(port=server.port) as client:
        assert client.drain()["drained"] is True
    elapsed, leaked = stop_after_drain(server)
    assert elapsed < 2.0
    assert leaked == []


# -- the process pool ---------------------------------------------------------

def test_process_pool_round_trip_shares_warmth_on_disk(tmp_path):
    try:
        config = ServiceConfig(port=0, workers=1, pool="process",
                               cache_dir=str(tmp_path / "cache"))
        threaded = ThreadedServer(config).start()
    except Exception:
        pytest.skip("multiprocessing unavailable in this sandbox")
    try:
        assert threaded.service.pool_kind == "process"
        with ServiceClient(port=threaded.port, timeout_s=120) as connection:
            first = connection.compile(FIG11_SOURCE, name="fig11")
            second = connection.compile(FIG11_SOURCE, name="fig11")
            direct = generate_communication(FIG11_SOURCE)
            assert first["ok"] and second["ok"]
            assert first["annotated_source"] == direct.annotated_source()
            assert second["annotated_source"] == direct.annotated_source()
            # the loop stored the worker's result and answered the repeat
            assert not first["cache_hit"]
            assert second["cache_hit"]
    finally:
        threaded.stop()


def test_process_pool_service_counts_hits_in_its_own_cache():
    """The loop answers the repeat from the service's cache, so the
    store-level stats and the request metrics agree."""
    try:
        config = ServiceConfig(port=0, workers=1, pool="process")
        threaded = ThreadedServer(config).start()
    except Exception:
        pytest.skip("multiprocessing unavailable in this sandbox")
    try:
        assert threaded.service.pool_kind == "process"
        with ServiceClient(port=threaded.port, timeout_s=120) as connection:
            first = connection.compile(FIG11_SOURCE, name="fig11")
            second = connection.compile(FIG11_SOURCE, name="fig11")
            status = connection.status()
    finally:
        threaded.stop()
    assert [first["cache_hit"], second["cache_hit"]] == [False, True]
    assert status["cache"]["store"]["hits"] == status["cache"]["hits"] == 1


# -- the cache: the event loop owns it ----------------------------------------

def test_every_cache_call_runs_on_the_loop_thread(monkeypatch):
    from repro.batch.cache import PipelineCache

    callers = []
    real_get, real_put = PipelineCache.get, PipelineCache.put

    def get(self, *args):
        callers.append(threading.get_ident())
        return real_get(self, *args)

    def put(self, *args):
        callers.append(threading.get_ident())
        return real_put(self, *args)

    monkeypatch.setattr(PipelineCache, "get", get)
    monkeypatch.setattr(PipelineCache, "put", put)
    corpus = [(f"gen-{seed}", generated_source(14, seed=60 + seed))
              for seed in range(8)]
    config = ServiceConfig(port=0, workers=4, pool="thread", queue_limit=64)
    with ThreadedServer(config) as threaded:

        def send(programs):
            with ServiceClient(port=threaded.port) as connection:
                for name, text in programs:
                    assert connection.compile(text, name=name)["ok"]

        for _ in range(2):  # distinct programs, then their repeats
            clients = [threading.Thread(target=send, args=(corpus[i::4],))
                       for i in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
        with ServiceClient(port=threaded.port) as connection:
            status = connection.status()
        loop_thread = threaded._thread.ident
    assert status["cache"]["hits"] == len(corpus)
    assert callers and set(callers) == {loop_thread}


def test_hardened_repeat_through_the_service_is_a_hit():
    config = ServiceConfig(port=0, workers=2, pool="thread")
    with ThreadedServer(config) as threaded:
        with ServiceClient(port=threaded.port) as connection:
            first, second = [
                connection.compile(FIG11_SOURCE, name="fig11",
                                   options={"hardened": True})
                for _ in range(2)]
    fresh = compile_one("fig11", FIG11_SOURCE,
                        options=BatchOptions(hardened=True))
    assert [first["cache_hit"], second["cache_hit"]] == [False, True]
    for key in ("annotated_source", "reads", "writes", "rung", "degraded"):
        assert first[key] == second[key] == getattr(fresh, key), key


def test_a_deadline_expired_miss_still_warms_the_cache(monkeypatch):
    """The compile is held until the deadline reply is in: a thread-pool
    compile can keep the event loop from the GIL past the deadline
    (under ``-X dev`` the reply came only after the compile ended)."""
    release = threading.Event()
    compile_uncached = server_module.compile_uncached

    def held(*args):
        release.wait(30)
        return compile_uncached(*args)

    monkeypatch.setattr(server_module, "compile_uncached", held)
    config = ServiceConfig(port=0, workers=1, pool="thread")
    with ThreadedServer(config) as threaded:
        try:
            with ServiceClient(port=threaded.port) as connection:
                with pytest.raises(ServiceError) as excinfo:
                    connection.compile(SLOW_SOURCE, name="slow",
                                       deadline_s=0.005)
                assert excinfo.value.code == E_DEADLINE
                # the abandoned compile holds its slot until it ends,
                # and then stores its result
                assert connection.status()["requests"]["inflight"] == 1
                release.set()
                assert wait_until(
                    lambda: connection.status()["requests"]["inflight"] == 0,
                    timeout_s=60)
                assert connection.compile(SLOW_SOURCE,
                                          name="slow")["cache_hit"]
        finally:
            release.set()


def test_a_pipeline_value_no_cache_key_can_hold_is_a_bad_request():
    """A list-valued option is refused before admission, so it takes
    no slot and a drain still completes."""
    options = {"pipeline": {"solver_rounds": [1]}}
    config = ServiceConfig(port=0, workers=1, pool="thread", queue_limit=2)
    with ThreadedServer(config) as threaded:
        with ServiceClient(port=threaded.port) as connection:
            for _ in range(config.queue_limit + 1):
                for send in (
                        lambda: connection.compile(FIG11_SOURCE,
                                                   options=options),
                        lambda: connection.batch(
                            [{"name": "fig11", "source": FIG11_SOURCE}],
                            options=options)):
                    with pytest.raises(ServiceError) as excinfo:
                        send()
                    assert excinfo.value.code == E_BAD_REQUEST
                    assert "solver_rounds" in str(excinfo.value)
            assert connection.status()["requests"]["inflight"] == 0
            assert connection.compile(FIG11_SOURCE)["ok"]
            assert connection.drain()["drained"]


def test_a_cache_lookup_that_raises_frees_its_admission_slot():
    config = ServiceConfig(port=0, workers=1, pool="thread", queue_limit=2)
    with ThreadedServer(config) as threaded:

        def get(key):
            raise OSError("cache unreadable")

        threaded.service.cache.get = get
        with ServiceClient(port=threaded.port) as connection:
            for _ in range(config.queue_limit + 1):
                with pytest.raises(ServiceError) as excinfo:
                    connection.compile(FIG11_SOURCE)
                assert excinfo.value.code == E_INTERNAL
                assert "cache unreadable" in str(excinfo.value)
            assert connection.status()["requests"]["inflight"] == 0
            assert connection.drain()["drained"]


def test_hardened_request_overriding_a_rung_option_is_a_bad_request(client):
    with pytest.raises(ServiceError) as excinfo:
        client.compile(FIG11_SOURCE, name="fig11", options={
            "hardened": True, "pipeline": {"hoist_zero_trip": False}})
    assert excinfo.value.code == E_BAD_REQUEST
    assert "hoist_zero_trip" in str(excinfo.value)


# -- protocol abuse over a live socket ----------------------------------------

def test_malformed_lines_get_bad_request_replies(line_client):
    connection = line_client
    # raw non-JSON line down the same socket
    connection._file.write(b"this is not json\n")
    connection._file.flush()
    reply = decode_message(connection._file.readline())
    assert reply["ok"] is False
    assert reply["error"]["code"] == E_BAD_REQUEST


def wire_counters(status):
    """``(received, bad_requests)`` of a service's or a router's
    status."""
    if "fleet" in status:
        return status["fleet"]["received"], status["fleet"]["bad_requests"]
    return status["requests"]["received"], status["admission"]["bad_requests"]


def test_over_long_line_is_refused_counted_and_closes(line_client):
    connection = line_client
    received, bad = wire_counters(connection.status())
    connection._file.write(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
    connection._file.flush()
    reply = decode_message(connection._file.readline())
    assert reply["error"]["code"] == E_BAD_REQUEST
    assert "bytes" in reply["error"]["message"]
    try:
        rest = connection._file.readline()
    except ConnectionResetError:  # closed with the line's tail unread
        rest = b""
    assert rest == b""
    connection.reconnect()
    # the long line and this status request
    assert wire_counters(connection.status()) == (received + 2, bad + 1)


def test_unknown_request_type_is_rejected(line_client):
    with pytest.raises(ServiceError) as excinfo:
        line_client.request({"type": "explode"})
    assert excinfo.value.code == E_BAD_REQUEST


def test_compile_without_source_is_rejected(client):
    with pytest.raises(ServiceError) as excinfo:
        client.request({"type": "compile", "name": "empty"})
    assert excinfo.value.code == E_BAD_REQUEST
    assert "source" in str(excinfo.value)


def test_bad_deadline_and_options_are_rejected(client):
    with pytest.raises(ServiceError) as excinfo:
        client.request({"type": "compile", "source": FIG11_SOURCE,
                        "deadline_s": -1})
    assert excinfo.value.code == E_BAD_REQUEST
    with pytest.raises(ServiceError) as excinfo:
        client.request({"type": "compile", "source": FIG11_SOURCE,
                        "options": {"hardend": True}})
    assert excinfo.value.code == E_BAD_REQUEST
    assert "unknown option" in str(excinfo.value)


def test_empty_batch_is_rejected(line_client):
    with pytest.raises(ServiceError) as excinfo:
        line_client.request({"type": "batch", "programs": []})
    assert excinfo.value.code == E_BAD_REQUEST


def test_blank_lines_are_ignored(line_client):
    connection = line_client
    connection._file.write(b"\n")
    connection._file.flush()
    assert connection.ping()["ok"]  # server skipped the blank line


# -- backpressure hints -------------------------------------------------------

def _bare_service(**overrides):
    """A CompileService that never binds a socket — enough state for the
    pure backpressure-arithmetic paths."""
    from repro.service.server import CompileService

    config = ServiceConfig(port=0, workers=1, pool="thread", **overrides)
    return CompileService(config)


def test_retry_after_with_empty_histogram_uses_the_startup_guess():
    service = _bare_service()
    assert service.metrics.latency["total_s"].count == 0
    # No completed request yet: the 0.05 s prior, one queued unit.
    assert service._retry_after() == pytest.approx(0.05)


def test_retry_after_with_zero_median_is_not_treated_as_no_data():
    """A recorded median of zero means the service is *fast*, not
    unmeasured — the hint must clamp to the 0.01 s floor instead of
    falling back to the 5x-larger startup guess."""
    service = _bare_service()
    for _ in range(8):
        service.metrics.latency["total_s"].record(0.0)
    assert service.metrics.latency["total_s"].percentile(0.5) == 0.0
    assert service._retry_after() == pytest.approx(0.01)


def test_retry_after_scales_with_queue_depth_and_median():
    service = _bare_service()
    for _ in range(9):
        service.metrics.latency["total_s"].record(0.2)
    service.metrics.admit(3)
    try:
        median = service.metrics.latency["total_s"].percentile(0.5)
        assert median > 0.0
        expected = round(min(MAX_RETRY_AFTER_S,
                             max(0.01, median * 3 / service.workers)), 4)
        assert service._retry_after() == pytest.approx(expected)
    finally:
        service.metrics.release(3)
