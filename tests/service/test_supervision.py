"""Worker-pool supervision: broken pools rebuilt, requests requeued.

A worker that dies mid-compile breaks its whole executor — every
in-flight future and every later submit raises
:class:`~concurrent.futures.process.BrokenProcessPool`.  The service
must treat that as a supervised event (rebuild the pool, requeue the
affected request once, count both), not as a reason to poison the
connection.  Thread-pool servers get the failure injected at the submit
boundary (threads cannot be SIGKILLed); one dedicated test kills a real
process-pool worker.
"""

import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.commgen.pipeline import generate_communication
from repro.service import (
    E_INTERNAL,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ThreadedServer,
)
from repro.testing.programs import FIG11_SOURCE


def induce_broken_submits(executor, times=1):
    """Arm ``executor`` so its next ``times`` submits raise like a pool
    whose worker just crashed."""
    state = {"left": times}
    original = executor.submit

    def broken(*args, **kwargs):
        if state["left"] > 0:
            state["left"] -= 1
            raise BrokenProcessPool("induced worker crash")
        return original(*args, **kwargs)

    executor.submit = broken


def test_broken_pool_is_rebuilt_and_request_requeued():
    with ThreadedServer(ServiceConfig(pool="thread", workers=2)) as server:
        induce_broken_submits(server.service._executor)
        with ServiceClient(port=server.port) as client:
            result = client.compile(FIG11_SOURCE, name="fig11")
            # the client sees a normal, byte-correct reply — the crash
            # was absorbed entirely server-side
            assert result["ok"] is True
            direct = generate_communication(FIG11_SOURCE)
            assert result["annotated_source"] == direct.annotated_source()
            status = client.status()
    assert status["supervision"]["pool_rebuilds"] == 1
    assert status["supervision"]["requeued"] == 1
    assert status["admission"]["internal_errors"] == 0
    # the admission slot came back: nothing left in flight
    assert status["requests"]["inflight"] == 0


def test_pool_failure_coalesces_one_rebuild_for_concurrent_requests():
    with ThreadedServer(ServiceConfig(pool="thread", workers=2)) as server:
        # both in-flight requests hit the broken pool; the generation
        # counter must coalesce them onto a single rebuild
        induce_broken_submits(server.service._executor, times=2)
        with ServiceClient(port=server.port) as client:
            reply = client.batch([("a", FIG11_SOURCE), ("b", FIG11_SOURCE)])
            assert reply["ok_count"] == 2
            status = client.status()
    assert status["supervision"]["pool_rebuilds"] == 1
    assert status["supervision"]["requeued"] == 2


def test_request_failing_on_the_fresh_pool_too_is_internal_error():
    with ThreadedServer(ServiceConfig(pool="thread", workers=2)) as server:
        service = server.service
        original_build = service._build_executor

        def broken_build():
            executor, kind = original_build()
            induce_broken_submits(executor, times=10 ** 6)
            return executor, kind

        service._build_executor = broken_build
        induce_broken_submits(service._executor)
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.compile(FIG11_SOURCE, name="fig11")
            assert excinfo.value.code == E_INTERNAL
            status = client.status()
        service._build_executor = original_build
    # requeued once onto the fresh pool, which was broken too: the
    # error surfaces, but only after one full supervision cycle
    assert status["supervision"]["pool_rebuilds"] == 1
    assert status["supervision"]["requeued"] == 1
    assert status["admission"]["internal_errors"] == 1
    assert status["requests"]["inflight"] == 0


def test_service_keeps_serving_after_repeated_pool_failures():
    # Cacheless: each repeat must reach the pool, not the loop-side cache.
    config = ServiceConfig(pool="thread", workers=2, use_cache=False)
    with ThreadedServer(config) as server:
        with ServiceClient(port=server.port) as client:
            for round_trip in range(3):
                induce_broken_submits(server.service._executor)
                result = client.compile(FIG11_SOURCE,
                                        name=f"round-{round_trip}")
                assert result["ok"] is True
            status = client.status()
    assert status["supervision"]["pool_rebuilds"] == 3
    assert status["supervision"]["requeued"] == 3


def test_sigkilled_process_pool_worker_is_supervised():
    try:
        # Cacheless: the compile after the kill must reach the pool.
        config = ServiceConfig(port=0, workers=1, pool="process",
                               use_cache=False)
        threaded = ThreadedServer(config).start()
    except Exception:
        pytest.skip("multiprocessing unavailable in this sandbox")
    try:
        assert threaded.service.pool_kind == "process"
        with ServiceClient(port=threaded.port, timeout_s=120) as client:
            # warm the pool so a worker exists to kill
            assert client.compile(FIG11_SOURCE, name="warm")["ok"]
            processes = threaded.service._executor._processes
            os.kill(next(iter(processes)), signal.SIGKILL)
            # the dead worker breaks the executor; the next compile must
            # ride one supervised rebuild and still answer correctly
            result = client.compile(FIG11_SOURCE, name="after-crash")
            assert result["ok"] is True
            direct = generate_communication(FIG11_SOURCE)
            assert result["annotated_source"] == direct.annotated_source()
            status = client.status()
            assert status["supervision"]["pool_rebuilds"] >= 1
            assert status["supervision"]["requeued"] >= 1
    finally:
        threaded.stop()
