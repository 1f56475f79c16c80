"""ChaosPlan scripting, the controller, and a small live chaos run."""

import pytest

from repro.commgen.pipeline import generate_communication
from repro.fleet import ChaosController, ChaosEvent, ChaosPlan, LocalFleet
from repro.fleet.router import FleetConfig
from repro.lang.printer import format_program
from repro.testing.generator import ArrayProgramGenerator
from repro.util.errors import FaultSpecError


def generated_source(size, seed=0):
    return format_program(ArrayProgramGenerator(seed=seed).program(size=size))


# -- plan validation ----------------------------------------------------------

def test_plan_rejects_negative_counts():
    with pytest.raises(FaultSpecError):
        ChaosPlan(kills=-1)
    with pytest.raises(FaultSpecError):
        ChaosPlan(delay_s=-0.5)


def test_event_rejects_unknown_actions():
    with pytest.raises(FaultSpecError, match="unknown chaos action"):
        ChaosEvent(3, "unplug_the_datacenter")


def test_event_as_dict_carries_target_and_duration():
    event = ChaosEvent(5, "delay", shard=2, seconds=0.5)
    assert event.as_dict() == {"at_request": 5, "action": "delay",
                               "shard": 2, "seconds": 0.5}
    assert ChaosEvent(1, "sever").as_dict() == {"at_request": 1,
                                                "action": "sever"}


def test_active_flag():
    assert ChaosPlan().active
    assert not ChaosPlan(kills=0, worker_crashes=0, severs=0, delays=0).active


# -- scripting ----------------------------------------------------------------

def test_script_is_deterministic_per_seed():
    plan = ChaosPlan(seed=11, kills=1, worker_crashes=2, severs=1, delays=1)
    assert plan.script(3, 24) == plan.script(3, 24)
    other = ChaosPlan(seed=12, kills=1, worker_crashes=2, severs=1, delays=1)
    assert plan.script(3, 24) != other.script(3, 24)


def test_script_keeps_at_least_one_shard_alive():
    plan = ChaosPlan(kills=99)
    events = plan.script(3, 24)
    kills = [e for e in events if e.action == "kill_shard"]
    assert len(kills) == 2  # clamped to n_shards - 1
    assert len({e.shard for e in kills}) == 2


def test_script_targets_crashes_and_delays_at_survivors():
    for seed in range(10):
        plan = ChaosPlan(seed=seed, kills=2, worker_crashes=3, delays=2)
        events = plan.script(4, 40)
        killed = {e.shard for e in events if e.action == "kill_shard"}
        for event in events:
            if event.action in ("crash_worker", "delay"):
                assert event.shard not in killed


def test_script_places_events_in_the_middle_of_the_stream():
    plan = ChaosPlan(seed=3, kills=1, worker_crashes=2, severs=2, delays=1)
    n_requests = 30
    events = plan.script(3, n_requests)
    for event in events:
        assert n_requests // 5 <= event.at_request < (4 * n_requests) // 5
    assert events == sorted(events,
                            key=lambda e: (e.at_request, e.action))


# -- the controller -----------------------------------------------------------

class RecordingFleet:
    def __init__(self):
        self.calls = []

    def kill_shard(self, index):
        self.calls.append(("kill", index))
        return f"shard-{index} killed"

    def crash_worker(self, index):
        raise RuntimeError("shard raced away")


def test_controller_fires_events_in_request_order():
    fleet = RecordingFleet()
    controller = ChaosController(fleet, [
        ChaosEvent(5, "kill_shard", shard=1),
        ChaosEvent(2, "kill_shard", shard=0),
    ])
    controller.advance(1)
    assert fleet.calls == []
    controller.advance(2)
    assert fleet.calls == [("kill", 0)]
    controller.advance(10)  # fires everything due, in order
    assert fleet.calls == [("kill", 0), ("kill", 1)]
    assert [r["detail"] for r in controller.applied] == [
        "shard-0 killed", "shard-1 killed"]


def test_controller_records_misfires_instead_of_raising():
    controller = ChaosController(RecordingFleet(),
                                 [ChaosEvent(0, "crash_worker", shard=1)])
    controller.advance(0)
    (record,) = controller.applied
    assert record["error"] == "RuntimeError: shard raced away"
    assert "detail" not in record


# -- a small live run ---------------------------------------------------------

def test_run_chaos_loses_nothing_and_stays_byte_identical():
    from repro.fleet.chaos import run_chaos

    corpus = [(f"gen-{i}", generated_source(8 + i, seed=300 + i))
              for i in range(4)]
    programs = [corpus[i % len(corpus)] for i in range(12)]
    expected = {name: generate_communication(text).annotated_source()
                for name, text in corpus}
    plan = ChaosPlan(seed=5, kills=1, worker_crashes=1, severs=1)
    config = FleetConfig(heartbeat_s=0.1, reset_timeout_s=0.3)
    with LocalFleet(n_shards=3, fleet_config=config) as fleet:
        report = run_chaos(fleet, programs, plan, timeout_s=30.0)
    assert report["requests"] == 12
    assert report["lost"] == 0
    assert len(report["events"]) == 3
    assert all("error" not in event for event in report["events"])
    for entry in report["results"]:
        assert entry["lost"] is False
        assert (entry["result"]["annotated_source"]
                == expected[entry["name"]])
    assert report["router"]["server"]["role"] == "fleet-router"
    assert set(report["supervision"]) == {"pool_rebuilds", "requeued"}
