"""The bench harness: one scenario registry, one ``main``, one check path."""

import itertools
import json
import threading

import pytest

from repro.obs.bench import (
    OVERLAP_SCHEMA,
    SCENARIOS,
    main,
    service_throughput,
    solver_scaling,
)

#: Each scenario's measure function at its smallest useful parameters.
SMALL = {
    "solver": {"sizes": (12, 24), "repeats": 1},
    "batch": {"n_programs": 2, "jobs": 1, "size": 6, "repeats": 1},
    "kernel": {"sizes": (12,), "repeats": 1},
    "incr": {"n_programs": 1, "size": 10, "n_edits": 1, "repeats": 1},
    "service": {"n_clients": 1, "requests_per_client": 1, "corpus_size": 1,
                "size": 6, "workers": 1},
    "fleet": {"n_shards": 2, "n_requests": 5, "corpus_size": 2, "size": 6,
              "workers": 1},
    "overlap": {},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_gate_is_a_bool_of_its_payload(name):
    # Timing gates may read either way on a small run; only their
    # presence and type are checked here.
    scenario = SCENARIOS[name]
    report = scenario.measure(**SMALL[name])
    for gate in scenario.gates:
        assert isinstance(report[gate], bool), gate
    assert list(scenario.rows(report))


def test_overlap_check_passes_and_writes_its_payload(tmp_path, capsys):
    output = tmp_path / "overlap.json"
    assert main(["--overlap", "--check", "--output", str(output)]) == 0
    assert json.loads(output.read_text())["schema"] == OVERLAP_SCHEMA
    wrote = capsys.readouterr().out.splitlines()[-1]
    assert wrote.startswith(f"wrote {output} (")
    for gate in SCENARIOS["overlap"].gates:
        assert f"{gate}=True" in wrote


def test_check_exits_1_and_names_the_false_gate(tmp_path, monkeypatch,
                                                capsys):
    payload = solver_scaling(sizes=(12, 24), repeats=1)
    payload.update(linear_within_tolerance=True, each_equation_once=False)
    monkeypatch.setitem(SCENARIOS, "solver", SCENARIOS["solver"]._replace(
        measure=lambda: payload))
    monkeypatch.chdir(tmp_path)

    assert main(["--check"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: solver gate(s) false: each_equation_once\n"
    assert ("wrote BENCH_solver.json (linear_within_tolerance=True, "
            "each_equation_once=False)") in captured.out
    assert json.loads((tmp_path / "BENCH_solver.json").read_text()) == payload

    assert main([]) == 0  # without --check a false gate is only reported
    assert capsys.readouterr().err == ""


def test_two_scenario_flags_are_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["--kernel", "--batch", "--check"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_service_bench_returns_when_a_load_client_cannot_connect(
        monkeypatch):
    import repro.service

    real_client = repro.service.ServiceClient
    made = itertools.count()

    def client_failing_once(*args, **kwargs):
        # client 0 warms the server; client 1 is the first load client
        if next(made) == 1:
            raise ConnectionRefusedError("injected connect failure")
        return real_client(*args, **kwargs)

    monkeypatch.setattr(repro.service, "ServiceClient", client_failing_once)
    outcome = {}

    def run():
        outcome["report"] = service_throughput(
            n_clients=2, requests_per_client=2, corpus_size=2, workers=1)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive(), "the service bench hung"
    report = outcome["report"]
    assert report["requests"]["dropped"] > 0
    assert report["zero_dropped_or_corrupted"] is False
