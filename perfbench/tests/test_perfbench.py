"""Tests of the benchmark itself, on tiny corpora.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import cold, fleet  # noqa: E402
from perfbench.common import WORKLOADS, generate_corpus  # noqa: E402
from perfbench.compile_worker import traced  # noqa: E402
from perfbench.fleet import child_pids  # noqa: E402
from perfbench.layers import LAYER_TABLE, OTHER_TABLE, LayerTracer  # noqa: E402
from repro.batch.driver import compile_one  # noqa: E402

TINY = {"size": 12, "goto_probability": 0.3, "max_depth": 3}


def tiny_corpus(count=4, seed=3):
    return generate_corpus(seed, TINY, count)


def test_nested_spans_split_self_time():
    tracer = LayerTracer(entry_points=())
    inner = tracer.wrap("inner_s", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("outer_s", outer_body)
    start = time.perf_counter()
    outer()
    total = time.perf_counter() - start
    assert tracer.self_s["inner_s"] == pytest.approx(0.02, abs=0.008)
    assert tracer.self_s["outer_s"] == pytest.approx(0.01, abs=0.008)
    assert sum(tracer.self_s.values()) <= total
    assert dict(tracer.calls) == {"inner_s": 1, "outer_s": 1}


def test_layer_self_times_add_up_to_the_traced_time():
    result = traced(compile_one, tiny_corpus(), 0)
    assert result["errors"] == []
    assert result["passes"] == 2
    layer_total = sum(result["layer_s"].values())
    unattributed = result["traced_s"] - layer_total
    assert layer_total + unattributed == pytest.approx(result["traced_s"])
    # Spans never double count, and they cover nearly all of a compile.
    assert unattributed >= -1e-9
    assert layer_total >= 0.9 * result["traced_s"]
    assert result["counts"]["core.solve_calls"] >= 2 * 4


def test_traced_outputs_are_byte_identical_to_untraced():
    result = traced(compile_one, tiny_corpus(), 0)
    assert None not in result["digests"]["untraced"]
    assert result["digests"]["traced"] == result["digests"]["untraced"]


def test_missing_entry_point_gives_zero_calls_not_an_error():
    tracer = LayerTracer(entry_points=(
        ("gone_s", "repro.commgen.pipeline", "no_such_function", None),
        ("gone_s", "repro.no_such_module", "solve", None),
        ("gone_s", "repro.commgen.pipeline", "NoSuchClass.apply", None),
        ("lang.print_s", "repro.commgen.pipeline", "format_program", None),
    ))
    name, text = tiny_corpus(1)[0]
    with tracer.installed():
        compiled = compile_one(name, text)
    assert compiled.ok
    assert tracer.calls["gone_s"] == 0
    assert tracer.calls["lang.print_s"] == 1
    assert len(tracer.missing) == 3


def test_installed_wrappers_are_removed_afterwards():
    import repro.commgen.pipeline as pipeline
    import repro.core.checker as checker

    solve, certify = pipeline.solve, checker.check_placement_dual
    from_program = vars(pipeline.SymbolTable)["from_program"]
    with LayerTracer().installed():
        assert pipeline.solve is not solve
    assert pipeline.solve is solve
    assert checker.check_placement_dual is certify
    assert vars(pipeline.SymbolTable)["from_program"] is from_program
    assert "apply" in vars(pipeline.Annotator)


def test_simulator_figures_repeat_between_runs_and_trace_modes():
    config = dict(WORKLOADS["cold-jumpy"], generator=TINY, programs=3,
                  traced_programs=2)
    outcomes = [cold.run("cold-jumpy", config, 5, 0.3, trace)
                for trace in (0, 1, 0)]
    for _, _, attempted, failed, _ in outcomes:
        assert attempted >= 1 and failed == 0
    qualities = [extra["quality"] for *_, extra in outcomes]
    assert qualities[0] == qualities[1] == qualities[2]
    assert qualities[0]["sim_messages"] > 0
    traced_metrics = outcomes[1][1]
    assert traced_metrics["sim_messages"][0] == qualities[0]["sim_messages"]
    assert traced_metrics["sim_makespan"][0] == qualities[0]["sim_makespan"]


def test_programs_failing_simulation_are_excluded_and_counted(monkeypatch):
    real_oracle = cold.run_oracle

    def oracle(corpus, seed):
        outcomes = real_oracle(corpus, seed)
        outcomes[0] = {"name": outcomes[0]["name"], "digest": "x",
                       "comm_statements": 0,
                       "sim_error": "AnalysisError: receive without send"}
        return outcomes

    monkeypatch.setattr(cold, "run_oracle", oracle)
    config = dict(WORKLOADS["cold-jumpy"], generator=TINY, programs=3)
    report, _, attempted, failed, extra = cold.run("cold-jumpy", config, 5,
                                                   0.3, 0)
    assert attempted >= 1 and failed == 0
    assert extra["quality"]["machine.sim_failures"] == 1
    assert extra["simulated"] == 2
    assert any("p000: its reference output fails simulation" in line
               for line in report)


def test_a_cold_run_leaves_no_process_behind():
    # A spawned multiprocessing pool would start a resource tracker that
    # outlives the run; every process a run starts must have ended.
    config = dict(WORKLOADS["cold-jumpy"], generator=TINY, programs=3,
                  traced_programs=2)
    for trace in (0, 1):
        cold.run("cold-jumpy", config, 5, 0.3, trace)
        assert child_pids(os.getpid()) == []


def test_a_fleet_run_leaves_no_process_behind(monkeypatch):
    monkeypatch.setattr(fleet, "SETUP_LAUNCHES", 1)
    config = dict(WORKLOADS["fleet-edits"], programs=3,
                  generator=dict(TINY, goto_probability=0.0))
    _, _, attempted, failed, _ = fleet.run("fleet-edits", config, 5, 0.5, 0)
    assert attempted >= 1 and failed == 0
    assert child_pids(os.getpid()) == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-jumpy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_matches_the_workload_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_per_layer_metric_says_what_it_should_move():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    hinted = [name for name, *_ in LAYER_TABLE + OTHER_TABLE]
    assert sorted(hinted) == sorted(m["name"] for m in spec["per_layer"])
