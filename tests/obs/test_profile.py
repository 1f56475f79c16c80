"""End-to-end profiles and the BENCH_solver.json payload."""

import json
import re

from repro.commgen import generate_communication
from repro.machine import ConditionPolicy
from repro.obs import (
    build_profile,
    format_profile,
    profile_source,
    run_satisfies_each_equation_once,
    stable_form,
    to_json,
    tracing,
)
from repro.obs.bench import SCHEMA, solver_scaling, write_bench_json
from repro.testing.programs import FIG11_SOURCE


def test_profile_verifies_each_equation_once():
    payload = profile_source(FIG11_SOURCE)
    summary = payload["summary"]
    assert len(summary["solver_runs"]) == 2  # READ (BEFORE) + WRITE (AFTER)
    assert summary["each_equation_once"] is True
    assert all(run_satisfies_each_equation_once(run)
               for run in summary["solver_runs"])
    # the two solves land in the global counters too
    evaluations = summary["equation_evaluations"]
    assert set(evaluations) == {str(n) for n in range(1, 16)}


def test_profile_records_graph_statistics():
    payload = profile_source(FIG11_SOURCE)
    graph = payload["summary"]["graph"]
    assert graph["interval_graph"]["nodes"] > 0
    assert graph["interval_graph"]["jump_edges"] == 1  # the goto 77
    assert "normalize" in graph


def test_profile_counts_placements():
    payload = profile_source(FIG11_SOURCE)
    placements = payload["summary"]["placements"]
    assert placements["reads"] > 0 and placements["writes"] > 0


def test_profile_is_json_serializable_and_deterministic():
    first = profile_source(FIG11_SOURCE)
    second = profile_source(FIG11_SOURCE)
    assert json.loads(to_json(first)) == first
    assert stable_form(first) == stable_form(second)


def test_profile_hardened_records_rung_decisions():
    payload = profile_source(FIG11_SOURCE, hardened=True)
    hardened = payload["summary"]["hardened"]
    assert hardened["result"]["rung"] == "balanced"
    assert hardened["attempts"][0]["ok"] is True
    # both problems certified for balance and sufficiency over all paths
    assert hardened["attempts"][0]["checks"] == {
        f"{problem} {criterion}": "0 violations"
        for problem in ("read", "write") for criterion in ("C1", "C3")}


def test_profile_simulation_timeline_matches_metrics():
    payload = profile_source(FIG11_SOURCE, run_simulation=True,
                             bindings={"n": 8},
                             policy=ConditionPolicy("always"))
    timeline = payload["summary"]["machine"]["timeline_counts"]
    metrics = payload["summary"]["machine_metrics"]
    assert timeline["send"] == metrics["messages"] > 0
    assert timeline["transmit"] == timeline["send"]
    assert 0 < timeline["recv"] <= timeline["send"]


def test_format_profile_human_rendering():
    text = format_profile(profile_source(FIG11_SOURCE))
    assert text.startswith("# repro profile")
    assert "each-equation-once (all runs): yes" in text
    assert "placements: reads=" in text


def test_profile_times_plan_builds_apart_from_solver_runs():
    payload = profile_source(FIG11_SOURCE)
    plans = payload["summary"]["solver_plans"]
    # one forward plan, one (optimistic) backward plan
    assert [plan["direction"] for plan in plans] == ["before", "after"]
    assert all(plan["duration_s"] >= 0 for plan in plans)
    text = format_profile(payload)
    for index in (1, 2):
        assert re.search(rf"^solver plan {index}: .* duration=\d+\.\d{{3}}ms$",
                         text, re.MULTILINE)
        assert re.search(rf"^solver run {index}: .* duration=\d+\.\d{{3}}ms$",
                         text, re.MULTILINE)
    # durations are wall-clock fields, so stable traces drop them
    stable = stable_form(payload)["summary"]["solver_plans"]
    assert stable == [{key: value for key, value in plan.items()
                       if key != "duration_s"} for plan in plans]
    assert "duration=" not in format_profile(stable_form(payload))


def test_format_profile_event_stream():
    payload = profile_source(FIG11_SOURCE)
    text = format_profile(payload, events=True)
    assert text.count("\n") > len(payload["events"])


# -- BENCH_solver.json ------------------------------------------------------

def test_bench_report_shape(tmp_path):
    report = solver_scaling(sizes=(12, 24), repeats=1)
    assert report["schema"] == SCHEMA
    # one row per size x direction
    assert [(row["size"], row["direction"]) for row in report["rows"]] == [
        (12, "BEFORE"), (12, "AFTER"), (24, "BEFORE"), (24, "AFTER")]
    assert report["each_equation_once"] is True
    for row in report["rows"]:
        assert row["converged"]
        assert row["time_per_node_s"] == row["planned_median_s"] / row["nodes"]
    assert len(report["per_node_growth_ratios_s"]) == 1  # BEFORE rows only

    path = tmp_path / "BENCH_solver.json"
    written = write_bench_json(str(path), report)
    assert written is report
    assert json.loads(path.read_text()) == report


def test_kernel_bench_report_shape():
    """The planned backend against the reference solver, measured on the
    same rows as the ladder (the former ``BENCH_kernel.json``)."""
    report = solver_scaling(sizes=(12, 24), repeats=1)
    assert len(report["rows"]) == 4  # two sizes x two directions
    assert report["all_identical"] is True
    for row in report["rows"]:
        assert row["direction"] in ("BEFORE", "AFTER")
        assert row["identical"]
        assert row["reference_median_s"] > 0 and row["planned_median_s"] > 0
        assert row["speedup_s"] == (row["reference_median_s"]
                                    / row["planned_median_s"])
        assert row["speedup_with_plan_s"] == (
            row["reference_median_s"] / row["planned_with_plan_median_s"])
    assert report["min_speedup_s"] == min(row["speedup_s"]
                                          for row in report["rows"])


def test_bench_rows_increase_in_nodes():
    report = solver_scaling(sizes=(12, 24), repeats=1)
    nodes = [row["nodes"] for row in report["rows"]]
    assert nodes == sorted(nodes) and nodes[0] < nodes[-1]


def reference_profile(source):
    """What :func:`profile_source` returns for ``source``, compiled on
    the reference solver kernel instead of the default planned one."""
    with tracing() as collector:
        result = generate_communication(source, solver_backend="reference")
    reads, writes = result.communication_count()
    return build_profile(collector,
                         {"placements": {"reads": reads, "writes": writes}})


def test_profile_solver_backend_selects_the_kernel():
    planned = profile_source(FIG11_SOURCE)  # "planned" is the default
    reference = reference_profile(FIG11_SOURCE)
    planned_runs = planned["summary"]["solver_runs"]
    reference_runs = reference["summary"]["solver_runs"]
    assert all(run["backend"] == "planned" for run in planned_runs)
    assert all(run["backend"] == "reference" for run in reference_runs)

    def untimed(runs):  # a run less the kernel's name and timing
        return [{key: value for key, value in run.items()
                 if key not in ("backend", "duration_s")} for run in runs]

    assert untimed(planned_runs) == untimed(reference_runs)
    # both satisfy §5.2 and place identically
    assert planned["summary"]["each_equation_once"] is True
    assert reference["summary"]["each_equation_once"] is True
    assert (planned["summary"]["placements"]
            == reference["summary"]["placements"])


def test_planned_verdict_rejects_tampered_counts():
    """The planned-run verdict is exact, not just an upper bound."""
    payload = profile_source(FIG11_SOURCE)
    run = payload["summary"]["solver_runs"][-1]  # the AFTER solve
    assert run["backend"] == "planned"
    assert run_satisfies_each_equation_once(run)
    inflated = dict(run,
                    equation_evaluations=dict(run["equation_evaluations"]))
    inflated["equation_evaluations"]["1"] += 1
    assert not run_satisfies_each_equation_once(inflated)


def test_format_profile_shows_backend_and_sparse_stats():
    text = format_profile(profile_source(FIG11_SOURCE))
    assert "backend=planned" in text
    text = format_profile(reference_profile(FIG11_SOURCE))
    assert "backend=reference" in text
    assert "each-equation-once (all runs): yes" in text

