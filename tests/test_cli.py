"""Command-line interface tests."""

import io

import pytest

from repro.cli import main
from repro.commgen import generate_communication
from repro.testing.programs import FIG11_SOURCE


@pytest.fixture
def fig11_file(tmp_path):
    path = tmp_path / "fig11.f"
    path.write_text(FIG11_SOURCE)
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_annotate(fig11_file):
    code, output = run(["annotate", fig11_file])
    assert code == 0
    assert "READ_Send{x(11:n + 10)}" in output
    assert "read and" in output  # the summary comment


def test_annotate_atomic(fig11_file):
    code, output = run(["annotate", fig11_file, "--atomic"])
    assert code == 0
    assert "READ{" in output and "READ_Send" not in output


def test_annotate_owner_computes(fig11_file):
    code, output = run(["annotate", fig11_file, "--owner-computes"])
    assert code == 0
    assert "WRITE" not in output


def test_graph_listing(fig11_file):
    code, output = run(["graph", fig11_file])
    assert code == 0
    assert "header" in output
    assert "(4, 10) JUMP" in output


def test_graph_dot(fig11_file):
    code, output = run(["graph", fig11_file, "--dot"])
    assert code == 0
    assert output.startswith("digraph")


def test_simulate_gnt_vs_naive(fig11_file):
    code, gnt = run(["simulate", fig11_file, "--n", "16", "--branch", "never"])
    assert code == 0
    code, naive = run(["simulate", fig11_file, "--n", "16", "--branch",
                       "never", "--naive"])
    assert code == 0
    gnt_messages = int(gnt.split("messages=")[1].split()[0])
    naive_messages = int(naive.split("messages=")[1].split()[0])
    assert gnt_messages < naive_messages


def test_simulate_overlap_schedule(fig11_file):
    code, output = run(["simulate", fig11_file, "--n", "16", "--branch",
                        "never", "--schedule", "overlap"])
    assert code == 0
    assert "naive:" in output
    assert "overlap:" in output
    assert "state=identical" in output
    assert "certified=ok" in output


def test_simulate_overlap_schedule_with_faults(fig11_file):
    code, output = run(["simulate", fig11_file, "--n", "16", "--branch",
                        "never", "--schedule", "overlap",
                        "--faults", "drop=0.2,seed=7", "--retries", "8"])
    assert code == 0
    assert "state=identical" in output


def test_pre_report(tmp_path):
    path = tmp_path / "cse.f"
    path.write_text("u = a + b\nv = a + b\n")
    code, output = run(["pre", str(path)])
    assert code == 0
    assert "a + b:" in output
    assert "GNT evaluates at" in output


def test_pre_no_expressions(tmp_path):
    path = tmp_path / "empty.f"
    path.write_text("u = 1\n")
    code, output = run(["pre", str(path)])
    assert code == 0
    assert "no candidate expressions" in output


def test_missing_file_error():
    code, _ = run(["annotate", "/nonexistent/path.f"])
    assert code == 2


def test_parse_error_reported(tmp_path):
    path = tmp_path / "bad.f"
    path.write_text("do i = 1, n\n")  # missing enddo
    code, _ = run(["annotate", str(path)])
    assert code == 2


def test_irreducible_program_reported(tmp_path):
    path = tmp_path / "irr.f"
    path.write_text("if t goto 5\ndo i = 1, n\n5 a = 1\nenddo\n")
    code, _ = run(["graph", str(path)])
    assert code == 2


# -- error hygiene: every subcommand exits 2 with one clean line ------------

def assert_clean_failure(capsys, argv):
    code, _ = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1  # exactly one line
    assert "Traceback" not in err


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.f"
    path.write_text("do i = 1, n\n")  # missing enddo -> ParseError
    return str(path)


def test_annotate_error_hygiene(capsys, bad_file):
    assert_clean_failure(capsys, ["annotate", bad_file])


def test_graph_error_hygiene(capsys, bad_file):
    assert_clean_failure(capsys, ["graph", bad_file])


def test_simulate_error_hygiene(capsys, bad_file):
    assert_clean_failure(capsys, ["simulate", bad_file])


def test_pre_error_hygiene(capsys, bad_file):
    assert_clean_failure(capsys, ["pre", bad_file])


def test_explain_error_hygiene(capsys, bad_file):
    assert_clean_failure(capsys, ["explain", bad_file])


def test_non_ascii_digit_error_hygiene(capsys, tmp_path):
    path = tmp_path / "sup.f"
    path.write_text("real x(10)\nx(1) = \u00b2\n", encoding="utf-8")
    assert_clean_failure(capsys, ["annotate", str(path)])


def test_bad_fault_spec_error_hygiene(capsys, fig11_file):
    assert_clean_failure(
        capsys, ["simulate", fig11_file, "--faults", "unknown=1"])


def test_bad_retry_policy_error_hygiene(capsys, fig11_file):
    assert_clean_failure(
        capsys, ["simulate", fig11_file, "--timeout", "-5"])
    assert_clean_failure(
        capsys, ["simulate", fig11_file, "--retries", "-1"])


# -- hardened pipeline and fault injection ----------------------------------

def test_annotate_hardened(fig11_file):
    code, output = run(["annotate", fig11_file, "--hardened"])
    assert code == 0
    assert "READ_Send" in output
    assert "rung=balanced" in output


def test_annotate_hardened_irreducible(tmp_path):
    path = tmp_path / "irr.f"
    path.write_text("if t goto 5\ndo i = 1, n\n5 a = 1\nenddo\n")
    code, output = run(["annotate", str(path), "--hardened"])
    assert code == 0  # degrades via node splitting instead of failing
    assert "irreducible" in output


def test_simulate_hardened_with_faults(fig11_file):
    code, output = run([
        "simulate", fig11_file, "--n", "16", "--branch", "never",
        "--hardened", "--faults", "drop=0.4,seed=3", "--retries", "8",
    ])
    assert code == 0
    assert "rung=balanced" in output
    retries = int(output.split("retries=")[1].split()[0])
    timeouts = int(output.split("timeouts=")[1].split()[0])
    assert retries > 0 and timeouts >= retries


def test_simulate_faults_deterministic(fig11_file):
    argv = ["simulate", fig11_file, "--n", "16", "--branch", "never",
            "--faults", "drop=0.3,dup=0.2,jitter=25,seed=9"]
    first = run(argv)
    second = run(argv)
    assert first == second


def test_simulate_retries_exhausted(capsys, fig11_file):
    # drop everything and forbid retries: a clean one-line timeout error
    assert_clean_failure(
        capsys, ["simulate", fig11_file, "--faults", "drop=1.0",
                 "--retries", "0"])


def test_annotate_no_hoist(fig11_file):
    code, output = run(["annotate", fig11_file, "--no-hoist"])
    assert code == 0
    # nothing is hoisted above the loops: the sends live inside them
    top = output.split("do i")[0]
    assert "READ_Send" not in top


@pytest.mark.parametrize("flag", ["--no-hoist", "--conservative-jumps"])
def test_annotate_hardened_rejects_the_options_its_ladder_sets(
        capsys, fig11_file, flag):
    """The ladder picks hoisting and jump handling per rung, so these
    flags would be silently ignored under ``--hardened``."""
    assert_clean_failure(capsys, ["annotate", fig11_file, "--hardened", flag])


def test_annotate_conservative_jumps(fig11_file):
    code, output = run(["annotate", fig11_file, "--conservative-jumps"])
    assert code == 0
    # the conservative §5.3 mode keeps per-iteration write regions
    assert output.count("WRITE_Send") >= 1


# -- observability: profile and --trace -------------------------------------

def test_profile_human_summary(fig11_file):
    code, output = run(["profile", fig11_file])
    assert code == 0
    assert "each-equation-once (all runs): yes" in output
    assert "solver run 1:" in output and "solver run 2:" in output


def test_profile_json(fig11_file):
    import json
    code, output = run(["profile", fig11_file, "--json"])
    assert code == 0
    payload = json.loads(output)
    assert payload["schema"] == "repro-trace/1"
    assert payload["summary"]["each_equation_once"] is True


def test_profile_hardened_simulate(fig11_file):
    code, output = run(["profile", fig11_file, "--hardened", "--simulate",
                        "--n", "8"])
    assert code == 0
    assert "hardened rung balanced: ok" in output
    assert "machine timeline:" in output


def test_profile_events_listing(fig11_file):
    code, output = run(["profile", fig11_file, "--events"])
    assert code == 0
    assert "solver   run" in output


def test_profile_error_hygiene(capsys, bad_file):
    assert_clean_failure(capsys, ["profile", bad_file])


def test_annotate_trace_flag(fig11_file):
    code, output = run(["annotate", fig11_file, "--trace"])
    assert code == 0
    assert "READ_Send" in output  # the normal output is still there
    assert "each-equation-once (all runs): yes" in output


def test_annotate_trace_json_file(tmp_path, fig11_file):
    import json
    trace_path = tmp_path / "trace.json"
    code, output = run(["annotate", fig11_file,
                        "--trace-json", str(trace_path)])
    assert code == 0
    assert "trace" not in output  # JSON goes to the file, not stdout
    payload = json.loads(trace_path.read_text())
    assert payload["schema"] == "repro-trace/1"
    assert payload["counters"]["equation_evaluations"]["1"] > 0


def test_simulate_trace_includes_machine_timeline(fig11_file):
    code, output = run(["simulate", fig11_file, "--n", "8", "--trace"])
    assert code == 0
    assert "machine timeline:" in output
    assert "send=" in output and "recv=" in output


def test_simulate_trace_json_stdout(fig11_file):
    import json
    code, output = run(["simulate", fig11_file, "--n", "8",
                        "--trace-json", "-"])
    assert code == 0
    json_start = output.index("{")
    payload = json.loads(output[json_start:])
    assert payload["summary"]["machine"]["timeline_counts"]["send"] > 0


def test_untraced_commands_leave_no_collector(fig11_file):
    from repro.obs import NULL, current_collector
    code, _ = run(["annotate", fig11_file])
    assert code == 0
    assert current_collector() is NULL


def test_stdin_input(monkeypatch):
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO("u = 1\n"))
    code, output = run(["graph", "-"])
    assert code == 0
    assert "u = 1" in output


# -- batch compilation -------------------------------------------------------

@pytest.fixture
def corpus_dir(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "fig11.f").write_text(FIG11_SOURCE)
    (directory / "tiny.f").write_text("real x(10)\ndistribute x(block)\n"
                                      "u = x(1)\n")
    (directory / "notes.txt").write_text("not a program")  # must be skipped
    return str(directory)


def test_batch_directory(corpus_dir):
    code, output = run(["batch", corpus_dir])
    assert code == 0
    assert "fig11.f: reads=" in output
    assert "tiny.f: reads=" in output
    assert "notes.txt" not in output
    assert "2/2 programs ok" in output


def test_batch_warm_cache_marks_hits(tmp_path, corpus_dir):
    cache_dir = str(tmp_path / "cache")
    code, cold = run(["batch", corpus_dir, "--cache", cache_dir])
    assert code == 0 and "[cached]" not in cold
    code, warm = run(["batch", corpus_dir, "--cache", cache_dir])
    assert code == 0
    assert warm.count("[cached]") == 2
    assert "cache hits=2" in warm


def test_batch_exit_code_on_per_program_failure(tmp_path, corpus_dir):
    import os
    path = os.path.join(corpus_dir, "bad.f")
    with open(path, "w") as handle:
        handle.write("do i = 1, n\n")  # missing enddo
    code, output = run(["batch", corpus_dir])
    assert code == 1  # per-program failure, not a CLI error
    assert "bad.f: error:" in output
    assert "2/3 programs ok" in output
    assert "fig11.f: reads=" in output  # the rest still compiled


def test_batch_reports_a_non_ascii_digit_per_program(corpus_dir):
    import os
    with open(os.path.join(corpus_dir, "sup.f"), "w", encoding="utf-8") as f:
        f.write("real x(10)\nx(1) = \u00b2\n")
    code, output = run(["batch", corpus_dir])
    assert code == 1
    assert "sup.f: error: line 2, column 8: unexpected character" in output
    assert "2/3 programs ok" in output


def test_batch_quiet_prints_only_summary(corpus_dir):
    code, output = run(["batch", corpus_dir, "--quiet"])
    assert code == 0
    assert output.count("\n") == 1
    assert "programs ok" in output


def test_batch_json(corpus_dir):
    import json
    code, output = run(["batch", corpus_dir, "--json", "--no-cache"])
    assert code == 0
    payload = json.loads(output)
    assert payload["ok"] == 2
    assert payload["cache"] is None
    assert {p["name"].rsplit("/", 1)[-1] for p in payload["programs"]} == \
        {"fig11.f", "tiny.f"}


def test_batch_hardened_reports_rung(corpus_dir):
    code, output = run(["batch", corpus_dir, "--hardened"])
    assert code == 0
    assert output.count("[rung=balanced]") == 2


def test_batch_explicit_files(fig11_file):
    code, output = run(["batch", fig11_file, "--jobs", "2"])
    assert code == 0
    assert "1/1 programs ok" in output


def test_batch_empty_directory_error_hygiene(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert_clean_failure(capsys, ["batch", str(empty)])


# -- incremental recompilation ------------------------------------------------

@pytest.fixture
def edited_pair(tmp_path):
    from repro.lang.printer import format_program
    from repro.testing.generator import ArrayProgramGenerator

    base = format_program(ArrayProgramGenerator(seed=7).program(size=30))
    edited = base.replace("+ 1", "+ 2", 1)
    assert edited != base
    base_path = tmp_path / "base.f"
    edited_path = tmp_path / "edited.f"
    base_path.write_text(base)
    edited_path.write_text(edited)
    return str(base_path), str(edited_path)


def test_delta_prints_annotation_and_summary(edited_pair):
    from repro.commgen.pipeline import generate_communication

    base_path, edited_path = edited_pair
    code, output = run(["delta", base_path, edited_path])
    assert code == 0
    with open(edited_path) as handle:
        direct = generate_communication(handle.read()).annotated_source()
    assert output.startswith(direct)
    trailer = output[len(direct):]
    assert trailer.startswith("! delta: ")
    assert "intervals changed" in trailer


def test_delta_json(edited_pair):
    import json

    base_path, edited_path = edited_pair
    code, output = run(["delta", base_path, edited_path, "--json"])
    assert code == 0
    payload = json.loads(output)
    assert payload["ok"] is True
    incr = payload["incremental"]
    assert 0 < incr["intervals_changed"] <= incr["intervals_total"]


def test_delta_with_persistent_cache(tmp_path, edited_pair):
    base_path, edited_path = edited_pair
    cache_dir = str(tmp_path / "cache")
    code, _ = run(["delta", base_path, edited_path, "--cache", cache_dir])
    assert code == 0
    code, output = run(["delta", base_path, edited_path,
                        "--cache", cache_dir])
    assert code == 0
    assert "! delta: " in output


def test_delta_base_parse_error_is_per_program(tmp_path, bad_file,
                                               fig11_file):
    code, output = run(["delta", bad_file, fig11_file])
    assert code == 1
    assert "error:" in output and "Traceback" not in output


def test_delta_error_hygiene(capsys, tmp_path, fig11_file):
    assert_clean_failure(
        capsys, ["delta", str(tmp_path / "missing.f"), fig11_file])


def test_annotate_solver_backend_is_bit_identical(fig11_file):
    """annotate solves on the planned kernel; the reference kernel
    annotates the same bytes."""
    code, output = run(["annotate", fig11_file])
    reference = generate_communication(FIG11_SOURCE,
                                       solver_backend="reference")
    reads, writes = reference.communication_count()
    assert code == 0
    assert output == (reference.annotated_source()
                      + f"! {reads} read and {writes} write placements\n")


def test_profile_solver_backend(fig11_file):
    """profile names the kernel of every solver run: the planned one."""
    code, output = run(["profile", fig11_file])
    runs = [line for line in output.splitlines()
            if line.startswith("solver run ")]
    assert code == 0 and len(runs) == 2
    assert all(" backend=planned " in line for line in runs)


def test_batch_solver_backend(fig11_file, capsys):
    """The solver kernel is no command-line choice: --solver-backend is
    a usage error, and batch compiles on the planned kernel."""
    with pytest.raises(SystemExit) as excinfo:
        run(["batch", fig11_file, "--solver-backend", "reference"])
    assert excinfo.value.code == 2
    assert "--solver-backend" in capsys.readouterr().err
    code, output = run(["batch", fig11_file])
    assert code == 0
    assert "1/1 programs ok" in output


def test_batch_jobs_zero_means_one_per_cpu(fig11_file):
    code, output = run(["batch", fig11_file, "--jobs", "0"])
    assert code == 0
    assert "1/1 programs ok" in output


# -- the compile service: repro serve / repro request -------------------------

@pytest.fixture(scope="module")
def service():
    from repro.service import ServiceConfig, ThreadedServer

    config = ServiceConfig(port=0, workers=2, pool="thread")
    with ThreadedServer(config) as server:
        yield server


def request_argv(service, *argv):
    return ["request", *argv, "--port", str(service.port)]


def test_request_ping(service):
    code, output = run(request_argv(service, "ping"))
    assert code == 0
    assert output.startswith("pong from 127.0.0.1:")
    assert "repro-service/1" in output


def test_request_compile_prints_annotated_source(service, fig11_file):
    code, output = run(request_argv(service, "compile", fig11_file))
    assert code == 0
    assert "READ_Send{x(11:n + 10)}" in output
    assert "read and" in output and "write placements" in output


def test_request_compile_matches_annotate_locally(service, fig11_file):
    _, local = run(["annotate", fig11_file])
    _, remote = run(request_argv(service, "compile", fig11_file))
    # identical annotated source and summary; the service may only
    # append a "[cached]" marker to the summary line
    assert remote.startswith(local.rstrip("\n"))


def test_request_compile_json(service, fig11_file):
    import json

    code, output = run(request_argv(service, "compile", fig11_file,
                                    "--json"))
    assert code == 0
    payload = json.loads(output)
    assert payload["ok"] is True and payload["reads"] > 0


def test_request_compile_hardened(service, fig11_file):
    code, output = run(request_argv(service, "compile", fig11_file,
                                    "--hardened"))
    assert code == 0
    assert "[rung=balanced]" in output


def test_request_compile_per_program_failure_exits_one(service, bad_file):
    code, output = run(request_argv(service, "compile", bad_file))
    assert code == 1
    assert "error:" in output


def test_request_batch_directory(service, corpus_dir):
    code, output = run(request_argv(service, "batch", corpus_dir))
    assert code == 0
    assert "fig11.f: reads=" in output
    assert "2/2 programs ok" in output


def test_request_status_json(service, fig11_file):
    import json

    run(request_argv(service, "compile", fig11_file))
    code, output = run(request_argv(service, "status", "--json"))
    assert code == 0
    payload = json.loads(output)
    assert payload["server"]["pool"] == "thread"
    assert payload["requests"]["completed"] >= 1


def test_request_status_pretty_prints_by_default(service, fig11_file):
    run(request_argv(service, "compile", fig11_file))
    code, output = run(request_argv(service, "status"))
    assert code == 0
    assert "service 127.0.0.1:" in output
    assert "requests: received=" in output
    assert "supervision: pool_rebuilds=0 requeued=0" in output
    assert "latency: p50=" in output


def test_request_compile_needs_a_file(capsys, service):
    assert_clean_failure(capsys, request_argv(service, "compile"))


def test_request_refused_connection_error_hygiene(capsys):
    # a port nothing listens on: one clean line, no traceback
    assert_clean_failure(capsys, ["request", "ping", "--port", "1"])


def test_request_drain_shuts_the_server_down():
    import socket

    from repro.service import ServiceConfig, ThreadedServer

    config = ServiceConfig(port=0, workers=1, pool="thread")
    with ThreadedServer(config) as server:
        code, output = run(["request", "drain", "--port", str(server.port)])
        assert code == 0
        assert output.startswith("drained:")
        import time
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", server.port),
                                         timeout=0.5).close()
            except OSError:
                break
            time.sleep(0.02)
        else:
            pytest.fail("server still accepting after drain")


@pytest.fixture(scope="module")
def fleet():
    from repro.fleet import LocalFleet

    with LocalFleet(n_shards=2) as local:
        yield local


def test_request_status_against_a_fleet_pretty_prints_the_shard_table(
        fleet, fig11_file):
    run(["request", "compile", fig11_file, "--port", str(fleet.port)])
    code, output = run(["request", "status", "--port", str(fleet.port)])
    assert code == 0
    assert "fleet router 127.0.0.1:" in output
    assert "2 shards" in output
    assert "requests: received=" in output and "forwards=" in output
    assert "shard-0" in output and "shard-1" in output
    assert "closed" in output


def test_request_drain_against_a_fleet_reports_per_shard_outcomes():
    from repro.fleet import LocalFleet

    with LocalFleet(n_shards=2) as local:
        code, output = run(["request", "drain", "--port", str(local.port)])
        assert code == 0
        assert output.startswith("fleet drained:")
        assert "shard-0: drained" in output
        assert "shard-1: drained" in output


def test_serve_parser_round_trip():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--workers", "3", "--pool", "thread",
         "--queue-limit", "5", "--deadline", "1.5", "--hardened",
         "--no-cache"])
    assert args.command == "serve"
    assert args.port == 0 and args.workers == 3 and args.pool == "thread"
    assert args.queue_limit == 5 and args.deadline == 1.5
    assert args.hardened and args.no_cache


def test_fleet_parser_round_trip():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["fleet", "--shards", "4", "--port", "0", "--workers", "2",
         "--pool", "thread", "--queue-limit", "8", "--hedge", "0.2",
         "--heartbeat", "0.1"])
    assert args.command == "fleet"
    assert args.shards == 4 and args.workers == 2
    assert args.hedge == 0.2 and args.heartbeat == 0.1


def test_serve_defaults_to_the_service_port():
    from repro.cli import build_parser
    from repro.service import DEFAULT_PORT

    args = build_parser().parse_args(["serve"])
    assert args.port == DEFAULT_PORT
    args = build_parser().parse_args(["request", "ping"])
    assert args.port == DEFAULT_PORT
