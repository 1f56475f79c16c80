"""Machine-readable benchmark artifacts: ``BENCH_solver.json``,
``BENCH_batch.json`` and ``BENCH_kernel.json``.

**Solver scaling** — the paper's §5.2 complexity claim (every equation
evaluated exactly once per node, O(E) total) is asserted by
``benchmarks/test_bench_scaling_linear.py``; this module *measures* it
into an artifact CI uploads on every run, so future PRs have a
trajectory to regress against::

    python -m repro.obs.bench --output BENCH_solver.json --check

For each size on the ladder it records the node count, the best
wall-clock solve (instrumentation disabled — the production fast path),
time per node, and — from one additional traced run — the per-equation
evaluation counts, consumption-sweep count and fixpoint rounds.
``--check`` exits nonzero when time per node grows beyond the same 4x
tolerance the pytest benchmark enforces.

**Batch throughput** — the ``repro.batch`` layer's reason to exist
(``docs/scaling.md``)::

    python -m repro.obs.bench --batch --output BENCH_batch.json --check

compiles a generator corpus three ways — serially with no cache,
parallel with a cold content-addressed cache, and parallel again with
the warm cache — and records programs/second, the warm cache hit rate,
and the speedups between modes.  ``--check`` exits nonzero when the
parallel warm run is no faster than the serial uncached one, or when a
full-hit warm cache fails to beat the cold run (i.e. cache hits give no
speedup).

**Kernel speedup** — the planned solver backend's reason to exist
(``docs/scaling.md``)::

    python -m repro.obs.bench --kernel --output BENCH_kernel.json --check

solves each ladder instance in both directions with the reference and
the planned backend (views prebuilt and plans warmed, so only the solve
phase is timed; median of repeats), and records the per-instance and
overall speedups plus a bit-identity verdict against the reference
solution.  ``--check`` exits nonzero when planned is slower than the
reference anywhere, below 2x overall, or when any solution differs by a
single bit.

**Service throughput** — the resident compile service's reason to exist
(``docs/serving.md``)::

    python -m repro.obs.bench --service --output BENCH_service.json --check

stands up a real in-process :class:`~repro.service.server.CompileService`
(TCP, worker pool, warm cache) and drives it with ``--clients``
concurrent load-generator threads, comparing against a cold
one-shot-per-request baseline (every request pays the full pipeline
with no resident cache — what the pre-service entry points cost).
Client-side latencies are recorded exactly (p50/p90/p99), every
response is verified byte-identical to the direct pipeline output, and
a final drain probe checks that in-flight requests complete before the
server exits.  ``--check`` exits nonzero when any request was dropped,
corrupted, or failed, when the warm resident server fails to double the
cold baseline's throughput, or when the drain left admitted work
unfinished.

**Fleet chaos** — the fault-tolerant fleet's reason to exist
(``docs/robustness.md``)::

    python -m repro.obs.bench --fleet --output BENCH_fleet.json --check

stands up a :class:`~repro.fleet.harness.LocalFleet` (K real shards
behind a :class:`~repro.fleet.router.FleetRouter`) and drives a request
stream through it while a seeded :class:`~repro.fleet.chaos.ChaosPlan`
kills a shard, crashes a worker, and severs connections mid-run.  Every
response is verified byte-identical against a direct in-process
compile.  ``--check`` exits nonzero when any request was lost,
corrupted, or failed, or when any scripted chaos event failed to
execute — the artifact is the proof that the scripted failures really
happened *and* nothing was lost to them.

**Incremental recompilation** — the interval-scoped memoization layer's
reason to exist (``docs/scaling.md``)::

    python -m repro.obs.bench --incr --output BENCH_incr.json --check

warms a cache per corpus program, drives a seeded sequence of mixed
edits (scalar-RHS bumps, distributed-array subscript changes, inserts,
deletes) through :func:`~repro.batch.driver.compile_delta`, and checks
every delta byte-identical against a cold compile of the same text
while counting whole-interval and fragment-splice cache hits.  A
separate speed probe times 1-statement scalar-RHS edits cold versus as
warm deltas.  ``--check`` exits nonzero when any delta output differs
from its cold compile, when the edit sequences produced no
untouched-interval cache hits, or when warm 1-statement deltas are not
at least 3x faster than cold compiles.

**Overlap scheduling** — the ``repro.sched`` scheduler's reason to
exist (``docs/scheduling.md``)::

    python -m repro.obs.bench --overlap --output BENCH_overlap.json --check

runs every :data:`~repro.sched.scenarios.SCENARIOS` row — each a
program whose EAGER/LAZY slack the scheduler can (or, for the control
rows, cannot) exploit — under its clean run and each of its seeded
fault variants, comparing the naive trace-order schedule against the
transformed overlap schedule in the same simulator.  Every row records
both makespans (simulated clock units — deterministic, no ``_s``
suffix), the hidden/exposed latency split, wire occupancy, the
transformation counts, the C1/C3 certification verdict, and whether
the final machine states are identical.  ``--check`` exits nonzero
when any row's final state diverges, any overlap makespan exceeds its
naive makespan, any schedule fails certification, any underlying
placement fails the all-paths checker, or the geomean speedup over
the latency-bound rows falls under the 1.5x target.

Wall-clock fields end in ``_s`` (speedups are ratios of wall-clock and
carry the suffix too); everything else is deterministic.
"""

import argparse
import json
import sys
import tempfile
import time

from repro.core.solver import solve
from repro.obs.collector import tracing
from repro.obs.profile import run_satisfies_each_equation_once
from repro.testing.generator import random_analyzed_program, random_problem

SCHEMA = "repro-bench-solver/1"
BATCH_SCHEMA = "repro-bench-batch/1"
KERNEL_SCHEMA = "repro-bench-kernel/3"
SERVICE_SCHEMA = "repro-bench-service/1"
FLEET_SCHEMA = "repro-bench-fleet/1"
INCR_SCHEMA = "repro-bench-incr/1"
OVERLAP_SCHEMA = "repro-bench-overlap/1"

#: The --check gate on the geomean speedup over latency-bound rows.
OVERLAP_TARGET = 1.5

#: The size ladder — kept in sync with benchmarks/test_bench_scaling_linear.py.
SIZES = (40, 160, 640)

#: Allowed time-per-node growth between consecutive ladder steps (the
#: pytest benchmark's tolerance; generous because small runs are noisy).
TOLERANCE = 4.0


def _build_instance(size, seed, n_elements):
    analyzed = random_analyzed_program(seed, size=size, max_depth=3)
    problem = random_problem(analyzed, seed=seed, n_elements=n_elements)
    return analyzed, problem


def solver_scaling(sizes=SIZES, seed=11, n_elements=8, repeats=3):
    """Measure the ladder; return the ``BENCH_solver.json`` payload."""
    rows = []
    for size in sizes:
        analyzed, problem = _build_instance(size, seed, n_elements)
        nodes = len(analyzed.ifg.real_nodes())
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            solve(analyzed.ifg, problem)
            best = min(best, time.perf_counter() - start)
        with tracing() as collector:
            solve(analyzed.ifg, problem)
        run = collector.events("solver", "run")[-1]
        rows.append({
            "size": size,
            "nodes": nodes,
            "best_solve_s": best,
            "time_per_node_s": best / nodes,
            "consumption_sweeps": run["consumption_sweeps"],
            "fixpoint_rounds": run["rounds"],
            "converged": run["converged"],
            "equation_evaluations": run["equation_evaluations"],
            "each_equation_once": run_satisfies_each_equation_once(run),
        })
    ratios = [
        larger["time_per_node_s"] / smaller["time_per_node_s"]
        for smaller, larger in zip(rows, rows[1:])
    ]
    return {
        "schema": SCHEMA,
        "seed": seed,
        "n_elements": n_elements,
        "repeats": repeats,
        "tolerance": TOLERANCE,
        "rows": rows,
        "per_node_growth_ratios_s": ratios,
        "linear_within_tolerance": all(r < TOLERANCE for r in ratios),
        "each_equation_once": all(row["each_equation_once"] for row in rows),
    }


def kernel_scaling(sizes=SIZES, seed=11, n_elements=8, repeats=5):
    """Planned-vs-reference solve-phase timing; the
    ``BENCH_kernel.json`` payload (schema ``repro-bench-kernel/3``).

    One row per (size, direction) of the usual random-program ladder:
    one untimed solve per backend first — it compiles and caches the
    :class:`~repro.core.kernel.plan.SolverPlan` and the view's
    order/children memos, the one-time costs the batch layer amortizes
    — then ``repeats`` timed solves per backend with the view prebuilt,
    keeping the median.  Every planned solution is checked bit-identical
    to the reference one over all nodes.

    The ``--check`` gates: bit-identity on every row, planned ≥ 1x the
    reference solver on every row, and ≥ 2x overall.
    """
    import statistics

    from repro.core.problem import Direction
    from repro.core.reference import solutions_equal
    from repro.graph.views import cached_view

    rows = []
    for size in sizes:
        analyzed = random_analyzed_program(seed, size=size, max_depth=3)
        nodes = len(analyzed.ifg.real_nodes())
        for direction in (Direction.BEFORE, Direction.AFTER):
            problem = random_problem(analyzed, seed=seed,
                                     n_elements=n_elements,
                                     direction=direction)
            view = cached_view(
                analyzed.ifg,
                "before" if direction is Direction.BEFORE else "after")
            # untimed warm-up solves, kept for the identity check
            reference = solve(analyzed.ifg, problem, view=view,
                              backend="reference")
            planned = solve(analyzed.ifg, problem, view=view,
                            backend="planned")
            medians = {}
            for backend in ("reference", "planned"):
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    solve(analyzed.ifg, problem, view=view, backend=backend)
                    times.append(time.perf_counter() - start)
                medians[backend] = statistics.median(times)
            rows.append({
                "size": size,
                "nodes": nodes,
                "direction": direction.name,
                "reference_median_s": medians["reference"],
                "planned_median_s": medians["planned"],
                "speedup_s": medians["reference"] / medians["planned"],
                "identical": solutions_equal(reference, planned,
                                             analyzed.ifg.nodes()),
            })

    speedups = [row["speedup_s"] for row in rows]
    overall = (sum(row["reference_median_s"] for row in rows)
               / sum(row["planned_median_s"] for row in rows))
    return {
        "schema": KERNEL_SCHEMA,
        "seed": seed,
        "n_elements": n_elements,
        "repeats": repeats,
        "rows": rows,
        "overall_speedup_s": overall,
        "min_speedup_s": min(speedups),
        "all_identical": all(row["identical"] for row in rows),
        # the --check gates: never slower than the oracle, 2x overall,
        # and never a single bit away from it
        "planned_beats_reference": all(s >= 1.0 for s in speedups),
        "meets_2x_target": overall >= 2.0,
    }


def batch_corpus(n_programs=32, size=14, seed=0):
    """A deterministic generator corpus of ``(name, text)`` programs
    with real array traffic."""
    from repro.lang.printer import format_program
    from repro.testing.generator import ArrayProgramGenerator

    corpus = []
    for index in range(n_programs):
        generator = ArrayProgramGenerator(seed=seed + index)
        corpus.append((f"gen-{seed + index:03}",
                       format_program(generator.program(size=size))))
    return corpus


def _batch_mode_row(result):
    return {
        "jobs": result.jobs,
        "elapsed_s": result.elapsed_s,
        "programs_per_second_s": result.programs_per_second,
        "ok": result.ok_count,
        "errors": result.error_count,
        "cache_hits": result.cache_hits,
    }


def batch_throughput(n_programs=32, jobs=4, size=14, seed=0, repeats=2):
    """Measure batch compilation throughput; return the
    ``BENCH_batch.json`` payload.

    Three modes over the same corpus: ``serial_uncached`` (the
    pre-batch-layer baseline), ``parallel_cold`` (worker pool, empty
    disk cache), ``parallel_warm`` (same cache, now fully populated).
    ``repeats`` re-runs the serial and warm modes and keeps the fastest,
    since both are side-effect-free once the cache is warm.
    """
    from repro.batch import PipelineCache, compile_many

    corpus = batch_corpus(n_programs=n_programs, size=size, seed=seed)

    serial = min((compile_many(corpus, jobs=1, cache=None)
                  for _ in range(repeats)), key=lambda r: r.elapsed_s)
    with tempfile.TemporaryDirectory(prefix="repro-bench-batch-") as directory:
        cache = PipelineCache(directory=directory)
        cold = compile_many(corpus, jobs=jobs, cache=cache)
        warm = min((compile_many(corpus, jobs=jobs, cache=cache)
                    for _ in range(repeats)), key=lambda r: r.elapsed_s)

    all_ok = not (serial.error_count or cold.error_count or warm.error_count)
    hit_rate = warm.cache_hits / len(corpus) if corpus else 0.0
    speedup_vs_serial = serial.elapsed_s / warm.elapsed_s
    speedup_vs_cold = cold.elapsed_s / warm.elapsed_s
    return {
        "schema": BATCH_SCHEMA,
        "n_programs": n_programs,
        "program_size": size,
        "seed": seed,
        "jobs": jobs,
        "repeats": repeats,
        "modes": {
            "serial_uncached": _batch_mode_row(serial),
            "parallel_cold": _batch_mode_row(cold),
            "parallel_warm": _batch_mode_row(warm),
        },
        "warm_cache_hit_rate": hit_rate,
        "speedup_warm_vs_serial_s": speedup_vs_serial,
        "speedup_warm_vs_cold_s": speedup_vs_cold,
        "all_ok": all_ok,
        # the two --check gates: parallel must not lose to serial, and a
        # fully warm cache must beat the cold run
        "parallel_beats_serial": speedup_vs_serial >= 1.0,
        "cache_gives_speedup": speedup_vs_cold > 1.0 and hit_rate > 0.0,
    }


def incremental_bench(n_programs=4, size=30, seed=0, n_edits=5, repeats=3):
    """Measure incremental recompilation; return the
    ``BENCH_incr.json`` payload (``docs/scaling.md``).

    Per corpus program (jumpy generator programs, warm shared
    :class:`~repro.batch.cache.PipelineCache`):

    1. **edit sequence** — ``n_edits`` cumulative seeded edits of mixed
       kinds (:class:`~repro.testing.edits.EditModel`: scalar-RHS bump,
       distributed-array subscript, insert, delete); each version is
       compiled both ways — :func:`~repro.batch.driver.compile_delta`
       against the warm cache and a cold
       :func:`~repro.batch.driver.compile_one` — and the outputs
       compared byte for byte, accumulating whole-interval and
       fragment-splice hit counts;
    2. **speed probe** — ``repeats`` distinct 1-statement scalar-RHS
       edits of the base, each timed cold (no cache) and as a warm
       delta; the gate compares the summed wall-clocks.

    The three ``--check`` gates: every delta byte-identical to its cold
    compile, at least one untouched-interval cache hit across the edit
    sequences, and warm 1-statement deltas ≥ 3x faster than cold.
    """
    from repro.batch import (
        PipelineCache,
        compile_delta,
        compile_one,
        source_fingerprint,
    )
    from repro.lang.printer import format_program
    from repro.testing.edits import EditModel
    from repro.testing.generator import ArrayProgramGenerator

    cache = PipelineCache()
    model = EditModel(seed=seed)
    rows = []
    mismatches = 0
    reuse_hits = 0
    cold_total_s = delta_total_s = 0.0
    for index in range(n_programs):
        name = f"incr-{seed + index:03}"
        base = format_program(
            ArrayProgramGenerator(seed=seed + index).program(size=size))
        compiled = compile_one(name, base, cache=cache)
        if not compiled.ok:
            raise RuntimeError(f"bench corpus program {name} failed: "
                               f"{compiled.error}")
        intervals = (compiled.incremental or {}).get("intervals_solved", 0)

        # Phase 1: the randomized differential edit sequence.
        steps = []
        current = base
        for kind, edited in model.edit_sequence(base, n_edits):
            delta = compile_delta(name, edited, cache,
                                  base_digest=source_fingerprint(current))
            cold = compile_one(name, edited, cache=None)
            identical = (delta.ok and cold.ok
                         and delta.annotated_source == cold.annotated_source)
            mismatches += not identical
            incr = delta.incremental or {}
            reuse_hits += (incr.get("whole_hits", 0)
                           + incr.get("interval_hits", 0))
            steps.append({
                "kind": kind,
                "identical": identical,
                "whole_hits": incr.get("whole_hits", 0),
                "interval_hits": incr.get("interval_hits", 0),
                "verdict_hits": incr.get("verdict_hits", 0),
                "intervals_changed": incr.get("intervals_changed"),
                "intervals_total": incr.get("intervals_total"),
            })
            current = edited

        # Phase 2: the 1-statement speed probe (distinct scalar-RHS
        # edits of the base, so each delta is a fresh compile against
        # the same warm entries, never a prepared-snapshot replay).
        cold_s = delta_s = 0.0
        probes = 0
        base_digest = source_fingerprint(base)
        for _ in range(repeats):
            edited = model.scalar_rhs(base)
            if edited is None or edited == base:
                continue
            probes += 1
            start = time.perf_counter()
            cold = compile_one(name, edited, cache=None)
            cold_s += time.perf_counter() - start
            start = time.perf_counter()
            delta = compile_delta(name, edited, cache,
                                  base_digest=base_digest)
            delta_s += time.perf_counter() - start
            identical = (delta.ok and cold.ok
                         and delta.annotated_source == cold.annotated_source)
            mismatches += not identical
        cold_total_s += cold_s
        delta_total_s += delta_s
        rows.append({
            "name": name,
            "program_size": size,
            "intervals": intervals,
            "steps": steps,
            "speed_probes": probes,
            "cold_s": cold_s,
            "delta_s": delta_s,
            "speedup_s": cold_s / delta_s if delta_s > 0 else 0.0,
        })
    speedup = cold_total_s / delta_total_s if delta_total_s > 0 else 0.0
    return {
        "schema": INCR_SCHEMA,
        "n_programs": n_programs,
        "program_size": size,
        "seed": seed,
        "n_edits": n_edits,
        "repeats": repeats,
        "rows": rows,
        "reuse_hits": reuse_hits,
        "cold_total_s": cold_total_s,
        "delta_total_s": delta_total_s,
        "speedup_delta_vs_cold_s": speedup,
        # the three --check gates
        "all_identical": mismatches == 0,
        "interval_hits_positive": reuse_hits > 0,
        "meets_3x_target": speedup >= 3.0,
    }


def overlap_bench():
    """Differentially measure the overlap scheduler on every suite
    scenario; return the ``BENCH_overlap.json`` payload
    (``docs/scheduling.md``).

    Per scenario the communication pipeline runs once and its read and
    write placements are re-certified with the all-paths checker;
    then each fault variant (clean run first) builds, certifies, and
    runs both schedules through the simulator.  Makespans are simulated
    clock units — fully deterministic, so the gates are exact, not
    tolerance-banded.
    """
    import math

    from repro.commgen import generate_communication
    from repro.core.checker import check_placement
    from repro.sched.runner import compare_schedules
    from repro.sched.scenarios import SCENARIOS

    rows = []
    placements = []
    for scenario in SCENARIOS:
        result = generate_communication(scenario.source)
        placements_ok = True
        for problem, placement in (
                (result.read_problem, result.read_placement),
                (result.write_problem, result.write_placement)):
            sufficiency = check_placement(result.analyzed.ifg, problem,
                                          placement, min_trips=1)
            balance = check_placement(result.analyzed.ifg, problem, placement)
            placements_ok = (placements_ok
                             and sufficiency.ok(ignore=("safety", "redundant"))
                             and not balance.by_kind("balance"))
        placements.append({
            "scenario": scenario.name,
            "certified": placements_ok,
        })
        program = result.annotated_program
        machine = scenario.machine_model()
        for label, plan in scenario.fault_plans():
            cmp = compare_schedules(
                program, machine, dict(scenario.bindings),
                branch=scenario.branch, seed=scenario.seed, faults=plan)
            rows.append({
                "scenario": scenario.name,
                "title": scenario.title,
                "faults": label,
                "latency_bound": scenario.latency_bound,
                "machine": dict(scenario.machine),
                "bindings": dict(scenario.bindings),
                "naive_makespan": cmp.naive.total_time,
                "overlap_makespan": cmp.overlap.total_time,
                "speedup": cmp.speedup,
                "hidden_latency": cmp.overlap.hidden_latency,
                "exposed_latency": cmp.overlap.exposed_latency,
                "naive_exposed_latency": cmp.naive.exposed_latency,
                "occupancy": cmp.overlap.occupancy(),
                "transforms": dict(cmp.schedule.stats),
                "messages": len(cmp.schedule.graph.groups),
                "state_identical": cmp.states_match,
                "certified": cmp.certified,
            })

    latency_bound = [row["speedup"] for row in rows
                     if row["latency_bound"] and row["faults"] == "none"]
    geomean = math.exp(sum(math.log(s) for s in latency_bound)
                       / len(latency_bound)) if latency_bound else 0.0
    return {
        "schema": OVERLAP_SCHEMA,
        "target": OVERLAP_TARGET,
        "rows": rows,
        "placements": placements,
        "geomean_latency_bound_speedup": geomean,
        # the --check gates
        "all_states_identical": all(r["state_identical"] for r in rows),
        "never_slower": all(r["overlap_makespan"] <= r["naive_makespan"]
                            for r in rows),
        "all_certified": all(r["certified"] for r in rows),
        "placements_certified": all(p["certified"] for p in placements),
        "meets_target": geomean >= OVERLAP_TARGET,
    }


def _exact_percentile(sorted_values, q):
    """Exact sample quantile (nearest-rank) of a sorted list."""
    if not sorted_values:
        return 0.0
    import math

    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def service_throughput(n_clients=8, requests_per_client=12, corpus_size=8,
                       size=14, seed=0, workers=0, queue_limit=None):
    """Load-test a resident compile service; return the
    ``BENCH_service.json`` payload.

    Phases:

    1. **cold one-shot baseline** — every request recompiles from
       scratch with no resident cache (the cost of today's one-shot
       entry points), which also pins the expected byte-exact output of
       every corpus program;
    2. **warm resident service** — a real
       :class:`~repro.service.runner.ThreadedServer` is warmed once per
       distinct program, then ``n_clients`` threads (own connections)
       each fire ``requests_per_client`` requests, honoring
       backpressure; every response is checked byte-identical;
    3. **drain probe** — a handful of slow compiles are put in flight,
       then ``drain`` is issued; all admitted requests must complete.
    """
    import threading

    from repro.batch.driver import compile_one
    from repro.service import ServiceClient, ServiceConfig, ThreadedServer

    corpus = batch_corpus(n_programs=corpus_size, size=size, seed=seed)
    total_requests = n_clients * requests_per_client

    # Phase 1: the cold baseline, which doubles as the oracle.
    expected = {}
    start = time.perf_counter()
    for index in range(total_requests):
        name, text = corpus[index % len(corpus)]
        compiled = compile_one(name, text, cache=None)
        if not compiled.ok:
            raise RuntimeError(f"bench corpus program {name} failed: "
                               f"{compiled.error}")
        expected[name] = compiled.annotated_source
    cold_elapsed = time.perf_counter() - start

    config = ServiceConfig(
        port=0, workers=workers,
        queue_limit=queue_limit if queue_limit else max(16, 2 * n_clients))
    lock = threading.Lock()
    latencies = []
    counts = {"dropped": 0, "corrupted": 0, "failed": 0, "busy_retries": 0}

    def load_client(client_index):
        try:
            with ServiceClient(port=port, timeout_s=120) as client:
                barrier.wait()
                for i in range(requests_per_client):
                    name, text = corpus[(client_index + i) % len(corpus)]
                    t0 = time.perf_counter()

                    def note_retry(delay, _sleep=time.sleep):
                        with lock:
                            counts["busy_retries"] += 1
                        _sleep(delay)

                    try:
                        result = client.compile_retrying(text, name=name,
                                                         sleep=note_retry)
                    except Exception:
                        with lock:
                            counts["dropped"] += 1
                        continue
                    elapsed = time.perf_counter() - t0
                    with lock:
                        latencies.append(elapsed)
                        if not result.get("ok"):
                            counts["failed"] += 1
                        elif result.get("annotated_source") != expected[name]:
                            counts["corrupted"] += 1
        except Exception:
            with lock:
                counts["dropped"] += requests_per_client

    with ThreadedServer(config) as server:
        port = server.port
        # Warm the resident cache once per distinct program.
        with ServiceClient(port=port, timeout_s=120) as client:
            for name, text in corpus:
                client.compile_retrying(text, name=name)
        barrier = threading.Barrier(n_clients + 1)
        threads = [threading.Thread(target=load_client, args=(index,))
                   for index in range(n_clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        warm_elapsed = time.perf_counter() - start
        with ServiceClient(port=port, timeout_s=120) as client:
            status = client.status()
        drain = _drain_probe(port, seed=seed)

    latencies.sort()
    completed = len(latencies)
    cold_rps = total_requests / cold_elapsed if cold_elapsed > 0 else 0.0
    warm_rps = completed / warm_elapsed if warm_elapsed > 0 else 0.0
    speedup = warm_rps / cold_rps if cold_rps > 0 else 0.0
    clean = (counts["dropped"] == 0 and counts["corrupted"] == 0
             and counts["failed"] == 0 and completed == total_requests)
    return {
        "schema": SERVICE_SCHEMA,
        "n_clients": n_clients,
        "requests_per_client": requests_per_client,
        "corpus_size": corpus_size,
        "program_size": size,
        "seed": seed,
        "modes": {
            "cold_oneshot": {
                "elapsed_s": cold_elapsed,
                "requests_per_second_s": cold_rps,
            },
            "warm_service": {
                "elapsed_s": warm_elapsed,
                "requests_per_second_s": warm_rps,
                "workers": status["server"]["workers"],
                "pool": status["server"]["pool"],
            },
        },
        "requests": {
            "total": total_requests,
            "completed": completed,
            "dropped": counts["dropped"],
            "corrupted": counts["corrupted"],
            "failed": counts["failed"],
            "busy_retries": counts["busy_retries"],
        },
        "latency": {
            "p50_s": _exact_percentile(latencies, 0.5),
            "p90_s": _exact_percentile(latencies, 0.9),
            "p99_s": _exact_percentile(latencies, 0.99),
            "mean_s": sum(latencies) / completed if completed else 0.0,
            "max_s": latencies[-1] if latencies else 0.0,
        },
        "service_status": status,
        "drain": drain,
        "speedup_warm_vs_cold_s": speedup,
        "sustained_clients": n_clients,
        # the three --check gates
        "zero_dropped_or_corrupted": clean,
        "warm_beats_cold_2x": speedup >= 2.0,
        "drain_completed_in_flight": drain["ok"],
    }


def _drain_probe(port, seed=0, in_flight=4, probe_size=60):
    """Put slow compiles in flight, drain, and verify every admitted
    request completed."""
    import threading

    from repro.lang.printer import format_program
    from repro.service import E_DRAINING, ServiceClient, ServiceError
    from repro.testing.generator import ArrayProgramGenerator

    slow = format_program(
        ArrayProgramGenerator(seed=seed + 101).program(size=probe_size))
    outcomes = []
    lock = threading.Lock()

    def probe(index):
        try:
            with ServiceClient(port=port, timeout_s=120) as client:
                result = client.compile(slow, name=f"drain-{index}")
                with lock:
                    outcomes.append(("completed", bool(result.get("ok"))))
        except ServiceError as error:
            with lock:
                outcomes.append((error.code, False))
        except Exception as error:
            with lock:
                outcomes.append((type(error).__name__, False))

    with ServiceClient(port=port, timeout_s=120) as drainer:
        threads = [threading.Thread(target=probe, args=(index,))
                   for index in range(in_flight)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        reply = drainer.drain()
    for thread in threads:
        thread.join()
    tally = {}
    for code, _ in outcomes:
        tally[code] = tally.get(code, 0) + 1
    # Admitted work must have completed ok; racing past admission into
    # the draining refusal is legitimate, anything else is not.
    ok = (bool(reply.get("drained"))
          and all(ok for code, ok in outcomes if code == "completed")
          and all(code in ("completed", E_DRAINING) for code, _ in outcomes))
    return {
        "in_flight": in_flight,
        "outcomes": tally,
        "drain_reply_ok": bool(reply.get("drained")),
        "ok": ok,
    }


def fleet_chaos(n_shards=3, n_requests=24, corpus_size=8, size=14, seed=0,
                plan=None, workers=2, queue_limit=16):
    """Drive a live fleet through scripted chaos; return the
    ``BENCH_fleet.json`` payload.

    Phases:

    1. **oracle** — every distinct corpus program is compiled directly
       in-process, pinning the expected byte-exact output;
    2. **chaos run** — a :class:`~repro.fleet.harness.LocalFleet`
       (``n_shards`` real shards behind a router) serves ``n_requests``
       requests while the seeded plan kills a shard, crashes a worker,
       and severs connections (:func:`repro.fleet.chaos.run_chaos`);
    3. **verdict** — every reply is compared byte for byte against the
       oracle; the gates are *zero lost, zero corrupted, zero failed*
       and *every scripted chaos event executed*.
    """
    from repro.batch.driver import compile_one
    from repro.fleet import ChaosPlan, FleetConfig, LocalFleet, run_chaos
    from repro.service import ServiceConfig

    plan = plan if plan is not None else ChaosPlan(seed=seed)
    corpus = batch_corpus(n_programs=corpus_size, size=size, seed=seed)

    # Phase 1: the oracle.
    expected = {}
    for name, text in corpus:
        compiled = compile_one(name, text, cache=None)
        if not compiled.ok:
            raise RuntimeError(f"bench corpus program {name} failed: "
                               f"{compiled.error}")
        expected[name] = compiled.annotated_source

    # Phase 2: the chaos run.
    stream = [corpus[index % len(corpus)] for index in range(n_requests)]
    service_config = ServiceConfig(pool="thread", workers=workers,
                                   queue_limit=queue_limit)
    fleet_config = FleetConfig(heartbeat_s=0.1, reset_timeout_s=0.3)
    with LocalFleet(n_shards=n_shards, service_config=service_config,
                    fleet_config=fleet_config) as fleet:
        report = run_chaos(fleet, stream, plan)

    # Phase 3: the verdict.
    corrupted = failed = 0
    latencies = []
    for row in report["results"]:
        if row["lost"]:
            continue
        latencies.append(row["latency_s"])
        result = row["result"]
        if not result.get("ok"):
            failed += 1
        elif result.get("annotated_source") != expected[row["name"]]:
            corrupted += 1
    latencies.sort()
    scripted = plan.script(n_shards, n_requests)
    executed = [event for event in report["events"] if "error" not in event]
    chaos_executed = (len(executed) == len(scripted)
                      and {e["action"] for e in executed}
                      >= {e.action for e in scripted})
    clean = (report["lost"] == 0 and corrupted == 0 and failed == 0)
    return {
        "schema": FLEET_SCHEMA,
        "n_shards": n_shards,
        "n_requests": n_requests,
        "corpus_size": corpus_size,
        "program_size": size,
        "seed": seed,
        "chaos_plan": {
            "seed": plan.seed,
            "kills": plan.kills,
            "worker_crashes": plan.worker_crashes,
            "severs": plan.severs,
            "delays": plan.delays,
            "delay_s": plan.delay_s,
        },
        "events": report["events"],
        "elapsed_s": report["elapsed_s"],
        "requests": {
            "total": n_requests,
            "completed": len(latencies),
            "lost": report["lost"],
            "corrupted": corrupted,
            "failed": failed,
        },
        "latency": {
            "p50_s": _exact_percentile(latencies, 0.5),
            "p90_s": _exact_percentile(latencies, 0.9),
            "p99_s": _exact_percentile(latencies, 0.99),
            "mean_s": sum(latencies) / len(latencies) if latencies else 0.0,
            "max_s": latencies[-1] if latencies else 0.0,
        },
        "router": report["router"],
        "supervision": report["supervision"],
        # the two --check gates
        "zero_lost_or_corrupted": clean,
        "all_chaos_executed": chaos_executed,
    }


def write_bench_json(path, report=None):
    """Write (and return) the payload; ``report=None`` measures fresh."""
    if report is None:
        report = solver_scaling()
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="measure the solver's O(E) trajectory "
                    "(BENCH_solver.json), the batch layer's throughput "
                    "(--batch, BENCH_batch.json), or the planned "
                    "kernel's speedup (--kernel, BENCH_kernel.json), "
                    "the resident service's throughput (--service, "
                    "BENCH_service.json), or the fleet's behavior under "
                    "chaos (--fleet, BENCH_fleet.json)")
    parser.add_argument("--output", default=None,
                        help="where to write the JSON payload (default: "
                             "BENCH_solver.json, BENCH_batch.json with "
                             "--batch, or BENCH_kernel.json with "
                             "--kernel)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the measured trajectory "
                             "regresses (solver: super-linear growth; "
                             "batch: parallel slower than serial, or a "
                             "warm cache giving no speedup; kernel: "
                             "planned slower than reference, under 2x "
                             "overall, or not bit-identical)")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats (default: 3 solver, "
                             "2 batch, 5 kernel)")
    parser.add_argument("--batch", action="store_true",
                        help="measure batch compilation throughput "
                             "instead of solver scaling")
    parser.add_argument("--kernel", action="store_true",
                        help="measure the planned solver backend "
                             "against the reference solver")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for --batch")
    parser.add_argument("--programs", type=int, default=None,
                        help="corpus size (default 32 for --batch, "
                             "4 for --incr)")
    parser.add_argument("--incr", action="store_true",
                        help="measure incremental recompilation "
                             "(compile_delta) against cold compiles")
    parser.add_argument("--edits", type=int, default=5,
                        help="edits per program in the --incr "
                             "differential sequence")
    parser.add_argument("--service", action="store_true",
                        help="load-test a resident compile service "
                             "against the cold one-shot baseline")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads for --service")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per client for --service "
                             "(default 12); total requests for --fleet "
                             "(default 24)")
    parser.add_argument("--fleet", action="store_true",
                        help="drive a local compile fleet through "
                             "scripted chaos (shard kill, worker crash, "
                             "severed connections) and verify every "
                             "response byte-identical")
    parser.add_argument("--shards", type=int, default=3,
                        help="shard count for --fleet")
    parser.add_argument("--overlap", action="store_true",
                        help="differentially measure the overlap "
                             "scheduler against the naive schedule on "
                             "the repro.sched scenario suite")
    parser.add_argument("--chaos", metavar="SPEC", default=None,
                        help="chaos plan for --fleet, e.g. "
                             "'kills=1,crashes=1,severs=2,seed=7'")
    args = parser.parse_args(argv)
    if args.kernel:
        return _main_kernel(args)
    if args.batch:
        return _main_batch(args)
    if args.service:
        return _main_service(args)
    if args.fleet:
        return _main_fleet(args)
    if args.incr:
        return _main_incr(args)
    if args.overlap:
        return _main_overlap(args)
    return _main_solver(args)


def _main_overlap(args):
    output = args.output or "BENCH_overlap.json"
    report = overlap_bench()
    write_bench_json(output, report)
    for row in report["rows"]:
        transforms = ",".join(f"{k}={v}"
                              for k, v in sorted(row["transforms"].items())
                              if v)
        print(f"{row['scenario']:9s} faults={row['faults']:34s} "
              f"{row['overlap_makespan']:.0f} vs "
              f"{row['naive_makespan']:.0f} naive "
              f"({row['speedup']:.2f}x) "
              f"state={'identical' if row['state_identical'] else 'DIVERGED'} "
              f"certified={'ok' if row['certified'] else 'VIOLATED'}"
              f"{' [' + transforms + ']' if transforms else ''}")
    print(f"wrote {output} "
          f"(geomean latency-bound speedup: "
          f"{report['geomean_latency_bound_speedup']:.2f}x, "
          f"target {report['target']}x met: {report['meets_target']}; "
          f"all states identical: {report['all_states_identical']})")
    if args.check and not (report["all_states_identical"]
                           and report["never_slower"]
                           and report["all_certified"]
                           and report["placements_certified"]
                           and report["meets_target"]):
        print("error: overlap scheduling regressed (a transformed "
              "schedule diverged from the naive machine state, ran "
              "slower than naive, failed C1/C3 certification, or the "
              "suite fell under its geomean speedup target)",
              file=sys.stderr)
        return 1
    return 0


def _main_solver(args):
    output = args.output or "BENCH_solver.json"
    repeats = 3 if args.repeats is None else args.repeats
    report = solver_scaling(sizes=tuple(args.sizes), repeats=repeats)
    write_bench_json(output, report)
    for row in report["rows"]:
        print(f"size={row['size']} nodes={row['nodes']} "
              f"per_node={row['time_per_node_s'] * 1e6:.1f}us "
              f"sweeps={row['consumption_sweeps']} "
              f"each_equation_once={row['each_equation_once']}")
    print(f"wrote {output} "
          f"(linear_within_tolerance={report['linear_within_tolerance']})")
    if args.check and not (report["linear_within_tolerance"]
                           and report["each_equation_once"]):
        print("error: solver scaling regressed beyond tolerance",
              file=sys.stderr)
        return 1
    return 0


def _main_kernel(args):
    output = args.output or "BENCH_kernel.json"
    repeats = 5 if args.repeats is None else args.repeats
    report = kernel_scaling(sizes=tuple(args.sizes), repeats=repeats)
    write_bench_json(output, report)
    for row in report["rows"]:
        print(f"size={row['size']} direction={row['direction']} "
              f"reference={row['reference_median_s'] * 1e3:.2f}ms "
              f"planned={row['planned_median_s'] * 1e3:.2f}ms "
              f"speedup={row['speedup_s']:.2f}x "
              f"identical={row['identical']}")
    print(f"wrote {output} "
          f"(planned overall {report['overall_speedup_s']:.2f}x, "
          f"2x target met: {report['meets_2x_target']})")
    if args.check and not (report["all_identical"]
                           and report["planned_beats_reference"]
                           and report["meets_2x_target"]):
        print("error: kernel regressed (planned slower than the "
              "reference solver on a row, below 2x overall, or a "
              "solution not bit-identical to the oracle)",
              file=sys.stderr)
        return 1
    return 0


def _main_incr(args):
    output = args.output or "BENCH_incr.json"
    repeats = 3 if args.repeats is None else args.repeats
    programs = 4 if args.programs is None else args.programs
    report = incremental_bench(n_programs=programs, n_edits=args.edits,
                               repeats=repeats)
    write_bench_json(output, report)
    for row in report["rows"]:
        kinds = ",".join(step["kind"] for step in row["steps"])
        print(f"{row['name']}: edits=[{kinds}] "
              f"identical={all(s['identical'] for s in row['steps'])} "
              f"delta_speedup={row['speedup_s']:.2f}x")
    print(f"wrote {output} "
          f"(all_identical={report['all_identical']}, "
          f"reuse_hits={report['reuse_hits']}, "
          f"speedup delta vs cold: "
          f"{report['speedup_delta_vs_cold_s']:.2f}x)")
    if args.check and not (report["all_identical"]
                           and report["interval_hits_positive"]
                           and report["meets_3x_target"]):
        print("error: incremental recompilation regressed (a delta "
              "compile differed from the cold compile, untouched "
              "intervals gave no cache hits, or warm deltas fell under "
              "the 3x speedup target)", file=sys.stderr)
        return 1
    return 0


def _main_batch(args):
    output = args.output or "BENCH_batch.json"
    repeats = 2 if args.repeats is None else args.repeats
    programs = 32 if args.programs is None else args.programs
    report = batch_throughput(n_programs=programs, jobs=args.jobs,
                              repeats=repeats)
    write_bench_json(output, report)
    for mode, row in report["modes"].items():
        print(f"{mode}: {row['programs_per_second_s']:.1f} programs/s "
              f"(jobs={row['jobs']}, hits={row['cache_hits']}, "
              f"errors={row['errors']})")
    print(f"wrote {output} "
          f"(speedup warm vs serial uncached: "
          f"{report['speedup_warm_vs_serial_s']:.2f}x, warm hit rate: "
          f"{report['warm_cache_hit_rate']:.0%})")
    if args.check and not (report["all_ok"]
                           and report["parallel_beats_serial"]
                           and report["cache_gives_speedup"]):
        print("error: batch throughput regressed (parallel slower than "
              "serial, or warm cache gives no speedup)", file=sys.stderr)
        return 1
    return 0


def _main_service(args):
    output = args.output or "BENCH_service.json"
    requests = 12 if args.requests is None else args.requests
    report = service_throughput(n_clients=args.clients,
                                requests_per_client=requests)
    write_bench_json(output, report)
    for mode, row in report["modes"].items():
        print(f"{mode}: {row['requests_per_second_s']:.1f} requests/s "
              f"({row['elapsed_s'] * 1e3:.0f}ms total)")
    latency = report["latency"]
    requests = report["requests"]
    print(f"latency: p50={latency['p50_s'] * 1e3:.1f}ms "
          f"p90={latency['p90_s'] * 1e3:.1f}ms "
          f"p99={latency['p99_s'] * 1e3:.1f}ms "
          f"(completed={requests['completed']}/{requests['total']}, "
          f"dropped={requests['dropped']}, "
          f"corrupted={requests['corrupted']}, "
          f"busy_retries={requests['busy_retries']})")
    print(f"wrote {output} "
          f"(speedup warm vs cold: {report['speedup_warm_vs_cold_s']:.2f}x, "
          f"drain ok: {report['drain_completed_in_flight']})")
    if args.check and not (report["zero_dropped_or_corrupted"]
                           and report["warm_beats_cold_2x"]
                           and report["drain_completed_in_flight"]):
        print("error: service throughput regressed (a request was "
              "dropped, corrupted, or failed; the warm service did not "
              "double the cold baseline; or drain left admitted work "
              "unfinished)", file=sys.stderr)
        return 1
    return 0


def _main_fleet(args):
    from repro.fleet import ChaosPlan

    output = args.output or "BENCH_fleet.json"
    requests = 24 if args.requests is None else args.requests
    plan = ChaosPlan.parse(args.chaos) if args.chaos else None
    report = fleet_chaos(n_shards=args.shards, n_requests=requests,
                         plan=plan)
    write_bench_json(output, report)
    for event in report["events"]:
        verdict = event.get("error") or event.get("detail", "")
        print(f"chaos @request {event['at_request']}: {event['action']} "
              f"-> {verdict}")
    counts = report["requests"]
    latency = report["latency"]
    print(f"requests: {counts['completed']}/{counts['total']} completed "
          f"(lost={counts['lost']}, corrupted={counts['corrupted']}, "
          f"failed={counts['failed']}) in {report['elapsed_s']:.2f}s")
    print(f"latency: p50={latency['p50_s'] * 1e3:.1f}ms "
          f"p90={latency['p90_s'] * 1e3:.1f}ms "
          f"p99={latency['p99_s'] * 1e3:.1f}ms")
    fleet = report["router"]["fleet"]
    print(f"router: forwards={fleet['forwards']} "
          f"rerouted={fleet['rerouted']} spilled={fleet['spilled']} "
          f"breaker_opens={fleet['breaker_opens']}; supervision: "
          f"pool_rebuilds={report['supervision']['pool_rebuilds']} "
          f"requeued={report['supervision']['requeued']}")
    print(f"wrote {output} "
          f"(zero_lost_or_corrupted={report['zero_lost_or_corrupted']}, "
          f"all_chaos_executed={report['all_chaos_executed']})")
    if args.check and not (report["zero_lost_or_corrupted"]
                           and report["all_chaos_executed"]):
        print("error: fleet chaos regressed (a request was lost, "
              "corrupted, or failed under chaos, or a scripted chaos "
              "event did not execute)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
