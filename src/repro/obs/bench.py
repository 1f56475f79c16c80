"""Machine-readable benchmark artifacts: one ``BENCH_<scenario>.json``
per scenario of :data:`SCENARIOS` (``solver``, ``batch``, ``kernel``,
``incr``, ``service``, ``fleet`` and ``overlap``)::

    python -m repro.obs.bench [--batch | --kernel | --incr | --service
                               | --fleet | --overlap] [--output PATH] [--check]

Without a scenario flag it measures ``solver``.  The scenario's measure
function runs with its own defaults and its payload is written to
``--output`` (default ``BENCH_<scenario>.json``).  ``--check`` exits 1
when any of the scenario's gates — the boolean payload keys its
registry entry lists — is false, and names the false ones on stderr.

**Solver scaling** — the paper's §5.2 complexity claim (every equation
evaluated exactly once per node, O(E) total) is asserted by
``benchmarks/test_bench_scaling_linear.py``; this module *measures* it
into an artifact CI uploads on every run, so future PRs have a
trajectory to regress against::

    python -m repro.obs.bench --check

For each size on the ladder it records the node count, the best
wall-clock solve (instrumentation disabled — the production fast path),
time per node, and — from one additional traced run — the per-equation
evaluation counts, consumption-sweep count and fixpoint rounds.
``--check`` exits nonzero when time per node grows beyond the same 4x
tolerance the pytest benchmark enforces.

**Batch throughput** — the ``repro.batch`` layer's reason to exist
(``docs/scaling.md``)::

    python -m repro.obs.bench --batch --check

compiles a generator corpus three ways — serially with no cache,
parallel with a cold content-addressed cache, and parallel again with
the warm cache — and records programs/second, the warm cache hit rate,
and the speedups between modes.  ``--check`` exits nonzero when the
parallel warm run is no faster than the serial uncached one, or when a
full-hit warm cache fails to beat the cold run (i.e. cache hits give no
speedup).

**Kernel speedup** — the planned solver backend's reason to exist
(``docs/scaling.md``)::

    python -m repro.obs.bench --kernel --check

solves each ladder instance in both directions with the reference and
the planned backend (views prebuilt; median of repeats), timing the
planned backend twice — with its plan warm, and with the plan built
inside each timed solve as a cold compile builds it — and records the
per-instance and overall speedups of both plus a bit-identity verdict
against the reference solution.  ``--check`` exits nonzero when
planned, plan build included, is slower than the reference anywhere or
below 2x overall, or when any solution differs by a single bit.

**Service throughput** — the resident compile service's reason to exist
(``docs/serving.md``)::

    python -m repro.obs.bench --service --check

stands up a real in-process :class:`~repro.service.server.CompileService`
(TCP, worker pool, warm cache) and drives it with 8 concurrent
load-generator threads of 12 requests each, comparing against a cold
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

    python -m repro.obs.bench --fleet --check

stands up a :class:`~repro.fleet.harness.LocalFleet` (K real shards
behind a :class:`~repro.fleet.router.FleetRouter`) and drives a request
stream through it while a seeded :class:`~repro.fleet.chaos.ChaosPlan`
kills a shard, crashes a worker, and severs connections mid-run.  Every
response is verified byte-identical against a direct in-process
compile.  ``--check`` exits nonzero when any request was lost,
corrupted, or failed, or when any scripted chaos event failed to
execute — the artifact is the proof that the scripted failures really
happened *and* nothing was lost to them.

**Edit streams through the cache** — what a cache miss costs and
that deltas stay exact (``docs/scaling.md``)::

    python -m repro.obs.bench --incr --check

compiles each corpus program through one shared in-memory cache, drives
a seeded sequence of mixed edits (scalar-RHS bumps, distributed-array
subscript changes, inserts, deletes) through
:func:`~repro.batch.driver.compile_delta`, then probes 1-statement
scalar-RHS edits of each base the same way.  Every compile is checked
byte-identical against a cacheless compile of the same text, and both
are timed.  ``--check`` exits nonzero when any output differs, or when
the compiles that missed the cache, summed, cost more than 1.2x the
cacheless compiles of the same texts.

**Overlap scheduling** — the ``repro.sched`` scheduler's reason to
exist (``docs/scheduling.md``)::

    python -m repro.obs.bench --overlap --check

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
import dataclasses
import json
import math
import sys
import tempfile
import time
from typing import Callable, Iterable, NamedTuple, Tuple

from repro.core.solver import solve
from repro.obs.collector import tracing
from repro.obs.profile import run_satisfies_each_equation_once
from repro.testing.generator import random_analyzed_program, random_problem

SCHEMA = "repro-bench-solver/1"
BATCH_SCHEMA = "repro-bench-batch/1"
KERNEL_SCHEMA = "repro-bench-kernel/4"
SERVICE_SCHEMA = "repro-bench-service/1"
FLEET_SCHEMA = "repro-bench-fleet/1"
INCR_SCHEMA = "repro-bench-incr/2"
OVERLAP_SCHEMA = "repro-bench-overlap/1"

#: The --check gate on the geomean speedup over latency-bound rows.
OVERLAP_TARGET = 1.5

#: The size ladder, shared with benchmarks/test_bench_scaling_linear.py.
SIZES = (40, 160, 640)

#: Allowed time-per-node growth between consecutive ladder steps (the
#: pytest benchmark's tolerance; generous because small runs are noisy).
TOLERANCE = 4.0


def build_instance(size, seed=11, n_elements=8):
    """One rung of the ladder: a random structured program of ``size``
    statements and a random problem over it."""
    analyzed = random_analyzed_program(seed, size=size, max_depth=3)
    problem = random_problem(analyzed, seed=seed, n_elements=n_elements)
    return analyzed, problem


def solver_scaling(sizes=SIZES, seed=11, n_elements=8, repeats=3):
    """Measure the ladder; return the ``BENCH_solver.json`` payload."""
    rows = []
    for size in sizes:
        analyzed, problem = build_instance(size, seed, n_elements)
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
    """Planned-vs-reference solve timing; the ``BENCH_kernel.json``
    payload (schema ``repro-bench-kernel/4``).

    One row per (size, direction) of the usual random-program ladder:
    one untimed solve per backend first — it compiles and caches the
    :class:`~repro.core.kernel.plan.SolverPlan` and the view's
    order/children memos — then ``repeats`` timed solves per backend
    with the view prebuilt, keeping the median.  The planned backend is
    timed twice: warm (``planned_median_s``, the plan reused as a
    resident service reuses it) and with the graph's plan cache cleared
    before each repeat (``planned_with_plan_median_s``, what a cold
    compile pays), so work moved between plan building and solving
    shows.  Every planned solution is checked bit-identical to the
    reference one over all nodes.

    The ``--check`` gates: bit-identity on every row, and — plan build
    included — planned ≥ 1x the reference solver on every row and ≥ 2x
    overall.
    """
    import statistics

    from repro.core.problem import Direction
    from repro.core.reference import solutions_equal
    from repro.graph.views import cached_view

    def median_solve(analyzed, problem, view, backend, cold_plan=False):
        plans = analyzed.ifg.solver_cache("plans")
        times = []
        for _ in range(repeats):
            if cold_plan:
                plans.clear()
            start = time.perf_counter()
            solve(analyzed.ifg, problem, view=view, backend=backend)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

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
            reference_s = median_solve(analyzed, problem, view, "reference")
            planned_s = median_solve(analyzed, problem, view, "planned")
            with_plan_s = median_solve(analyzed, problem, view, "planned",
                                       cold_plan=True)
            rows.append({
                "size": size,
                "nodes": nodes,
                "direction": direction.name,
                "reference_median_s": reference_s,
                "planned_median_s": planned_s,
                "speedup_s": reference_s / planned_s,
                "planned_with_plan_median_s": with_plan_s,
                "speedup_with_plan_s": reference_s / with_plan_s,
                "identical": solutions_equal(reference, planned,
                                             analyzed.ifg.nodes()),
            })

    def overall(column):
        return (sum(row["reference_median_s"] for row in rows)
                / sum(row[column] for row in rows))

    overall_with_plan = overall("planned_with_plan_median_s")
    return {
        "schema": KERNEL_SCHEMA,
        "seed": seed,
        "n_elements": n_elements,
        "repeats": repeats,
        "rows": rows,
        "overall_speedup_s": overall("planned_median_s"),
        "overall_with_plan_speedup_s": overall_with_plan,
        "min_speedup_s": min(row["speedup_s"] for row in rows),
        "all_identical": all(row["identical"] for row in rows),
        # the --check gates, plan build included: never slower than the
        # oracle, 2x overall, and never a single bit away from it
        "planned_beats_reference": all(row["speedup_with_plan_s"] >= 1.0
                                       for row in rows),
        "meets_2x_target": overall_with_plan >= 2.0,
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


#: The ``--incr`` gate: compiles that miss the cache may cost at most
#: this much more than cacheless compiles of the same texts.
MISS_OVERHEAD_LIMIT = 1.2


def incremental_bench(n_programs=4, size=30, seed=0, n_edits=5, repeats=3):
    """Measure edit streams through a shared cache; return the
    ``BENCH_incr.json`` payload (``docs/scaling.md``).

    Per corpus program (jumpy generator programs, one shared in-memory
    :class:`~repro.batch.cache.PipelineCache`), every text is compiled
    twice — without a cache and through the cache, in alternating order
    — timed, and compared byte for byte:

    1. the **base**, with :func:`~repro.batch.driver.compile_one`;
    2. an **edit sequence** — ``n_edits`` cumulative seeded edits of
       mixed kinds (:class:`~repro.testing.edits.EditModel`: scalar-RHS
       bump, distributed-array subscript, insert, delete), each with
       :func:`~repro.batch.driver.compile_delta` against the previous
       version;
    3. ``repeats`` **probes** — distinct 1-statement scalar-RHS edits of
       the base, each a delta against the base.

    The two ``--check`` gates: every cached compile byte-identical to its
    cacheless compile, and the cached compiles that missed, summed, at
    most :data:`MISS_OVERHEAD_LIMIT` times their cacheless compiles.
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
    totals = {"mismatches": 0, "misses": 0, "miss_s": 0.0,
              "cacheless_s": 0.0}

    def timed(compile_text):
        start = time.perf_counter()
        compiled = compile_text()
        return compiled, time.perf_counter() - start

    def measure(name, text, cached_compile):
        """Compile ``text`` cacheless and through ``cached_compile``, in
        alternating order (a second compile of the same text runs a
        little faster); returns the cached result and whether the
        outputs match."""
        def cacheless():
            return compile_one(name, text, cache=None)

        if totals["misses"] % 2:
            cached, cached_s = timed(cached_compile)
            cold, cold_s = timed(cacheless)
        else:
            cold, cold_s = timed(cacheless)
            cached, cached_s = timed(cached_compile)
        identical = (cached.ok and cold.ok
                     and cached.annotated_source == cold.annotated_source)
        totals["mismatches"] += not identical
        if not cached.cache_hit:
            totals["misses"] += 1
            totals["miss_s"] += cached_s
            totals["cacheless_s"] += cold_s
        return cached, identical

    for index in range(n_programs):
        name = f"incr-{seed + index:03}"
        base = format_program(
            ArrayProgramGenerator(seed=seed + index).program(size=size))
        compiled, _ = measure(
            name, base, lambda: compile_one(name, base, cache=cache))
        if not compiled.ok:
            raise RuntimeError(f"bench corpus program {name} failed: "
                               f"{compiled.error}")

        steps = []
        current = base
        for kind, edited in model.edit_sequence(base, n_edits):
            delta, identical = measure(
                name, edited, lambda: compile_delta(
                    name, edited, cache,
                    base_digest=source_fingerprint(current)))
            steps.append({
                "kind": kind,
                "identical": identical,
                "cache_hit": delta.cache_hit,
                "intervals_changed": delta.incremental.get(
                    "intervals_changed"),
                "intervals_total": delta.incremental.get("intervals_total"),
            })
            current = edited

        probes = 0
        base_digest = source_fingerprint(base)
        for _ in range(repeats):
            edited = model.scalar_rhs(base)
            if edited is None or edited == base:
                continue
            probes += 1
            measure(name, edited, lambda: compile_delta(
                name, edited, cache, base_digest=base_digest))
        rows.append({
            "name": name,
            "program_size": size,
            "steps": steps,
            "probes": probes,
        })
    miss_s, cacheless_s = totals["miss_s"], totals["cacheless_s"]
    ratio = miss_s / cacheless_s if cacheless_s > 0 else 0.0
    return {
        "schema": INCR_SCHEMA,
        "n_programs": n_programs,
        "program_size": size,
        "seed": seed,
        "n_edits": n_edits,
        "repeats": repeats,
        "rows": rows,
        "cache_misses": totals["misses"],
        "miss_total_s": miss_s,
        "cacheless_total_s": cacheless_s,
        "miss_overhead_s": ratio,
        # the two --check gates
        "all_identical": totals["mismatches"] == 0,
        "miss_overhead_ok": ratio <= MISS_OVERHEAD_LIMIT,
    }


def overlap_bench():
    """Differentially measure the overlap scheduler on every suite
    scenario; return the ``BENCH_overlap.json`` payload
    (``docs/scheduling.md``).

    Per scenario the communication pipeline runs once and its read and
    write placements are re-certified with the checker's acceptance
    rule (:func:`~repro.core.checker.certify_placement`);
    then each fault variant (clean run first) builds, certifies, and
    runs both schedules through the simulator.  Makespans are simulated
    clock units — fully deterministic, so the gates are exact, not
    tolerance-banded.
    """
    from repro.commgen import generate_communication
    from repro.core.checker import certify_placement
    from repro.sched.runner import compare_schedules
    from repro.sched.scenarios import SCENARIOS

    rows = []
    placements = []
    for scenario in SCENARIOS:
        result = generate_communication(scenario.source)
        placements.append({
            "scenario": scenario.name,
            "certified": all(
                certify_placement(result.analyzed.ifg, problem,
                                  placement).ok()
                for problem, placement in (
                    (result.read_problem, result.read_placement),
                    (result.write_problem, result.write_placement))),
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


def _expected_outputs(programs):
    """Compile each ``(name, text)`` without a cache; return the
    annotated source by name.  A corpus program that fails to compile
    breaks the bench, so it raises."""
    from repro.batch.driver import compile_one

    expected = {}
    for name, text in programs:
        compiled = compile_one(name, text, cache=None)
        if not compiled.ok:
            raise RuntimeError(f"bench corpus program {name} failed: "
                               f"{compiled.error}")
        expected[name] = compiled.annotated_source
    return expected


def _latency_summary(latencies):
    """Exact client-side latencies: nearest-rank p50/p90/p99, mean and
    max (all 0.0 without samples)."""
    ordered = sorted(latencies) or [0.0]

    def percentile(q):
        return ordered[max(1, math.ceil(q * len(ordered))) - 1]

    return {
        "p50_s": percentile(0.5),
        "p90_s": percentile(0.9),
        "p99_s": percentile(0.99),
        "mean_s": sum(ordered) / len(ordered),
        "max_s": ordered[-1],
    }


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

    from repro.service import ServiceClient, ServiceConfig, ThreadedServer

    corpus = batch_corpus(n_programs=corpus_size, size=size, seed=seed)
    total_requests = n_clients * requests_per_client

    # Phase 1: the cold baseline, which doubles as the oracle.
    start = time.perf_counter()
    expected = _expected_outputs(corpus[index % len(corpus)]
                                 for index in range(total_requests))
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
            # A client that failed to connect never reached the
            # barrier; break it so no other party waits for it.
            barrier.abort()
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
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass  # a load client failed; its requests count as dropped
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        warm_elapsed = time.perf_counter() - start
        with ServiceClient(port=port, timeout_s=120) as client:
            status = client.status()
        drain = _drain_probe(port, seed=seed)

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
        "latency": _latency_summary(latencies),
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
    from repro.fleet import ChaosPlan, FleetConfig, LocalFleet, run_chaos
    from repro.service import ServiceConfig

    plan = plan if plan is not None else ChaosPlan(seed=seed)
    corpus = batch_corpus(n_programs=corpus_size, size=size, seed=seed)

    # Phase 1: the oracle.
    expected = _expected_outputs(corpus)

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
        "chaos_plan": dataclasses.asdict(plan),
        "events": report["events"],
        "elapsed_s": report["elapsed_s"],
        "requests": {
            "total": n_requests,
            "completed": len(latencies),
            "lost": report["lost"],
            "corrupted": corrupted,
            "failed": failed,
        },
        "latency": _latency_summary(latencies),
        "router": report["router"],
        "supervision": report["supervision"],
        # the two --check gates
        "zero_lost_or_corrupted": clean,
        "all_chaos_executed": chaos_executed,
    }


def write_bench_json(path, report):
    """Write (and return) the payload."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


# -- console rows, one formatter per scenario --------------------------------

def _solver_rows(report):
    for row in report["rows"]:
        yield (f"size={row['size']} nodes={row['nodes']} "
               f"per_node={row['time_per_node_s'] * 1e6:.1f}us "
               f"sweeps={row['consumption_sweeps']} "
               f"each_equation_once={row['each_equation_once']}")


def _batch_rows(report):
    for mode, row in report["modes"].items():
        yield (f"{mode}: {row['programs_per_second_s']:.1f} programs/s "
               f"(jobs={row['jobs']}, hits={row['cache_hits']}, "
               f"errors={row['errors']})")
    yield (f"speedup warm vs serial uncached: "
           f"{report['speedup_warm_vs_serial_s']:.2f}x, warm hit rate: "
           f"{report['warm_cache_hit_rate']:.0%}")


def _kernel_rows(report):
    for row in report["rows"]:
        yield (f"size={row['size']} direction={row['direction']} "
               f"reference={row['reference_median_s'] * 1e3:.2f}ms "
               f"planned={row['planned_median_s'] * 1e3:.2f}ms "
               f"({row['speedup_s']:.2f}x) "
               f"with plan={row['planned_with_plan_median_s'] * 1e3:.2f}ms "
               f"({row['speedup_with_plan_s']:.2f}x) "
               f"identical={row['identical']}")
    yield (f"planned overall {report['overall_speedup_s']:.2f}x warm, "
           f"{report['overall_with_plan_speedup_s']:.2f}x with plan build")


def _incr_rows(report):
    for row in report["rows"]:
        kinds = ",".join(step["kind"] for step in row["steps"])
        yield (f"{row['name']}: edits=[{kinds}] "
               f"identical={all(s['identical'] for s in row['steps'])}")
    yield (f"{report['cache_misses']} misses cost "
           f"{report['miss_overhead_s']:.2f}x their cacheless compiles "
           f"(limit {MISS_OVERHEAD_LIMIT}x)")


def _latency_row(latency):
    return (f"latency: p50={latency['p50_s'] * 1e3:.1f}ms "
            f"p90={latency['p90_s'] * 1e3:.1f}ms "
            f"p99={latency['p99_s'] * 1e3:.1f}ms")


def _service_rows(report):
    for mode, row in report["modes"].items():
        yield (f"{mode}: {row['requests_per_second_s']:.1f} requests/s "
               f"({row['elapsed_s'] * 1e3:.0f}ms total)")
    requests = report["requests"]
    yield (f"{_latency_row(report['latency'])} "
           f"(completed={requests['completed']}/{requests['total']}, "
           f"dropped={requests['dropped']}, "
           f"corrupted={requests['corrupted']}, "
           f"busy_retries={requests['busy_retries']})")
    yield f"speedup warm vs cold: {report['speedup_warm_vs_cold_s']:.2f}x"


def _fleet_rows(report):
    for event in report["events"]:
        verdict = event.get("error") or event.get("detail", "")
        yield (f"chaos @request {event['at_request']}: {event['action']} "
               f"-> {verdict}")
    counts = report["requests"]
    yield (f"requests: {counts['completed']}/{counts['total']} completed "
           f"(lost={counts['lost']}, corrupted={counts['corrupted']}, "
           f"failed={counts['failed']}) in {report['elapsed_s']:.2f}s")
    yield _latency_row(report["latency"])
    fleet = report["router"]["fleet"]
    yield (f"router: forwards={fleet['forwards']} "
           f"rerouted={fleet['rerouted']} spilled={fleet['spilled']} "
           f"breaker_opens={fleet['breaker_opens']}; supervision: "
           f"pool_rebuilds={report['supervision']['pool_rebuilds']} "
           f"requeued={report['supervision']['requeued']}")


def _overlap_rows(report):
    for row in report["rows"]:
        transforms = ",".join(f"{k}={v}"
                              for k, v in sorted(row["transforms"].items())
                              if v)
        yield (f"{row['scenario']:9s} faults={row['faults']:34s} "
               f"{row['overlap_makespan']:.0f} vs "
               f"{row['naive_makespan']:.0f} naive "
               f"({row['speedup']:.2f}x) "
               f"state={'identical' if row['state_identical'] else 'DIVERGED'} "
               f"certified={'ok' if row['certified'] else 'VIOLATED'}"
               f"{' [' + transforms + ']' if transforms else ''}")
    yield (f"geomean latency-bound speedup: "
           f"{report['geomean_latency_bound_speedup']:.2f}x "
           f"(target {report['target']}x)")


# -- the scenario registry and its one command line --------------------------

class Scenario(NamedTuple):
    """One bench scenario of ``python -m repro.obs.bench``."""

    #: one line of ``--help``
    summary: str
    #: measures and returns the payload, called with its own defaults
    measure: Callable[[], dict]
    #: payload keys that must all be true under ``--check``
    gates: Tuple[str, ...]
    #: the console lines printed above the closing ``wrote`` line
    rows: Callable[[dict], Iterable[str]]


#: Every scenario by name; each writes ``BENCH_<name>.json``.
SCENARIOS = {
    "solver": Scenario(
        "the solver's O(E) size ladder, each equation once per node",
        solver_scaling, ("linear_within_tolerance", "each_equation_once"),
        _solver_rows),
    "batch": Scenario(
        "batch compilation throughput: serial, parallel cold, parallel warm",
        batch_throughput,
        ("all_ok", "parallel_beats_serial", "cache_gives_speedup"),
        _batch_rows),
    "kernel": Scenario(
        "the planned solver backend against the reference solver",
        kernel_scaling,
        ("all_identical", "planned_beats_reference", "meets_2x_target"),
        _kernel_rows),
    "incr": Scenario(
        "edit streams through a shared cache against cacheless compiles",
        incremental_bench, ("all_identical", "miss_overhead_ok"),
        _incr_rows),
    "service": Scenario(
        "a resident compile service under load against one-shot compiles",
        service_throughput,
        ("zero_dropped_or_corrupted", "warm_beats_cold_2x",
         "drain_completed_in_flight"),
        _service_rows),
    "fleet": Scenario(
        "a local fleet under scripted chaos, every reply byte-checked",
        fleet_chaos, ("zero_lost_or_corrupted", "all_chaos_executed"),
        _fleet_rows),
    "overlap": Scenario(
        "the overlap scheduler against the naive schedule",
        overlap_bench,
        ("all_states_identical", "never_slower", "all_certified",
         "placements_certified", "meets_target"),
        _overlap_rows),
}

#: The scenario measured without a scenario flag.
DEFAULT_SCENARIO = "solver"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description=f"Measure one scenario into BENCH_<scenario>.json. "
                    f"Without a scenario flag: {DEFAULT_SCENARIO}, "
                    f"{SCENARIOS[DEFAULT_SCENARIO].summary}.")
    flags = parser.add_mutually_exclusive_group()
    for name, scenario in SCENARIOS.items():
        if name != DEFAULT_SCENARIO:
            flags.add_argument(f"--{name}", dest="scenario",
                               action="store_const", const=name,
                               help=scenario.summary)
    parser.set_defaults(scenario=DEFAULT_SCENARIO)
    parser.add_argument(
        "--output",
        help=f"where to write the JSON payload (default: "
             f"BENCH_<scenario>.json, <scenario> one of "
             f"{', '.join(SCENARIOS)})")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when a gate of the scenario is false ("
             + "; ".join(f"{name}: {', '.join(scenario.gates)}"
                         for name, scenario in SCENARIOS.items()) + ")")
    args = parser.parse_args(argv)
    scenario = SCENARIOS[args.scenario]
    output = args.output or f"BENCH_{args.scenario}.json"
    report = write_bench_json(output, scenario.measure())
    for line in scenario.rows(report):
        print(line)
    gates = ", ".join(f"{gate}={report[gate]}" for gate in scenario.gates)
    print(f"wrote {output} ({gates})")
    failed = [gate for gate in scenario.gates if not report[gate]]
    if args.check and failed:
        print(f"error: {args.scenario} gate(s) false: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
