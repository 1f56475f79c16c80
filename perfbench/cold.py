"""The cold workloads: one caller compiles a seeded corpus one program
at a time with ``compile_one(name, text, cache=None)``.

Order of a run:

1. generate the corpus from the seed;
2. the oracle, before anything is timed: compile every program with
   ``solver_backend="reference"`` and run the annotated program once on
   ``repro.machine.Simulator`` (loop bound ``SIM_LOOP_BOUND``, seeded
   random branches).  A program the compiler rejects, or whose output
   fails that simulation (a receive without a matching send), is left
   out of the corpus and listed with its cause; the second kind is
   counted in ``machine.sim_failures``.  Excluding them keeps a seed
   that happens to draw such a program from failing timed operations;
   a change that makes more generated code fail shows in that counter;
3. set-up: ``SETUP_LAUNCHES`` fresh interpreters, each timed from
   launch to its first compiled program (a different one each);
4. one more fresh interpreter runs the timed loop (``--trace 0``) or
   the untraced and traced passes (``--trace 1``); every output must be
   byte-identical to the oracle's.
"""

import json
import os
import subprocess
import sys
import threading
import time

from perfbench.common import (REFERENCE_CHUNK_S, ROOT, SRC, calibration_pair,
                              digest, generate_corpus, median, p90, rss_mb,
                              speed_factor)
from perfbench.layers import COUNTERS, LAYER_TABLE
from perfbench.pool import parallel_map

SIM_LOOP_BOUND = 8
SETUP_LAUNCHES = 7
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compile_worker.py")


def oracle_one(item):
    """Reference compile and one simulation of one program."""
    from repro.commgen.pipeline import generate_communication
    from repro.machine.executor import ConditionPolicy, Simulator

    name, text, policy_seed = item
    try:
        result = generate_communication(text, solver_backend="reference")
    except Exception as error:  # reported as an excluded program
        return {"name": name, "rejected": f"{type(error).__name__}: {error}"}
    reads, writes = result.communication_count()
    outcome = {"name": name, "digest": digest(result.annotated_source()),
               "comm_statements": reads + writes}
    try:
        simulator = Simulator(result.annotated_program,
                              bindings={"n": SIM_LOOP_BOUND},
                              policy=ConditionPolicy("random",
                                                     seed=policy_seed))
        metrics = simulator.run()
    except Exception as error:  # counted as a failure of the program
        outcome["sim_error"] = f"{type(error).__name__}: {error}"
        return outcome
    outcome.update(messages=metrics.messages, makespan=metrics.total_time,
                   unmatched=bool(simulator.machine_state()["outstanding"]))
    return outcome


def run_oracle(corpus, seed):
    items = [(name, text, seed * 100003 + index)
             for index, (name, text) in enumerate(corpus)]
    return parallel_map("perfbench.cold:oracle_one", items)


def _launch(request, timeout):
    """Start a compile process and send it ``request``; returns the
    process and a timer that kills it after ``timeout`` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    proc.stdin.write(json.dumps(request))
    proc.stdin.close()
    return proc, watchdog


def _finish(proc, watchdog):
    """The process's remaining stdout; waits for it to end."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"compile process exited with {proc.returncode}")
    return rest


def measure_setup(corpus):
    """Normalized and raw set-up seconds of ``SETUP_LAUNCHES`` fresh
    compile processes; launch ``i`` compiles program ``i``, so the
    median does not hang on one program.  Each launch is normalized by
    calibration pairs timed here just before and after it, on the CPU
    the compile process runs on: pairs timed in the fresh process itself
    spread as much as the set-up times they were to correct."""
    normalized, raw = [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for index in range(SETUP_LAUNCHES):
            program = corpus[index % len(corpus)]
            before = calibration_pair()
            start = time.perf_counter()
            proc, watchdog = _launch({"mode": "setup",
                                      "programs": [program]}, 120)
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _finish(proc, watchdog)
            if ready.strip() != "ready":
                raise RuntimeError("compile process did not get ready")
            raw.append(elapsed)
            normalized.append(
                elapsed * speed_factor(before, calibration_pair()))
    finally:
        os.sched_setaffinity(0, cpus)
    return normalized, raw


def run_worker(mode, programs, seconds):
    proc, watchdog = _launch({"mode": mode, "programs": programs,
                              "seconds": seconds}, seconds + 150)
    if proc.stdout.readline().strip() != "ready":
        _finish(proc, watchdog)
        raise RuntimeError("compile process did not get ready")
    lines = _finish(proc, watchdog).strip().splitlines()
    return json.loads(lines[-1])


def run(workload, config, seed, seconds, trace):
    """Run one cold workload; returns ``(report, metrics, attempted,
    failed, extra)``: the human-readable lines, ``{name: (value,
    unit)}``, the operation counts, and facts for the summary and the
    benchmark's own tests."""
    candidates = generate_corpus(seed, config["generator"],
                                 config["programs"])
    oracle = run_oracle(candidates, seed)
    report = [f"workload {workload}: seed {seed}, closed loop, 1 caller, "
              f"generator {config['generator']}"]
    excluded = [o for o in oracle if "rejected" in o or "sim_error" in o]
    for item in excluded:
        cause = (f"the compiler rejects it ({item['rejected']})"
                 if "rejected" in item else
                 f"its reference output fails simulation "
                 f"({item['sim_error']})")
        report.append(f"  excluded {item['name']}: {cause}")
    kept = [o for o in oracle if o not in excluded]
    texts = dict(candidates)
    corpus = [(o["name"], texts[o["name"]]) for o in kept]
    quality = {
        "sim_messages": sum(o["messages"] for o in kept),
        "sim_makespan": sum(o["makespan"] for o in kept),
        "machine.unmatched_sends": sum(o["unmatched"] for o in kept),
        "machine.sim_failures": sum("sim_error" in o for o in excluded),
    }
    report.append(f"  corpus: {len(corpus)} programs ({len(excluded)} "
                  f"excluded); simulated at n={SIM_LOOP_BOUND}: "
                  f"sim_messages {quality['sim_messages']}, sim_makespan "
                  f"{quality['sim_makespan']:.1f}, unmatched-send "
                  f"simulations {quality['machine.unmatched_sends']}")

    if trace:
        return _traced(config, corpus, kept, quality, seconds, report)
    setup, setup_raw = measure_setup(corpus)
    result = run_worker("timed", corpus, seconds)
    failures = []
    for index, raw, _, out, error in result["ops"]:
        if error is not None:
            failures.append(f"{corpus[index][0]}: {error}")
        elif out != kept[index]["digest"]:
            failures.append(f"{corpus[index][0]}: output differs from the "
                            f"reference-backend oracle")
    normalized = [op[2] for op in result["ops"]]
    raws = [op[1] for op in result["ops"]]
    chunk = median(result["chunks"])
    metrics = {
        "setup_s": (median(setup), "s"),
        "latency_p50_s": (median(normalized), "s"),
        "latency_p90_s": (p90(normalized), "s"),
        "throughput_per_s": (len(normalized) / sum(normalized), "ops/s"),
        "peak_rss_mb": (rss_mb(result["peak_rss_kb"]), "MB"),
    }
    n = len(normalized)
    report.extend([
        f"  operations: {n} compiles in {result['wall_s']:.2f}s wall, "
        f"{len(failures)} failed (error_rate {len(failures) / n:.4f})",
        f"  raw wall times: p50 {median(raws):.4f}s p90 {p90(raws):.4f}s; "
        f"set-up raw median {median(setup_raw):.3f}s over "
        f"{len(setup_raw)} launches",
        f"  calibration chunk median {chunk * 1000:.3f}ms "
        f"(reference {REFERENCE_CHUNK_S * 1000:.1f}ms); raw p50 / chunk = "
        f"{median(raws) / chunk:.2f}",
    ])
    report.extend(f"  FAILED {line}" for line in failures[:20])
    return report, metrics, n, len(failures), {
        "samples": n, "quality": quality, "simulated": len(kept)}


def _traced(config, corpus, kept, quality, seconds, report):
    subset = corpus[:config["traced_programs"]]
    result = run_worker("trace", subset, seconds)
    expected = [o["digest"] for o in kept[:len(subset)]]
    failures = list(result["errors"])
    for kind in ("untraced", "traced"):
        for (name, _), out, want in zip(subset, result["digests"][kind],
                                        expected):
            if out != want:
                failures.append(f"{name} ({kind}): output differs from the "
                                f"reference-backend oracle")
    ops = result["traced_ops"]
    per_op = {layer: value / ops for layer, value in result["layer_s"].items()}
    traced_e2e = result["traced_s"] / ops
    untraced_e2e = result["untraced_s"] / result["untraced_ops"]
    metrics = {name: (per_op.get(name, 0.0), "s") for name, *_ in LAYER_TABLE}
    metrics["unattributed_s"] = (traced_e2e - sum(per_op.values()), "s")
    metrics["tracing_overhead_s"] = (traced_e2e - untraced_e2e, "s")
    for counter in COUNTERS:
        metrics[counter] = (result["counts"].get(counter, 0), "count")
    metrics["commgen.comm_statements"] = (
        sum(o["comm_statements"] for o in kept[:len(subset)]), "count")
    metrics["sim_messages"] = (quality["sim_messages"], "count")
    metrics["sim_makespan"] = (quality["sim_makespan"], "sim-clock")
    for counter in ("machine.unmatched_sends", "machine.sim_failures"):
        metrics[counter] = (quality[counter], "count")
    metrics["machine.calibration_s"] = (median(result["chunks"]), "s")
    attempted = result["traced_ops"] + result["untraced_ops"]
    coverage = sum(per_op.values()) / traced_e2e
    largest = max(per_op, key=per_op.get, default=None)
    report.append(
        f"  traced: {result['passes']} alternating passes over "
        f"{len(subset)} programs; traced {traced_e2e * 1000:.2f}ms vs "
        f"untraced {untraced_e2e * 1000:.2f}ms per compile; layer self "
        f"times cover {coverage:.1%} of traced time")
    if largest is not None:
        report.append(
            f"  largest layer: {largest} ({per_op[largest] / traced_e2e:.0%}"
            f" of traced time); certify calls "
            f"{metrics['core.certify_calls'][0]} on {len(subset)} programs")
    if result["missing"]:
        report.append("  entry points not found (zero calls): "
                      + ", ".join(result["missing"]))
    report.extend(f"  FAILED {line}" for line in failures[:20])
    extra = {"samples": ops, "quality": quality, "simulated": len(kept)}
    return report, metrics, attempted, len(failures), extra
