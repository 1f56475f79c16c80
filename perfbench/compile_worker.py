"""The compile process of the cold workloads.

A fresh interpreter reads one JSON request from stdin, imports
``repro``, compiles the first program with
``compile_one(name, text, cache=None)`` and prints ``ready`` — the end
of set-up.  Then, by ``mode``:

* ``setup`` — exit;
* ``timed`` — compile the programs round-robin for ``seconds`` (and
  at least ``MIN_OPERATIONS`` compiles), interleaving calibration
  chunks, and report every operation;
* ``trace`` — alternate untraced and traced passes over the programs
  for ``seconds`` (at least one of each), reporting per-layer self
  times, counters and both passes' output digests.

The result is one JSON line on stdout.  Run by ``perfbench/cold.py``
with ``PYTHONPATH`` naming ``src`` and the repository root.
"""

import contextlib
import json
import os
import resource
import sys
import time

#: Calibrate whenever this much compile time has passed since the last
#: chunk pair (a pair costs ~6 ms, so ~10% of the timed window).
CALIBRATE_EVERY_S = 0.06
#: A timed run goes on past its seconds until this many compiles are
#: done, so that ten samples lie beyond the reported 90th percentile.
MIN_OPERATIONS = 100


def main():
    # The two CPUs of a shared machine can run at different speeds at
    # the same moment; pinned, the calibration chunks and the compiles
    # they normalize run on the same one.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    request = json.load(sys.stdin)
    from repro.batch.driver import compile_one

    programs = request["programs"]
    compile_one(*programs[0])
    print("ready", flush=True)
    if request["mode"] == "setup":
        return 0
    if request["mode"] == "timed":
        result = timed(compile_one, programs, request["seconds"])
    else:
        result = traced(compile_one, programs, request["seconds"])
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


def _compile(compile_one, program):
    """``(raw seconds, output digest or None, error or None)``."""
    from perfbench.common import digest

    start = time.perf_counter()
    try:
        compiled = compile_one(*program)
    except Exception as error:  # a crash is one failed operation
        return (time.perf_counter() - start, None,
                f"{type(error).__name__}: {error}")
    elapsed = time.perf_counter() - start
    if not compiled.ok:
        return elapsed, None, f"{compiled.error_type}: {compiled.error}"
    return elapsed, digest(compiled.annotated_source), None


def timed(compile_one, programs, seconds):
    """Round-robin compiles for ``seconds``, or until ``MIN_OPERATIONS``
    have been done if that takes longer (at most ``3 * seconds``).  Each
    operation is ``[index, raw_s, normalized_s, digest, error]``;
    operations between two calibration pairs share their speed factor."""
    from perfbench.common import calibration_pair, speed_factor

    ops, pending, chunks = [], [], []
    since = 0.0
    before = calibration_pair()
    chunks.append(before)
    start = time.perf_counter()
    index = 0
    while _measuring(time.perf_counter() - start, index, seconds):
        raw, out, error = _compile(compile_one, programs[index % len(programs)])
        pending.append([index % len(programs), raw, out, error])
        index += 1
        since += raw
        if since >= CALIBRATE_EVERY_S:
            after = calibration_pair()
            chunks.append(after)
            _flush(ops, pending, speed_factor(before, after))
            before, since = after, 0.0
    wall = time.perf_counter() - start
    if pending:
        after = calibration_pair()
        chunks.append(after)
        _flush(ops, pending, speed_factor(before, after))
    return {"ops": ops, "wall_s": wall, "chunks": chunks}


def _measuring(elapsed, done, seconds):
    if elapsed < seconds:
        return True
    return done < MIN_OPERATIONS and elapsed < 3 * seconds


def _flush(ops, pending, factor):
    for index, raw, out, error in pending:
        ops.append([index, raw, raw * factor, out, error])
    pending.clear()


def traced(compile_one, programs, seconds):
    """Alternating untraced and traced passes over ``programs``.

    Every compile is bracketed by calibration pairs; its end-to-end
    time and the layer self times it accrued are normalized by the same
    factor.  Times are summed over all passes of a kind; counters are
    taken from the first traced pass (every pass compiles the same
    programs, so they repeat exactly)."""
    from perfbench.common import calibration_pair, speed_factor
    from perfbench.layers import LayerTracer

    tracer = LayerTracer()
    totals = {"untraced": [0.0, 0], "traced": [0.0, 0]}
    layer_s = {}
    digests = {"untraced": [], "traced": []}
    errors = []
    counts = calls = None
    chunks = []
    start = time.perf_counter()
    passes = 0
    while passes < 2 or time.perf_counter() - start < seconds:
        kind = "untraced" if passes % 2 == 0 else "traced"
        outputs = []
        with (tracer.installed() if kind == "traced"
              else contextlib.nullcontext()):
            before = calibration_pair()
            chunks.append(before)
            for program in programs:
                self_before = dict(tracer.self_s)
                raw, out, error = _compile(compile_one, program)
                after = calibration_pair()
                chunks.append(after)
                factor = speed_factor(before, after)
                before = after
                totals[kind][0] += raw * factor
                totals[kind][1] += 1
                outputs.append(out)
                if error is not None:
                    errors.append(f"{program[0]} ({kind}): {error}")
                for layer, value in tracer.self_s.items():
                    delta = value - self_before.get(layer, 0.0)
                    layer_s[layer] = layer_s.get(layer, 0.0) + delta * factor
        if kind == "traced" and counts is None:
            counts, calls = dict(tracer.counts), dict(tracer.calls)
        if passes < 2:
            digests[kind] = outputs
        elif outputs != digests[kind]:
            errors.append(f"{kind} pass {passes} outputs differ from the "
                          f"first {kind} pass")
        passes += 1
    return {
        "passes": passes,
        "untraced_s": totals["untraced"][0],
        "untraced_ops": totals["untraced"][1],
        "traced_s": totals["traced"][0],
        "traced_ops": totals["traced"][1],
        "layer_s": layer_s,
        "calls": calls or {},
        "counts": counts or {},
        "missing": tracer.missing,
        "digests": digests,
        "errors": errors,
        "chunks": chunks,
    }


if __name__ == "__main__":
    sys.exit(main())
