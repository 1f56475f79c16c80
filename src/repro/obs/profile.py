"""End-to-end profiling: run the pipeline under tracing, summarize.

:func:`profile_source` compiles a program (optionally through the
hardened pipeline, optionally simulating the result) inside a
:func:`~repro.obs.collector.tracing` scope and returns the trace payload
extended with a ``summary`` section:

* the solver plans compiled (with each build's duration, so plan
  building shows separately from solving);
* per-solver-run equation-evaluation counts and the §5.2
  *each-equation-once* verdict (every equation exactly once per node
  per sweep, S3/S4 once per node per timing);
* sweep and fixpoint-round totals;
* interval-construction statistics and node-split counts;
* the hardened pipeline's rung decisions and budget consumption;
* the machine executor's message/fault/retry timeline totals.

This is what ``repro profile`` and the ``--trace`` flags print.
"""

from repro.obs.collector import tracing
from repro.obs.trace import format_event, trace_payload

#: Expected evaluations per node for one solver run: S1 (Eqs 1-8) and
#: S2 (Eqs 9-10) scale with the number of consumption sweeps; S3/S4
#: (Eqs 11-15) run exactly once per node per timing (EAGER and LAZY).
_S1 = tuple(range(1, 9))
_S2 = (9, 10)
_S3_S4 = tuple(range(11, 16))


def run_satisfies_each_equation_once(run):
    """Whether one ``solver/run`` event's counts match the §5.2 bound.

    ``nodes`` includes ROOT; S2 skips ROOT (it is nobody's child), and
    a backward fixpoint with ``k`` sweeps evaluates S1/S2 ``k`` times —
    still exactly once per node *per sweep*, which is the invariant the
    elimination order guarantees.  Both solver kernels report the same
    counts, so one formula checks either.
    """
    nodes = run["nodes"]
    sweeps = run["consumption_sweeps"]
    counts = run["equation_evaluations"]

    def observed(number):
        return counts.get(str(number), counts.get(number, 0))

    return (
        all(observed(n) == nodes * sweeps for n in _S1)
        and all(observed(n) == (nodes - 1) * sweeps for n in _S2)
        and all(observed(n) == nodes * 2 for n in _S3_S4)
    )


def summarize(payload):
    """The ``summary`` section for a trace payload (pure function)."""
    events = payload["events"]
    counters = payload["counters"]

    def select(category, name=None):
        return [e for e in events if e["category"] == category
                and (name is None or e["name"] == name)]

    solver_runs = select("solver", "run")
    summary = {
        "solver_plans": [
            {key: value for key, value in plan.items()
             if key not in ("category", "name")}
            for plan in select("solver", "plan")
        ],
        "solver_runs": [
            {key: value for key, value in run.items()
             if key not in ("category", "name")}
            for run in solver_runs
        ],
        "each_equation_once": (
            all(run_satisfies_each_equation_once(run) for run in solver_runs)
            if solver_runs else None
        ),
        "equation_evaluations": counters.get("equation_evaluations", {}),
        "sweeps": counters.get("sweeps", {}),
    }

    graph = {}
    for event in select("graph", "normalize"):
        graph["normalize"] = {k: v for k, v in event.items()
                              if k not in ("category", "name")}
    for event in select("graph", "interval_graph"):
        graph["interval_graph"] = {k: v for k, v in event.items()
                                   if k not in ("category", "name")}
    node_splits = select("graph", "node_split")
    if node_splits:
        graph["node_splits"] = len(node_splits)
    if graph:
        summary["graph"] = graph

    rungs = select("hardened", "rung_attempt")
    outcome = select("hardened", "result")
    if rungs or outcome:
        summary["hardened"] = {
            "attempts": [
                {k: v for k, v in e.items() if k not in ("category", "name")}
                for e in rungs
            ],
            "result": (
                {k: v for k, v in outcome[-1].items()
                 if k not in ("category", "name")}
                if outcome else None
            ),
        }

    machine_events = select("machine")
    if machine_events:
        timeline = {}
        for event in machine_events:
            timeline[event["name"]] = timeline.get(event["name"], 0) + 1
        summary["machine"] = {"timeline_counts": timeline,
                              "timeline_events": len(machine_events)}
    return summary


def build_profile(collector, extra=None):
    """Trace payload + summary (+ caller-provided ``extra`` entries)."""
    payload = trace_payload(collector)
    payload["summary"] = summarize(payload)
    if extra:
        payload["summary"].update(extra)
    return payload


def profile_source(source, hardened=False, run_simulation=False,
                   bindings=None, machine=None, policy=None, faults=None,
                   retry=None):
    """Compile ``source`` under tracing; return the profile payload.

    ``hardened`` routes placement through the
    :class:`~repro.commgen.hardened.HardenedPipeline`;
    ``run_simulation`` additionally executes the annotated program on
    the machine model (``bindings``/``machine``/``policy``/``faults``/
    ``retry`` as for :func:`repro.machine.simulate`) so the message
    timeline lands in the trace.
    """
    from repro.commgen import HardenedPipeline, generate_communication
    from repro.machine import simulate

    metrics = None
    with tracing() as collector:
        if hardened:
            result = HardenedPipeline().run(source)
        else:
            result = generate_communication(source)
        if run_simulation:
            metrics = simulate(result.annotated_program, machine,
                               bindings or {"n": 16}, policy,
                               faults=faults, retry=retry)

    extra = {}
    inner = result.result if hardened else result
    if hasattr(inner, "communication_count"):
        reads, writes = inner.communication_count()
        extra["placements"] = {"reads": reads, "writes": writes}
    if metrics is not None:
        extra["machine_metrics"] = {
            "messages": metrics.messages,
            "volume": metrics.volume,
            "total_time": metrics.total_time,
            "exposed_latency": metrics.exposed_latency,
            "hidden_latency": metrics.hidden_latency,
            "retries": metrics.retries,
            "timeouts": metrics.timeouts,
            "dropped_messages": metrics.dropped_messages,
            "wire_busy_time": metrics.wire_busy_time,
            "wire_idle_time": metrics.wire_idle_time,
            "peak_in_flight": metrics.peak_in_flight,
            "overlap_ratio": metrics.overlap_ratio,
        }
    return build_profile(collector, extra)


def _duration(event):
    """`` duration=…ms`` for an event that carries ``duration_s`` (stable
    payloads have it stripped)."""
    if "duration_s" not in event:
        return ""
    return f" duration={event['duration_s'] * 1e3:.3f}ms"


def format_profile(payload, events=False):
    """Human-readable rendering of a profile payload.

    ``events=True`` appends the full event stream (one line each);
    the default prints the summary only.
    """
    summary = payload.get("summary", {})
    lines = ["# repro profile"]

    graph = summary.get("graph", {})
    if "interval_graph" in graph:
        stats = graph["interval_graph"]
        lines.append("graph: " + " ".join(f"{k}={v}"
                                          for k, v in sorted(stats.items())))
    if "normalize" in graph:
        stats = graph["normalize"]
        lines.append("normalize: "
                     + " ".join(f"{k}={v}" for k, v in sorted(stats.items())))

    for index, plan in enumerate(summary.get("solver_plans", []), start=1):
        lines.append(
            f"solver plan {index}: direction={plan['direction']} "
            f"nodes={plan['nodes']}" + _duration(plan))
    for index, run in enumerate(summary.get("solver_runs", []), start=1):
        verdict = "yes" if run_satisfies_each_equation_once(run) else "NO"
        lines.append(
            f"solver run {index}: backend={run.get('backend', 'reference')} "
            f"direction={run['direction']} "
            f"nodes={run['nodes']} "
            f"consumption_sweeps={run['consumption_sweeps']} "
            f"fixpoint_rounds={run['rounds']} "
            f"converged={run['converged']} each-equation-once={verdict}"
            + _duration(run))
    once = summary.get("each_equation_once")
    if once is not None:
        lines.append(f"each-equation-once (all runs): "
                     f"{'yes' if once else 'NO'}")

    evaluations = summary.get("equation_evaluations", {})
    if evaluations:
        ordered = sorted(evaluations.items(), key=lambda item: int(item[0]))
        lines.append("equation evaluations: "
                     + " ".join(f"eq{k}={v}" for k, v in ordered))

    if "placements" in summary:
        placements = summary["placements"]
        lines.append(f"placements: reads={placements['reads']} "
                     f"writes={placements['writes']}")

    if "hardened" in summary:
        hardened = summary["hardened"]
        for attempt in hardened["attempts"]:
            state = "ok" if attempt["ok"] else f"failed ({attempt['reason']})"
            lines.append(f"hardened rung {attempt['rung']}: {state}")

    if "machine" in summary:
        timeline = summary["machine"]["timeline_counts"]
        lines.append("machine timeline: "
                     + " ".join(f"{k}={v}" for k, v in sorted(timeline.items())))
    if "machine_metrics" in summary:
        metrics = summary["machine_metrics"]
        lines.append("machine metrics: "
                     + " ".join(f"{k}={v:.2f}" if k.endswith("_ratio")
                                else f"{k}={v:.0f}" if isinstance(v, float)
                                else f"{k}={v}"
                                for k, v in sorted(metrics.items())))

    lines.append(f"events recorded: {len(payload.get('events', []))}")
    if events:
        lines.append("")
        lines.extend(format_event(event) for event in payload["events"])
    return "\n".join(lines) + "\n"
