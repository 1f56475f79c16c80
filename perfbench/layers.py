"""Per-layer timing of a cold compile, from outside the program.

:class:`LayerTracer` wraps the public entry points the compile pipeline
calls, at the names the pipeline looks them up under (for example
``repro.commgen.pipeline.solve``), and keeps per-layer *self* time —
a span's duration minus the spans nested inside it — plus call counts,
in memory.  Nothing under ``src/`` is changed: the wrappers are
installed for the duration of a ``with tracer.installed():`` block and
removed afterwards.

An entry point that no longer exists (renamed or removed by a later
change) is skipped: its layer reports zero calls and its time shows up
as unattributed, but tracing never fails.
"""

import contextlib
import importlib
import time
from collections import defaultdict

#: Per-layer metrics, the end-to-end metric each should move, and the
#: workload it should move it on.
LAYER_TABLE = (
    ("lang.parse_s", "latency_p50_s, throughput_per_s", "cold-structured"),
    ("graph.cfg_s", "latency_p50_s, throughput_per_s", "cold-structured"),
    ("graph.normalize_s", "latency_p50_s, throughput_per_s",
     "cold-structured"),
    ("graph.intervals_s", "latency_p50_s, throughput_per_s",
     "cold-structured"),
    ("analysis.accesses_s", "latency_p50_s, throughput_per_s",
     "cold-structured"),
    ("commgen.problems_s", "latency_p50_s, throughput_per_s",
     "cold-structured"),
    ("core.solve_read_s", "latency_p50_s", "cold-structured"),
    ("core.solve_write_s", "latency_p50_s", "cold-structured"),
    ("core.certify_s", "latency_p50_s, latency_p90_s, throughput_per_s",
     "cold-jumpy"),
    ("core.placement_s", "latency_p50_s", "cold-structured"),
    ("core.postpass_s", "latency_p50_s", "fleet-edits (hits annotate)"),
    ("commgen.annotate_s", "latency_p50_s", "fleet-edits (hits annotate)"),
    ("lang.print_s", "latency_p50_s", "fleet-edits (hits print)"),
)

#: The same for the per-layer metrics that are not layer self times.
OTHER_TABLE = (
    ("unattributed_s", "none (coverage check)", "cold workloads"),
    ("tracing_overhead_s", "none (coverage check)", "cold workloads"),
    ("core.solve_calls", "latency_p50_s (>2 per program: WRITE re-solved)",
     "cold-structured"),
    ("core.certify_calls", "latency_p50_s, latency_p90_s, throughput_per_s",
     "cold-jumpy"),
    ("core.certify_accepted", "sim_* if verdicts change", "cold-jumpy"),
    ("core.certify_truncated", "latency_p90_s", "cold-jumpy"),
    ("core.paths_checked", "latency_p50_s, latency_p90_s", "cold-jumpy"),
    ("graph.nodes", "context: input size", "cold workloads"),
    ("graph.jump_edges", "context: input size", "cold workloads"),
    ("commgen.comm_statements", "context: output shape", "cold workloads"),
    ("sim_messages", "generated-code quality", "cold workloads"),
    ("sim_makespan", "generated-code quality", "cold workloads"),
    ("machine.unmatched_sends", "context: output shape", "cold workloads"),
    ("machine.sim_failures", "generated-code correctness (programs "
     "excluded)", "cold workloads"),
    ("machine.calibration_s", "none (machine-speed drift record)",
     "every workload"),
    ("fleet.hop_p50_s", "latency_p50_s, throughput_per_s", "fleet-edits"),
    ("service.queue_p50_s", "latency_p90_s, error_rate", "fleet-edits"),
    ("service.busy_retries", "latency_p90_s, error_rate", "fleet-edits"),
    ("fleet.rerouted", "latency_p90_s, error_rate", "fleet-edits"),
    ("fleet.spilled", "latency_p90_s, error_rate", "fleet-edits"),
    ("batch.hit_compile_p50_s", "latency_p50_s", "fleet-edits"),
    ("batch.hit_rate", "latency_p50_s", "fleet-edits"),
    ("batch.delta_compile_p50_s", "latency_p90_s, peak_rss_mb",
     "fleet-edits"),
    ("incremental.whole_hits", "latency_p90_s, peak_rss_mb", "fleet-edits"),
    ("incremental.interval_hits", "latency_p90_s, peak_rss_mb",
     "fleet-edits"),
    ("incremental.verdict_hits", "latency_p90_s, peak_rss_mb",
     "fleet-edits"),
    ("incremental.changed_share", "latency_p90_s, peak_rss_mb",
     "fleet-edits"),
)


def _solve_layer(args, kwargs):
    problem = kwargs.get("problem", args[1] if len(args) > 1 else None)
    direction = getattr(getattr(problem, "direction", None), "value", None)
    return "core.solve_write_s" if direction == "after" else "core.solve_read_s"


def _count_solve(counts, result, args, kwargs):
    counts["core.solve_calls"] += 1


def _count_graph(counts, ifg, args, kwargs):
    counts["graph.nodes"] += len(ifg.nodes())
    counts["graph.jump_edges"] += len(ifg.jump_edges())


def _count_certify(counts, reports, args, kwargs):
    full, min_trip = reports
    counts["core.certify_calls"] += 1
    counts["core.certify_truncated"] += int(bool(full.truncated))
    counts["core.paths_checked"] += full.paths_checked
    if full.truncated:
        counts["core.paths_checked"] += min_trip.paths_checked
    # The acceptance rule of repro.commgen.pipeline._solve_write.
    accepted = (not full.by_kind("balance")
                and min_trip.ok(ignore=("safety", "redundant")))
    counts["core.certify_accepted"] += int(accepted)


#: ``(layer, module, attribute path, observer)``: where the pipeline
#: looks each entry point up.  ``layer`` may be a function of the call's
#: arguments (the two solve directions share one entry point).
ENTRY_POINTS = (
    ("lang.parse_s", "repro.graph.pipeline", "parse", None),
    ("graph.cfg_s", "repro.testing.programs", "build_cfg", None),
    ("graph.normalize_s", "repro.testing.programs", "normalize", None),
    ("graph.intervals_s", "repro.testing.programs", "IntervalFlowGraph",
     _count_graph),
    ("graph.intervals_s", "repro.testing.programs", "preorder_numbering",
     None),
    ("analysis.accesses_s", "repro.commgen.pipeline",
     "SymbolTable.from_program", None),
    ("analysis.accesses_s", "repro.commgen.pipeline", "collect_accesses",
     None),
    ("commgen.problems_s", "repro.commgen.pipeline", "build_read_problem",
     None),
    ("commgen.problems_s", "repro.commgen.pipeline", "build_write_problem",
     None),
    (_solve_layer, "repro.commgen.pipeline", "solve", _count_solve),
    ("core.certify_s", "repro.core.checker", "check_placement_dual",
     _count_certify),
    ("core.placement_s", "repro.commgen.pipeline", "Placement", None),
    ("core.placement_s", "repro.commgen.pipeline",
     "CommunicationResult.communication_count", None),
    ("core.postpass_s", "repro.commgen.pipeline",
     "shift_synthetic_productions", None),
    ("commgen.annotate_s", "repro.commgen.pipeline", "Annotator.apply", None),
    ("lang.print_s", "repro.commgen.pipeline", "format_program", None),
)

#: The counters the observers above fill.
COUNTERS = ("core.solve_calls", "core.certify_calls", "core.certify_accepted",
            "core.certify_truncated", "core.paths_checked", "graph.nodes",
            "graph.jump_edges")

_MISSING = object()


class LayerTracer:
    """Self time, calls and counters per layer, kept in memory."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        #: ``module:attribute`` of entry points that could not be found
        self.missing = []
        self._stack = []

    def wrap(self, layer, function, observer=None):
        """``function`` with a span around every call."""
        stack = self._stack

        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[name] += elapsed - children[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if observer is not None:
                with contextlib.suppress(AttributeError, TypeError,
                                         ValueError):
                    observer(self.counts, result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point that exists; restore all on exit."""
        restore = []
        self.missing = []
        try:
            for layer, module_name, path, observer in self.entry_points:
                found = _resolve(module_name, path)
                if found is None:
                    self.missing.append(f"{module_name}:{path}")
                    continue
                owner, name = found
                raw = (vars(owner).get(name, _MISSING)
                       if isinstance(owner, type) else getattr(owner, name))
                setattr(owner, name,
                        self.wrap(layer, getattr(owner, name), observer))
                restore.append((owner, name, raw))
            yield self
        finally:
            for owner, name, raw in reversed(restore):
                if raw is _MISSING:
                    delattr(owner, name)
                else:
                    setattr(owner, name, raw)


def _resolve(module_name, path):
    """``(owner, attribute)`` for ``module:path``, or None when the
    module, an intermediate object or the attribute is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name
