"""GIVE-N-TAKE — a balanced code placement framework.

Reproduction of Reinhard von Hanxleden and Ken Kennedy, *GIVE-N-TAKE — A
Balanced Code Placement Framework*, PLDI 1994.

Public API overview
===================

Core framework (the paper's contribution)::

    from repro import Problem, Direction, Timing, solve, Placement

    analyzed = analyze_source(source)          # mini-Fortran -> interval graph
    problem = Problem(direction=Direction.BEFORE)
    problem.add_take(node, "element")          # consumption
    problem.add_steal(node, "element")         # destruction
    problem.add_give(node, "element")          # free production
    solution = solve(analyzed.ifg, problem)    # the GiveNTake algorithm
    placement = Placement(analyzed.ifg, problem, solution)
    placement.productions()                    # EAGER + LAZY production sites

Communication generation (the paper's driving application)::

    from repro import generate_communication
    result = generate_communication(source)    # READs + WRITEs, Figure 14 style
    print(result.annotated_source())

Validation and measurement::

    from repro import check_placement          # C1/C2/C3/O1, all paths
    from repro import simulate, MachineModel   # message/latency simulator

Overlap scheduling (EAGER/LAZY slack turned into makespan wins)::

    from repro import build_task_graph, overlap_schedule, compare_schedules
    comparison = compare_schedules(result.annotated_program,
                                   MachineModel(latency=400.0), {"n": 64})
    print(comparison.summary())                # docs/scheduling.md
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

#: The public API by owning module, in ``__all__`` order.  A name's
#: module is imported when the name is first read (``repro.util.lazy``),
#: so ``import repro`` loads no subsystem a process does not use.
_EXPORTS = {
    "repro.core": (
        "Direction",
        "Placement",
        "Problem",
        "Solution",
        "Timing",
        "Universe",
        "check_placement",
        "enumerate_paths",
        "extract_regions",
        "limit_production_span",
        "measure_spans",
        "region_summary",
        "shift_synthetic_productions",
        "solve",
    ),
    "repro.graph": (
        "IntervalFlowGraph",
        "build_cfg",
        "interval_graph_for_program",
        "normalize",
    ),
    "repro.lang": ("format_program", "parse"),
    "repro.testing.programs": ("AnalyzedProgram", "analyze_source"),
    "repro.commgen": (
        "generate_communication",
        "naive_communication",
        "HardenedPipeline",
        "ResourceBudget",
    ),
    "repro.batch": (
        "BatchOptions",
        "BatchResult",
        "PipelineCache",
        "compile_many",
        "compile_one",
        "resolve_jobs",
    ),
    "repro.service": (
        "CompileService",
        "ServiceClient",
        "ServiceConfig",
        "ServiceError",
        "ThreadedServer",
    ),
    "repro.fleet": ("ChaosPlan", "FleetConfig", "FleetRouter", "LocalFleet"),
    "repro.machine": (
        "ConditionPolicy",
        "FaultPlan",
        "MachineModel",
        "RetryPolicy",
        "simulate",
    ),
    "repro.obs": (
        "NullCollector",
        "TraceCollector",
        "current_collector",
        "profile_source",
        "stable_form",
        "tracing",
    ),
    "repro.sched": (
        "Schedule",
        "ScheduleRunner",
        "TaskGraph",
        "build_task_graph",
        "certify_schedule",
        "compare_schedules",
        "naive_schedule",
        "overlap_schedule",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__.append("__version__")
