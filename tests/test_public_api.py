"""Public API surface tests: everything advertised exists and works."""

import re

import pytest

import repro


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this ``repro``;
    fails the test when it exits nonzero."""
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


#: Every package's ``__all__`` as a set, as it stood before each
#: package listed its exports in an ``_EXPORTS`` table; the order may
#: follow the table.
PACKAGE_EXPORTS = {
    "repro": frozenset({
        "AnalyzedProgram", "BatchOptions", "BatchResult", "ChaosPlan",
        "CompileService", "ConditionPolicy", "Direction", "FaultPlan",
        "FleetConfig", "FleetRouter", "HardenedPipeline", "IntervalFlowGraph",
        "LocalFleet", "MachineModel", "NullCollector", "PipelineCache",
        "Placement", "Problem", "ResourceBudget", "RetryPolicy", "Schedule",
        "ScheduleRunner", "ServiceClient", "ServiceConfig", "ServiceError",
        "Solution", "TaskGraph", "ThreadedServer", "Timing", "TraceCollector",
        "Universe", "__version__", "analyze_source", "build_cfg",
        "build_task_graph", "certify_schedule", "check_placement",
        "compare_schedules", "compile_many", "compile_one",
        "current_collector", "enumerate_paths", "extract_regions",
        "format_program", "generate_communication",
        "interval_graph_for_program", "limit_production_span",
        "measure_spans", "naive_communication", "naive_schedule", "normalize",
        "overlap_schedule", "parse", "profile_source", "region_summary",
        "resolve_jobs", "shift_synthetic_productions", "simulate", "solve",
        "stable_form", "tracing"
    }),
    "repro.analysis": frozenset({
        "AffineSection", "ArrayAccess", "IndirectSection", "LoopContext",
        "NonAffineError", "OwnershipModel", "PointSection", "SymExpr",
        "SymRange", "ValueNumbering", "collect_accesses", "section_conflicts"
    }),
    "repro.batch": frozenset({
        "BatchOptions", "BatchResult", "CACHE_SCHEMA", "CompiledProgram",
        "PipelineCache", "compile_many", "compile_one", "resolve_jobs",
        "source_fingerprint"
    }),
    "repro.commgen": frozenset({
        "Annotator", "CommunicationResult", "DegradationReport",
        "HardenedPipeline", "HardenedResult", "ResourceBudget", "RungAttempt",
        "build_read_problem", "build_write_problem", "generate_communication",
        "naive_communication"
    }),
    "repro.core": frozenset({
        "CheckReport", "Direction", "GiveNTakeSolver", "Placement", "Problem",
        "Production", "Region", "Solution", "Timing", "Universe", "Violation",
        "check_placement", "enumerate_paths", "extract_regions",
        "limit_production_span", "measure_spans", "region_summary",
        "shift_synthetic_productions", "solve"
    }),
    "repro.core.kernel": frozenset({
        "PlannedSolver", "SolverPlan", "plan_for"
    }),
    "repro.fleet": frozenset({
        "ACTIONS", "ChaosController", "ChaosEvent", "ChaosPlan",
        "CircuitBreaker", "FleetConfig", "FleetMetrics", "FleetRouter",
        "HashRing", "LocalFleet", "ShardHandle", "ThreadedRouter",
        "run_chaos", "run_fleet"
    }),
    "repro.graph": frozenset({
        "BackwardView", "ControlFlowGraph", "EdgeType", "ForwardView",
        "IntervalFlowGraph", "LoopForest", "Node", "NodeKind", "build_cfg",
        "check_reducible", "compute_dominators", "find_back_edges",
        "interval_graph_for_program", "normalize", "validate_normalized"
    }),
    "repro.lang": frozenset({
        "ArrayInfo", "Distribution", "SymbolTable", "ast", "format_expr",
        "format_program", "format_statement", "parse", "tokenize"
    }),
    "repro.machine": frozenset({
        "ConditionPolicy", "ExecutionMetrics", "FaultDecision", "FaultPlan",
        "FaultState", "MachineModel", "RetryPolicy", "Simulator", "simulate"
    }),
    "repro.obs": frozenset({
        "LatencyHistogram", "NULL", "NullCollector", "TraceCollector",
        "build_profile", "current_collector", "format_profile",
        "profile_source", "run_satisfies_each_equation_once", "set_collector",
        "stable_form", "summarize", "to_json", "trace_payload", "tracing"
    }),
    "repro.pre": frozenset({
        "CSEResult", "LCMResult", "MorelRenvoiseResult", "build_cse_problem",
        "eliminate_common_subexpressions", "eliminate_with_lcm",
        "gnt_pre_placement", "lazy_code_motion", "morel_renvoise"
    }),
    "repro.prefetch": frozenset({
        "PrefetchResult", "generate_prefetches"
    }),
    "repro.regpromo": frozenset({
        "RegisterPromotionResult", "promote_registers"
    }),
    "repro.sched": frozenset({
        "MessageGroup", "OverlapComparison", "Schedule", "ScheduleRunner",
        "Task", "TaskGraph", "build_task_graph", "certify_schedule",
        "compare_schedules", "naive_schedule", "overlap_schedule"
    }),
    "repro.service": frozenset({
        "CompileService", "DEFAULT_PORT", "ERROR_CODES", "E_BAD_REQUEST",
        "E_BUSY", "E_DEADLINE", "E_DRAINING", "E_INTERNAL", "E_UNAVAILABLE",
        "MAX_LINE_BYTES", "PROTOCOL", "ProtocolError", "REQUEST_TYPES",
        "ServiceClient", "ServiceConfig", "ServiceConnectionError",
        "ServiceError", "ServiceMetrics", "ThreadedServer", "decode_message",
        "encode_message", "run_service"
    }),
    "repro.testing": frozenset({
        "AnalyzedProgram", "FIG11_SOURCE", "FIG1_SOURCE", "FIG3_SOURCE",
        "GraphSketch", "ProgramGenerator", "analyze_source",
        "random_analyzed_program", "random_problem"
    }),
    "repro.util": frozenset({
        "AnalysisError", "CommunicationTimeoutError", "ExecutionError",
        "FaultSpecError", "GraphError", "IrreducibleGraphError", "OrderedSet",
        "ParseError", "ReproError", "SolverBudgetError", "SolverError",
        "format_set", "indent_block"
    }),
}


def _lazy_packages():
    """Every package under ``repro`` (``repro`` included) that resolves
    its exports through an ``_EXPORTS`` table."""
    import importlib
    import pkgutil

    names = ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.") if info.ispkg]
    packages = [importlib.import_module(name) for name in names]
    return [package for package in packages if hasattr(package, "_EXPORTS")]


def test_all_symbols_resolve():
    """Every package resolves its exports on first access: each name
    once, to its owning module's object (or the submodule itself, for a
    name listed under the package), listed by ``dir`` and bound by a
    star import; other names raise, ``__all__`` keeps its names, and a
    subpackage resolves after a bare ``import repro``."""
    import importlib

    packages = _lazy_packages()
    assert {package.__name__ for package in packages} == set(
        PACKAGE_EXPORTS)
    for module in packages:
        assert len(set(module.__all__)) == len(module.__all__)
        assert set(module.__all__) == PACKAGE_EXPORTS[module.__name__]
        for name in module.__all__:
            assert hasattr(module, name), name
        assert set(module.__all__) <= set(dir(module))
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace)
        for owner, names in module._EXPORTS.items():
            for name in names:
                expected = (importlib.import_module(f"{owner}.{name}")
                            if owner == module.__name__ else
                            getattr(importlib.import_module(owner), name))
                assert getattr(module, name) is expected, name
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    _run_fresh("import repro\n"
               "assert callable(repro.core.solve)\n"
               "assert repro.graph.build_cfg is repro.build_cfg\n")


def test_version():
    assert re.match(r"\d+\.\d+\.\d+", repro.__version__)


def test_readme_quickstart_snippet_runs():
    """Execute the README's quickstart code block verbatim."""
    readme = open("README.md").read()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks, "README lost its python examples"
    namespace = {}
    for block in blocks:
        exec(compile(block, "<README>", "exec"), namespace)


def test_docs_exist_and_reference_real_modules():
    import importlib
    import pathlib

    for doc in ("equations", "paper_mapping", "language", "api", "tutorial"):
        path = pathlib.Path("docs") / f"{doc}.md"
        assert path.exists(), path
    # every `repro.x.y` module path mentioned in the docs must import
    mentioned = set()
    for path in pathlib.Path("docs").glob("*.md"):
        mentioned.update(re.findall(r"`(repro(?:\.\w+)+)`", path.read_text()))
    for dotted in sorted(mentioned):
        parts = dotted.split(".")
        for end in range(2, len(parts) + 1):
            candidate = ".".join(parts[:end])
            try:
                importlib.import_module(candidate)
                break
            except ImportError:
                continue
        else:
            module = importlib.import_module(".".join(parts[:-1]))
            assert hasattr(module, parts[-1]), dotted


def test_design_and_experiments_exist():
    for name in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
        text = open(name).read()
        assert "GIVE-N-TAKE" in text


def test_examples_are_runnable_modules():
    import pathlib
    import subprocess
    import sys

    examples = sorted(pathlib.Path("examples").glob("*.py"))
    assert len(examples) >= 8
    # compile-check only here (full runs are exercised separately)
    for example in examples:
        subprocess.run([sys.executable, "-m", "py_compile", str(example)],
                       check=True)


#: What a compile never loads: NumPy, the concurrency and network
#: stack, and every subsystem that is not on the compile path.
NOT_ON_THE_COMPILE_PATH = (
    "numpy", "asyncio", "concurrent.futures", "multiprocessing", "socket",
    "ssl", "subprocess", "repro.service", "repro.fleet", "repro.sched",
    "repro.machine", "repro.pre", "repro.prefetch", "repro.regpromo",
)


def test_compile_path_imports_only_the_compiler():
    """Compiling Figure 11 through the batch entry point in a fresh
    interpreter loads none of :data:`NOT_ON_THE_COMPILE_PATH`, so no
    compile process pays their start-up time and memory."""
    _run_fresh(
        "import sys\n"
        "from repro.batch.driver import compile_one\n"
        "from repro.testing.programs import FIG11_SOURCE\n"
        "assert compile_one('fig11', FIG11_SOURCE).ok\n"
        f"loaded = [m for m in {NOT_ON_THE_COMPILE_PATH!r} "
        "if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


#: What a compile runs only in some cases, imported where it runs: the
#: result cache (with ``pickle`` and ``hashlib``), the hardened ladder
#: and its naive rung, the exact checker (only a graph with jump edges
#: certifies) and its path-replay walk, the reference kernel's
#: equations, and the analyses and test builders no compile runs; and
#: ``dataclasses`` (with ``inspect``), since no class a plain compile
#: creates is one.
DEFERRED_FROM_THE_COMPILE_PATH = (
    "repro.batch.cache", "repro.commgen.hardened", "repro.commgen.naive",
    "repro.core.checker", "repro.core.equations", "repro.core.paths",
    "repro.core.pressure", "repro.core.regions", "repro.obs.histogram",
    "repro.obs.profile", "repro.testing.generator", "repro.testing.graphs",
    "dataclasses", "inspect", "pickle", "hashlib",
)

#: What the exact checker brings when a compile certifies: the checker
#: itself, and no ``dataclasses`` (its ``Violation`` is a record).
LOADED_TO_CERTIFY = ("repro.core.checker",)


@pytest.mark.parametrize("figure, allowed", [
    ("FIG1_SOURCE", ()),
    ("FIG11_SOURCE", LOADED_TO_CERTIFY),
])
def test_compile_loads_only_what_it_runs(figure, allowed):
    """A plain ``compile_one`` in a fresh interpreter loads none of
    :data:`DEFERRED_FROM_THE_COMPILE_PATH`; Figure 11's jumps make it
    certify, which loads :data:`LOADED_TO_CERTIFY` and nothing more."""
    unexpected = [name for name in DEFERRED_FROM_THE_COMPILE_PATH
                  if name not in allowed]
    _run_fresh(
        "import sys\n"
        "from repro.batch.driver import compile_one\n"
        f"from repro.testing.programs import {figure}\n"
        f"assert compile_one('figure', {figure}).ok\n"
        f"loaded = [m for m in {unexpected!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        f"assert all(m in sys.modules for m in {allowed!r})\n"
    )


def test_annotate_command_loads_no_service_or_machine(tmp_path):
    """``repro annotate`` imports its subcommand's modules only: no
    asyncio, no compile service (not even its config), no machine
    simulator, no hardened ladder, no naive rung and no
    ``dataclasses``, whether the program never certifies (Figure 1)
    or its jumps make it certify (Figure 11)."""
    from repro.testing.programs import FIG1_SOURCE, FIG11_SOURCE

    unexpected = ("asyncio", "repro.service.server", "repro.service.runner",
                  "repro.service.config", "repro.machine",
                  "repro.commgen.hardened", "repro.commgen.naive",
                  "dataclasses")
    for name, text in (("fig1", FIG1_SOURCE), ("fig11", FIG11_SOURCE)):
        source = tmp_path / f"{name}.f"
        source.write_text(text)
        _run_fresh(
            "import io, sys\n"
            "from repro.cli import main\n"
            f"assert main(['annotate', {str(source)!r}], "
            "out=io.StringIO()) == 0\n"
            f"loaded = [m for m in {unexpected!r} "
            "if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
