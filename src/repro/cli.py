"""Command-line interface.

::

    python -m repro annotate program.f [--atomic] [--owner-computes]
                                       [--no-hoist] [--conservative-jumps]
                                       [--hardened] [--trace]
                                       [--trace-json PATH]
    python -m repro graph program.f [--dot]
    python -m repro simulate program.f [--n N] [--latency L] [--branch MODE]
                                       [--naive] [--overhead O] [--hardened]
                                       [--faults SPEC] [--retries N]
                                       [--timeout T] [--trace]
                                       [--trace-json PATH]
    python -m repro profile program.f [--json] [--events] [--simulate]
                                      [--n N] [--hardened]
    python -m repro pre program.f
    python -m repro batch DIR_OR_FILES... [--jobs N] [--cache DIR]
                                          [--no-cache] [--hardened]
                                          [--json] [--quiet]
    python -m repro serve [--host H] [--port P] [--workers N]
                          [--queue-limit N] [--deadline S] [--hardened]
                          [--cache DIR] [--no-cache] [--pool KIND]
    python -m repro fleet [--shards K] [--host H] [--port P]
                          [--workers N] [--pool KIND] [--queue-limit N]
                          [--hardened] [--hedge S] [--heartbeat S]
    python -m repro request ACTION [FILES...] [--host H] [--port P]
                                   [--deadline S] [--hardened] [--json]

``annotate`` prints the program with balanced READ/WRITE communication
(the paper's Figure 14 output format); ``graph`` prints the interval
flow graph (optionally as Graphviz dot); ``simulate`` runs the annotated
program on the machine model and reports messages/volume/latency;
``profile`` runs the pipeline under the structured tracer and reports
per-equation evaluation counts, sweep/fixpoint statistics, interval
construction stats, and — with ``--simulate`` — the message timeline
(``docs/observability.md``); ``pre`` reports common-subexpression
placement under GIVE-N-TAKE, Lazy Code Motion, and Morel-Renvoise.
``--trace`` on ``annotate``/``simulate`` appends the same human-readable
trace summary; ``--trace-json PATH`` writes the full JSON trace (``-``
for stdout).

``batch`` compiles every ``*.f`` program under a directory (or an
explicit file list) through the batch layer (``docs/scaling.md``):
``--jobs`` fans the corpus across worker processes, ``--cache DIR``
keeps a content-addressed cache of compile results warm across runs,
``--no-cache`` disables caching entirely.  Per-program errors are reported and counted, never fatal to
the rest of the corpus; the command exits 1 when any program failed.

``serve`` runs the resident compile service (``docs/serving.md``): a
warm-cache ``asyncio`` TCP server with bounded admission, backpressure,
per-request deadlines, and graceful drain; ``fleet`` runs ``--shards``
of them behind a fault-tolerant router (consistent-hash placement,
circuit breakers, transparent failover — ``docs/robustness.md``) that
speaks the same protocol on one address; ``request`` sends one request
(``compile``, ``batch``, ``status``, ``drain``, ``ping``) to a running
service *or* fleet and renders the reply — ``status`` shows admission,
cache, latency, and supervision counters for a service, and the
failover/breaker/shard table for a fleet.

``--hardened`` routes placement through the self-checking
:class:`~repro.commgen.hardened.HardenedPipeline`; ``--faults`` injects
seeded message loss/duplication/jitter/crashes into the simulation,
recovered by the ``--retries``/``--timeout`` backoff protocol (see
``docs/robustness.md``).

Every library error (:class:`~repro.util.errors.ReproError`) exits with
status 2 and a one-line ``error: ...`` message — never a traceback.
"""

import argparse
import sys

from repro.commgen import (
    HardenedPipeline,
    generate_communication,
    naive_communication,
)
from repro.graph.dot import interval_graph_to_dot
from repro.machine import (
    ConditionPolicy,
    FaultPlan,
    MachineModel,
    RetryPolicy,
    simulate,
)
from repro.obs import (
    build_profile,
    format_profile,
    profile_source,
    to_json,
    tracing,
)
from repro.service.config import DEFAULT_PORT as DEFAULT_SERVICE_PORT
from repro.testing.programs import analyze_source
from repro.util.errors import FaultSpecError, ReproError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GIVE-N-TAKE balanced code placement "
                    "(von Hanxleden & Kennedy, PLDI 1994)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    annotate = commands.add_parser(
        "annotate", help="insert balanced READ/WRITE communication")
    annotate.add_argument("file", help="mini-Fortran source file ('-' for stdin)")
    annotate.add_argument("--atomic", action="store_true",
                          help="atomic operations instead of send/recv pairs")
    annotate.add_argument("--owner-computes", action="store_true",
                          help="strict owner-computes rule (no writes/gives)")
    annotate.add_argument("--no-hoist", action="store_true",
                          help="never produce on zero-trip paths (§4.1)")
    annotate.add_argument("--conservative-jumps", action="store_true",
                          help="§5.3 blocking for AFTER problems with jumps")
    annotate.add_argument("--hardened", action="store_true",
                          help="self-checking pipeline: validate the "
                               "placement and degrade instead of failing")
    add_trace_arguments(annotate)

    graph = commands.add_parser("graph", help="show the interval flow graph")
    graph.add_argument("file")
    graph.add_argument("--dot", action="store_true", help="Graphviz output")

    sim = commands.add_parser("simulate", help="run on the machine model")
    sim.add_argument("file")
    sim.add_argument("--n", type=int, default=64, help="loop bound binding")
    sim.add_argument("--latency", type=float, default=100.0)
    sim.add_argument("--overhead", type=float, default=10.0,
                     help="per-message overhead")
    sim.add_argument("--branch", choices=["always", "never", "random"],
                     default="always", help="opaque condition policy")
    sim.add_argument("--naive", action="store_true",
                     help="use the per-element baseline placement")
    sim.add_argument("--hardened", action="store_true",
                     help="place communication with the self-checking, "
                          "gracefully degrading pipeline")
    sim.add_argument("--faults", metavar="SPEC",
                     help="inject seeded faults, e.g. "
                          "'drop=0.2,dup=0.1,jitter=50,crash=0.05,seed=7'")
    sim.add_argument("--retries", type=int, default=6,
                     help="retransmissions before a lost message is fatal")
    sim.add_argument("--timeout", type=float, default=400.0,
                     help="initial retransmit timeout (doubles per retry)")
    sim.add_argument("--schedule", choices=["naive", "overlap"],
                     default="naive",
                     help="run the statement order as annotated (naive) "
                          "or the latency-hiding overlap schedule, "
                          "differentially checked against it "
                          "(docs/scheduling.md)")
    add_trace_arguments(sim)

    profile = commands.add_parser(
        "profile", help="trace the pipeline: equation counts, sweeps, "
                        "graph stats (docs/observability.md)")
    profile.add_argument("file")
    profile.add_argument("--json", action="store_true",
                         help="machine-readable trace payload instead of "
                              "the human summary")
    profile.add_argument("--events", action="store_true",
                         help="include the full event stream in the "
                              "human summary")
    profile.add_argument("--simulate", action="store_true",
                         help="also execute on the machine model and "
                              "trace the message timeline")
    profile.add_argument("--n", type=int, default=64,
                         help="loop bound binding for --simulate")
    profile.add_argument("--hardened", action="store_true",
                         help="profile the self-checking pipeline "
                              "(rung decisions, budget consumption)")

    pre = commands.add_parser("pre", help="compare PRE placements")
    pre.add_argument("file")

    batch = commands.add_parser(
        "batch", help="compile a corpus through the memoized batch "
                      "layer (docs/scaling.md)")
    batch.add_argument("paths", nargs="+", metavar="PATH",
                       help="directories (every *.f inside) and/or "
                            "individual source files")
    batch.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1 = serial, "
                            "0 = one per CPU)")
    batch.add_argument("--cache", metavar="DIR", default=None,
                       help="persist the content-addressed pipeline "
                            "cache in DIR (warm across runs); default "
                            "is an in-memory cache for this run only")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the pipeline cache entirely")
    batch.add_argument("--hardened", action="store_true",
                       help="compile every program through the "
                            "self-checking degrading pipeline")
    batch.add_argument("--owner-computes", action="store_true",
                       help="strict owner-computes rule (no writes)")
    batch.add_argument("--atomic", action="store_true",
                       help="atomic operations instead of send/recv")
    batch.add_argument("--json", action="store_true",
                       help="machine-readable batch report (includes "
                            "every annotated source)")
    batch.add_argument("--quiet", action="store_true",
                       help="summary line only, no per-program lines")

    delta = commands.add_parser(
        "delta", help="recompile an edited program and report which "
                      "intervals the edit changed (docs/scaling.md)")
    delta.add_argument("base", help="base source file (the previously "
                                    "compiled version)")
    delta.add_argument("edited", help="edited source file ('-' for stdin)")
    delta.add_argument("--cache", metavar="DIR", default=None,
                       help="persist the pipeline cache in DIR (warm "
                            "across runs); default is an in-memory "
                            "cache warmed by compiling BASE first")
    delta.add_argument("--json", action="store_true",
                       help="machine-readable result (the full compile "
                            "payload including the interval diff)")

    serve = commands.add_parser(
        "serve", help="run the resident compile service "
                      "(docs/serving.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                       help=f"listen port (default {DEFAULT_SERVICE_PORT}, "
                            "0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes (default 0 = one per CPU)")
    serve.add_argument("--pool", choices=["auto", "process", "thread"],
                       default="auto",
                       help="worker pool kind (auto = processes, with a "
                            "thread fallback where multiprocessing is "
                            "unavailable)")
    serve.add_argument("--queue-limit", type=int, default=32,
                       help="max requests queued or running before new "
                            "work is refused with a busy/retry_after "
                            "reply")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request deadline in seconds "
                            "(requests may override)")
    serve.add_argument("--hardened", action="store_true",
                       help="compile through the self-checking degrading "
                            "pipeline by default")
    serve.add_argument("--cache", metavar="DIR", default=None,
                       help="persist the warm pipeline cache in DIR "
                            "(shared across restarts and pool workers)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the pipeline cache entirely")

    fleet = commands.add_parser(
        "fleet", help="run a fault-tolerant fleet of compile shards "
                      "behind one router (docs/robustness.md)")
    fleet.add_argument("--shards", type=int, default=3,
                       help="number of compile shards (default 3)")
    fleet.add_argument("--host", default="127.0.0.1",
                       help="router listen address (shards bind "
                            "ephemeral ports on the same host)")
    fleet.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                       help=f"router listen port (default "
                            f"{DEFAULT_SERVICE_PORT}, 0 = ephemeral)")
    fleet.add_argument("--workers", type=int, default=0,
                       help="workers per shard (default 0 = one per CPU)")
    fleet.add_argument("--pool", choices=["auto", "process", "thread"],
                       default="auto",
                       help="worker pool kind for every shard")
    fleet.add_argument("--queue-limit", type=int, default=32,
                       help="admission bound per shard")
    fleet.add_argument("--hardened", action="store_true",
                       help="shards compile through the self-checking "
                            "degrading pipeline by default")
    fleet.add_argument("--hedge", type=float, default=None, metavar="S",
                       help="duplicate an unanswered forward on another "
                            "shard after S seconds (default: off)")
    fleet.add_argument("--heartbeat", type=float, default=0.25, metavar="S",
                       help="shard health-check interval in seconds")

    request = commands.add_parser(
        "request", help="send one request to a running compile service "
                        "or fleet router")
    request.add_argument("action",
                         choices=["compile", "batch", "status", "drain",
                                  "ping"])
    request.add_argument("paths", nargs="*", metavar="PATH",
                         help="source files for compile, files and/or "
                              "directories for batch")
    request.add_argument("--host", default="127.0.0.1")
    request.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT)
    request.add_argument("--deadline", type=float, default=None,
                         help="per-request deadline in seconds")
    request.add_argument("--hardened", action="store_true",
                         help="ask for the self-checking degrading "
                              "pipeline")
    request.add_argument("--timeout", type=float, default=30.0,
                         help="client socket timeout in seconds")
    request.add_argument("--json", action="store_true",
                         help="print the raw response payload")

    explain = commands.add_parser(
        "explain", help="dataflow report for the communication problems")
    explain.add_argument("file")
    explain.add_argument("--problem", choices=["read", "write", "both"],
                         default="both")
    return parser


def add_trace_arguments(parser):
    parser.add_argument("--trace", action="store_true",
                        help="append a human-readable trace summary "
                             "(equation counts, sweeps, graph stats)")
    parser.add_argument("--trace-json", metavar="PATH",
                        help="write the full JSON trace to PATH "
                             "('-' for stdout)")


def read_source(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def traced(args, out, body):
    """Run ``body`` under tracing when ``--trace``/``--trace-json`` ask
    for it, then emit the requested rendering after the normal output.
    Returns ``body``'s result (a command exit status or ``None``)."""
    if not (args.trace or args.trace_json):
        return body()
    with tracing() as collector:
        status = body()
    payload = build_profile(collector)
    if args.trace:
        out.write(format_profile(payload))
    if args.trace_json:
        if args.trace_json == "-":
            out.write(to_json(payload))
        else:
            with open(args.trace_json, "w") as handle:
                handle.write(to_json(payload))
    return status


def command_annotate(args, out):
    traced(args, out, lambda: _annotate(args, out))


def _annotate(args, out):
    rung_options = {
        "hoist_zero_trip": not args.no_hoist,
        "after_jumps": ("conservative" if args.conservative_jumps
                        else "optimistic"),
    }
    if args.hardened:
        from repro.batch import BatchOptions

        try:  # refuses the options the ladder sets itself
            BatchOptions(hardened=True, pipeline=rung_options)
        except ValueError as error:
            raise ReproError(f"--hardened: {error}") from None
        pipeline = HardenedPipeline(owner_computes=args.owner_computes,
                                    split_messages=not args.atomic)
        hardened = pipeline.run(read_source(args.file))
        out.write(hardened.annotated_source())
        out.write(f"! {hardened.report.summary()}\n")
        return
    result = generate_communication(
        read_source(args.file),
        owner_computes=args.owner_computes,
        split_messages=not args.atomic,
        **rung_options,
    )
    out.write(result.annotated_source())
    reads, writes = result.communication_count()
    out.write(f"! {reads} read and {writes} write placements\n")


def command_graph(args, out):
    analyzed = analyze_source(read_source(args.file))
    if args.dot:
        out.write(interval_graph_to_dot(analyzed.ifg, analyzed.numbering))
        out.write("\n")
        return
    for node, number in analyzed.numbering.items():
        level = analyzed.ifg.level(node)
        marker = "*" if node.synthetic else " "
        out.write(f"{number:3}{marker} level {level}  {node.kind.value:10} "
                  f"{node.name}\n")
    for src, dst, edge_type in analyzed.ifg.edges("CEFJS"):
        s = "ROOT" if src is analyzed.ifg.root else analyzed.numbering[src]
        d = "ROOT" if dst is analyzed.ifg.root else analyzed.numbering[dst]
        out.write(f"  ({s}, {d}) {edge_type.name}\n")


def command_simulate(args, out):
    traced(args, out, lambda: _simulate(args, out))


def _simulate(args, out):
    source = read_source(args.file)
    report = None
    if args.hardened:
        hardened = HardenedPipeline().run(source)
        result, report = hardened.result, hardened.report
    elif args.naive:
        result = naive_communication(source)
    else:
        result = generate_communication(source)
    faults = FaultPlan.parse(args.faults) if args.faults else None
    try:
        retry = RetryPolicy(max_retries=args.retries, timeout=args.timeout)
    except ValueError as exc:
        raise FaultSpecError(str(exc)) from exc
    machine = MachineModel(latency=args.latency, message_overhead=args.overhead)
    if args.schedule == "overlap":
        from repro.sched import compare_schedules

        comparison = compare_schedules(
            result.annotated_program, machine, {"n": args.n},
            branch=args.branch, faults=faults, retry=retry)
        if report is not None:
            out.write(report.summary() + "\n")
        out.write("naive:   " + comparison.naive.summary() + "\n")
        out.write("overlap: " + comparison.overlap.summary() + "\n")
        out.write(comparison.summary() + "\n")
        if not comparison.states_match or not comparison.certified:
            for violation in comparison.certification.violations:
                out.write(f"  {violation.criterion} {violation.message}\n")
            return 1
        return 0
    metrics = simulate(result.annotated_program, machine, {"n": args.n},
                       ConditionPolicy(args.branch), faults=faults,
                       retry=retry)
    if report is not None:
        out.write(report.summary() + "\n")
    out.write(metrics.summary() + "\n")


def command_profile(args, out):
    payload = profile_source(
        read_source(args.file),
        hardened=args.hardened,
        run_simulation=args.simulate,
        bindings={"n": args.n},
        policy=ConditionPolicy("always"),
    )
    if args.json:
        out.write(to_json(payload))
    else:
        out.write(format_profile(payload, events=args.events))


def command_pre(args, out):
    from repro.pre import (
        build_cse_problem,
        gnt_pre_placement,
        lazy_code_motion,
        morel_renvoise,
    )
    from repro.pre.gnt_pre import lazy_insertion_nodes

    analyzed = analyze_source(read_source(args.file))
    problem, _ = build_cse_problem(analyzed)
    if not len(problem.universe):
        out.write("no candidate expressions found\n")
        return
    lcm = lazy_code_motion(analyzed.ifg, problem)
    mr = morel_renvoise(analyzed.ifg, problem)
    gnt = gnt_pre_placement(analyzed.ifg, problem)
    for expression in problem.universe:
        out.write(f"{expression}:\n")
        gnt_nodes = lazy_insertion_nodes(gnt, expression)
        out.write("  GNT evaluates at : "
                  + (", ".join(n.name for n in gnt_nodes) or "-") + "\n")
        out.write("  LCM inserts at   : "
                  + (", ".join(n.name for n in lcm.node_insertions_for(expression))
                     or "-") + "\n")
        out.write("  MR inserts at    : "
                  + (", ".join(n.name for n in mr.node_insertions_for(expression))
                     or "-") + "\n")


def collect_sources(paths):
    """``(name, text)`` pairs from a mix of files and directories
    (every ``*.f`` inside a directory) — shared by ``batch`` and
    ``request batch``."""
    import os

    sources = []
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".f"):
                    full = os.path.join(path, name)
                    sources.append((full, read_source(full)))
        else:
            sources.append((path, read_source(path)))
    if not sources:
        raise FileNotFoundError(
            f"no *.f programs found under: {', '.join(paths)}")
    return sources


def command_batch(args, out):
    import json

    from repro.batch import BatchOptions, PipelineCache, compile_many

    sources = collect_sources(args.paths)

    cache = None if args.no_cache else PipelineCache(directory=args.cache)
    options = BatchOptions(
        hardened=args.hardened,
        split_messages=not args.atomic,
        pipeline={"owner_computes": args.owner_computes},
    )
    result = compile_many(sources, jobs=args.jobs, cache=cache,
                          options=options)

    if args.json:
        out.write(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        out.write("\n")
        return 1 if result.error_count else 0
    if not args.quiet:
        for program in result.programs:
            if program.ok:
                line = (f"{program.name}: reads={program.reads} "
                        f"writes={program.writes}")
                if program.cache_hit:
                    line += " [cached]"
                if program.rung:
                    line += f" [rung={program.rung}]"
            else:
                line = f"{program.name}: error: {program.error}"
            out.write(line + "\n")
    out.write(result.summary() + "\n")
    return 1 if result.error_count else 0


def command_delta(args, out):
    import json

    from repro.batch import (
        BatchOptions,
        PipelineCache,
        compile_delta,
        compile_one,
        source_fingerprint,
    )

    base_text = read_source(args.base)
    edited_text = read_source(args.edited)
    cache = PipelineCache(directory=args.cache)
    options = BatchOptions()
    base = compile_one(args.base, base_text, cache=cache, options=options)
    if not base.ok:
        out.write(f"{args.base}: error: {base.error}\n")
        return 1
    compiled = compile_delta(args.edited, edited_text, cache,
                             options=options,
                             base_digest=source_fingerprint(base_text))
    if args.json:
        out.write(json.dumps(compiled.as_dict(), indent=2, sort_keys=True))
        out.write("\n")
        return 1 if not compiled.ok else 0
    if not compiled.ok:
        out.write(f"{args.edited}: error: {compiled.error}\n")
        return 1
    out.write(compiled.annotated_source)
    incr = compiled.incremental or {}
    changed = incr.get("intervals_changed")
    total = incr.get("intervals_total")
    scope = (f"{changed}/{total} intervals changed"
             if changed is not None else "interval diff unavailable")
    out.write(f"! delta: {scope}\n")
    return 0


def command_serve(args, out):
    from repro.service import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        pool=args.pool,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline,
        hardened=args.hardened,
        cache_dir=args.cache,
        use_cache=not args.no_cache,
    )
    run_service(config, out=out)


def command_fleet(args, out):
    from repro.fleet import FleetConfig, run_fleet
    from repro.service import ServiceConfig

    service_config = ServiceConfig(
        host=args.host,
        workers=args.workers,
        pool=args.pool,
        queue_limit=args.queue_limit,
        hardened=args.hardened,
    )
    fleet_config = FleetConfig(
        host=args.host,
        port=args.port,
        heartbeat_s=args.heartbeat,
        hedge_delay_s=args.hedge,
    )

    def announce(fleet):
        shards = ", ".join(f"{shard.host}:{shard.port}"
                           for shard in fleet.shards)
        out.write(f"repro-fleet router listening on "
                  f"{fleet.host}:{fleet.port} "
                  f"({len(fleet.shards)} shards: {shards})\n")
        if hasattr(out, "flush"):
            out.flush()

    run_fleet(n_shards=args.shards, service_config=service_config,
              fleet_config=fleet_config, announce=announce)


def format_status(status, out):
    """Human rendering of a ``status`` reply — a compile service's
    admission/cache/latency/supervision view, or a fleet router's
    failover counters and shard table."""
    server = status.get("server", {})
    if server.get("role") == "fleet-router":
        fleet = status["fleet"]
        out.write(f"fleet router {server['host']}:{server['port']} — "
                  f"{server['shards']} shards, "
                  f"uptime {fleet['uptime_s']:.0f}s\n")
        out.write(f"  requests: received={fleet['received']} "
                  f"forwards={fleet['forwards']} "
                  f"completed={fleet['completed']} "
                  f"unavailable={fleet['unavailable']}\n")
        out.write(f"  failover: rerouted={fleet['rerouted']} "
                  f"spilled={fleet['spilled']} "
                  f"hedges={fleet['hedges']} "
                  f"(won {fleet['hedge_wins']}) "
                  f"breaker_opens={fleet['breaker_opens']}\n")
        for shard in status.get("shards", ()):
            out.write(f"  {shard['name']} {shard['host']}:{shard['port']}: "
                      f"{shard['state']} inflight={shard['inflight']} "
                      f"forwards={shard['forwards']} "
                      f"failures={shard['failures']} "
                      f"opens={shard['opens']}\n")
        return
    requests = status["requests"]
    admission = status["admission"]
    supervision = status.get("supervision", {})
    cache = status["cache"]
    total = status["latency"]["total_s"]
    out.write(f"service {server.get('host')}:{server.get('port')} — "
              f"workers={server.get('workers')} ({server.get('pool')}), "
              f"uptime {status['uptime_s']:.0f}s\n")
    out.write(f"  requests: received={requests['received']} "
              f"admitted={requests['admitted']} "
              f"completed={requests['completed']} "
              f"failed={requests['failed']} "
              f"inflight={requests['inflight']} "
              f"(peak {requests['queue_peak']})\n")
    out.write(f"  admission: busy={admission['rejected_busy']} "
              f"draining={admission['rejected_draining']} "
              f"deadline={admission['deadline_expired']} "
              f"bad={admission['bad_requests']} "
              f"internal={admission['internal_errors']}\n")
    out.write(f"  supervision: "
              f"pool_rebuilds={supervision.get('pool_rebuilds', 0)} "
              f"requeued={supervision.get('requeued', 0)}\n")
    out.write(f"  cache: {cache['hits']}/{cache['lookups']} hits "
              f"({cache['hit_rate']:.0%})\n")
    out.write(f"  latency: p50={total['p50_s'] * 1e3:.1f}ms "
              f"p90={total['p90_s'] * 1e3:.1f}ms "
              f"p99={total['p99_s'] * 1e3:.1f}ms "
              f"over {total['count']} requests\n")


def command_request(args, out):
    import json

    from repro.service import ServiceClient

    options = {}
    if args.hardened:
        options["hardened"] = True
    options = options or None

    def dump(payload):
        out.write(json.dumps(payload, indent=2, sort_keys=True))
        out.write("\n")

    with ServiceClient(args.host, args.port, timeout_s=args.timeout) as client:
        if args.action == "ping":
            response = client.ping()
            if args.json:
                dump(response)
            else:
                out.write(f"pong from {args.host}:{args.port} "
                          f"({response['protocol']})\n")
        elif args.action == "status":
            status = client.status()
            if args.json:
                dump(status)
            else:
                format_status(status, out)
        elif args.action == "drain":
            response = client.drain()
            if args.json:
                dump(response)
            elif "shards" in response:  # fleet router
                outcomes = ", ".join(
                    f"{name}: {outcome}"
                    for name, outcome in sorted(response["shards"].items()))
                out.write(f"fleet drained: {response['completed']} "
                          f"completed ({outcomes})\n")
            else:
                out.write(f"drained: {response['completed']} completed, "
                          f"{response['failed']} failed\n")
        elif args.action == "compile":
            if not args.paths:
                raise ReproError(
                    "request compile needs at least one source file")
            failed = 0
            for path in args.paths:
                result = client.compile(read_source(path), name=path,
                                        deadline_s=args.deadline,
                                        options=options)
                if args.json:
                    dump(result)
                elif result["ok"]:
                    out.write(result["annotated_source"])
                    line = (f"! {result['reads']} read and "
                            f"{result['writes']} write placements")
                    if result.get("rung"):
                        line += f" [rung={result['rung']}]"
                    if result.get("cache_hit"):
                        line += " [cached]"
                    out.write(line + "\n")
                else:
                    failed += 1
                    out.write(f"{path}: error: {result['error']}\n")
            return 1 if failed else 0
        else:  # batch
            sources = collect_sources(args.paths)
            response = client.batch(sources, deadline_s=args.deadline,
                                    options=options)
            if args.json:
                dump(response)
                return 1 if response["error_count"] else 0
            for program in response["results"]:
                if program["ok"]:
                    line = (f"{program['name']}: reads={program['reads']} "
                            f"writes={program['writes']}")
                    if program["cache_hit"]:
                        line += " [cached]"
                    if program.get("rung"):
                        line += f" [rung={program['rung']}]"
                else:
                    line = f"{program['name']}: error: {program['error']}"
                out.write(line + "\n")
            out.write(f"{response['ok_count']}/{len(response['results'])} "
                      f"programs ok, {response['cache_hits']} cache hits\n")
            return 1 if response["error_count"] else 0


def command_explain(args, out):
    from repro.core.report import solution_report

    result = generate_communication(read_source(args.file))
    if args.problem in ("read", "both"):
        out.write(solution_report(result.analyzed, result.read_problem,
                                  result.read_solution, result.read_placement,
                                  title="READ problem (BEFORE)"))
    if args.problem in ("write", "both"):
        out.write(solution_report(result.analyzed, result.write_problem,
                                  result.write_solution,
                                  result.write_placement,
                                  title="WRITE problem (AFTER)"))


COMMANDS = {
    "annotate": command_annotate,
    "graph": command_graph,
    "simulate": command_simulate,
    "profile": command_profile,
    "pre": command_pre,
    "batch": command_batch,
    "delta": command_delta,
    "serve": command_serve,
    "fleet": command_fleet,
    "request": command_request,
    "explain": command_explain,
}


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        status = COMMANDS[args.command](args, out)
    except (ReproError, OSError) as error:
        # one-line message, no traceback, exit status 2 (argparse's own
        # usage errors use the same status)
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0 if status is None else status


if __name__ == "__main__":
    sys.exit(main())
