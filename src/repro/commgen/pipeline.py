"""The end-to-end communication generation pipeline.

The pipeline has two phases with very different mutation behavior:

* :func:`prepare_communication` — parse, build/normalize the flow
  graph, collect accesses, build and solve both GIVE-N-TAKE problems,
  run the synthetic-node post-pass.  Nothing here mutates the program
  AST, so the resulting :class:`PreparedCommunication` is the state the
  batch layer's content-addressed cache stores (``repro.batch``).
* :func:`annotate_prepared` — splice the solved placements into the
  AST as READ/WRITE statements.  This *mutates* ``analyzed.program`` in
  place, which is exactly why cached state must be snapshotted before
  this phase runs.

:func:`generate_communication` chains the two, preserving the original
one-call API.
"""

from repro.analysis.ownership import OwnershipModel
from repro.analysis.references import collect_accesses
from repro.commgen.annotate import Annotator
from repro.commgen.problems import build_read_problem, build_write_problem
from repro.core.placement import Placement
from repro.core.postpass import shift_synthetic_productions
from repro.core.solver import solve
from repro.lang.parser import parse
from repro.lang.printer import format_program
from repro.lang.symbols import SymbolTable
from repro.testing.programs import AnalyzedProgram


class PreparedCommunication:
    """Everything the pipeline computed *before* annotation.

    The contained ``analyzed.program`` AST is still pristine — no
    communication statements have been spliced in — so this object is
    safe to serialize and reuse (each reuse must still work on a private
    copy, since :func:`annotate_prepared` mutates it)."""

    def __init__(self, analyzed, symbols, accesses, read_problem,
                 read_solution, read_placement, write_problem,
                 write_solution, write_placement):
        self.analyzed = analyzed
        self.symbols = symbols
        self.accesses = accesses
        self.read_problem = read_problem
        self.read_solution = read_solution
        self.read_placement = read_placement
        self.write_problem = write_problem
        self.write_solution = write_solution
        self.write_placement = write_placement


class CommunicationResult:
    """Everything the pipeline produced for one program."""

    def __init__(self, analyzed, symbols, accesses, read_problem,
                 read_solution, read_placement, write_problem,
                 write_solution, write_placement):
        self.analyzed = analyzed
        self.symbols = symbols
        self.accesses = accesses
        self.read_problem = read_problem
        self.read_solution = read_solution
        self.read_placement = read_placement
        self.write_problem = write_problem
        self.write_solution = write_solution
        self.write_placement = write_placement
        self._annotated_text = None

    @property
    def annotated_program(self):
        """The (mutated) AST with communication statements spliced in."""
        return self.analyzed.program

    def annotated_source(self):
        """The annotated program as source text."""
        if self._annotated_text is None:
            self._annotated_text = format_program(self.analyzed.program)
        return self._annotated_text

    def communication_count(self):
        """(reads, writes) placement counts — production sites, before
        vectorization multiplies anything by trip counts."""
        return (self.read_placement.production_count(),
                self.write_placement.production_count())


def prepare_communication(source, owner_computes=False, postpass=True,
                          hoist_zero_trip=True, after_jumps="optimistic",
                          refine_sections=True, split_irreducible=False,
                          max_splits=None, solver_rounds=None,
                          solver_backend=None, memo=None):
    """Run everything up to (but excluding) annotation; return a
    :class:`PreparedCommunication`.

    ``source`` may be source text, a parsed Program, or an already
    analyzed :class:`~repro.testing.programs.AnalyzedProgram` (the batch
    layer reuses cached frontends this way).  Parameter semantics match
    :func:`generate_communication`.

    All solves on one graph — the READ solve and up to two WRITE solves
    — share one forward and one backward compiled
    :class:`~repro.core.kernel.plan.SolverPlan` (cached on the graph, so
    it also survives into the batch layer's pipeline-cache snapshots).

    ``memo`` — an optional
    :class:`~repro.core.kernel.incremental.IncrementalSolveMemo`: every
    solve (and the optimistic write-check verdict) is replayed from the
    memo's content-addressed cache when possible and recorded into it
    otherwise, turning an edit recompile into work proportional to the
    changed intervals.  Results are bit-identical with or without it.
    """
    if isinstance(source, AnalyzedProgram):
        analyzed = source
    else:
        program = parse(source) if isinstance(source, str) else source
        analyzed = AnalyzedProgram(program,
                                   split_irreducible=split_irreducible,
                                   max_splits=max_splits)
    symbols = SymbolTable.from_program(analyzed.program)
    ownership = OwnershipModel(symbols, owner_computes=owner_computes)
    accesses, _ = collect_accesses(analyzed, symbols)

    read_problem = build_read_problem(accesses, ownership,
                                      refine=refine_sections)
    read_problem.hoist_zero_trip = hoist_zero_trip
    read_problem.freeze()
    read_solution = _solve(analyzed.ifg, read_problem, None, solver_rounds,
                           solver_backend, memo)
    read_placement = Placement(analyzed.ifg, read_problem, read_solution)

    if postpass:
        shift_synthetic_productions(read_placement)

    write_problem = build_write_problem(accesses, ownership,
                                        read_placement=read_placement,
                                        refine=refine_sections)
    write_problem.hoist_zero_trip = hoist_zero_trip
    write_problem.freeze()
    write_solution, write_placement = _solve_write(
        analyzed, write_problem, after_jumps, solver_rounds, solver_backend,
        memo)

    if postpass:
        shift_synthetic_productions(write_placement)

    return PreparedCommunication(
        analyzed, symbols, accesses,
        read_problem, read_solution, read_placement,
        write_problem, write_solution, write_placement,
    )


def annotate_prepared(prepared, split_messages=True):
    """Splice ``prepared``'s placements into its program AST and return
    the :class:`CommunicationResult`.

    This mutates ``prepared.analyzed.program`` in place — never feed it
    a :class:`PreparedCommunication` that something else still needs in
    pristine form (the batch cache hands out private copies for exactly
    this reason)."""
    annotator = Annotator(prepared.analyzed)
    # WRITEs first so that at shared points data is written back before
    # a READ fetches it (Figure 3's then branch ordering).
    annotator.apply(prepared.write_placement, "write",
                    atomic=not split_messages,
                    reduce_ops=getattr(prepared.write_problem,
                                       "reduction_ops", {}))
    annotator.apply(prepared.read_placement, "read",
                    atomic=not split_messages)

    return CommunicationResult(
        prepared.analyzed, prepared.symbols, prepared.accesses,
        prepared.read_problem, prepared.read_solution,
        prepared.read_placement, prepared.write_problem,
        prepared.write_solution, prepared.write_placement,
    )


def generate_communication(source, owner_computes=False, split_messages=True,
                           postpass=True, hoist_zero_trip=True,
                           after_jumps="optimistic", refine_sections=True,
                           split_irreducible=False, max_splits=None,
                           solver_rounds=None, solver_backend=None):
    """Compile ``source`` (mini-Fortran text or a parsed Program) into an
    annotated program with balanced READ/WRITE placement.

    * ``owner_computes`` — strict owner-computes rule: no WRITE problem
      and no give-for-free coupling (§2);
    * ``split_messages=False`` — place atomic READ/WRITE operations (the
      LAZY solutions) instead of send/recv pairs (§6);
    * ``postpass`` — shift production off synthetic nodes where a
      conflict-free neighbor exists (§5.4);
    * ``hoist_zero_trip`` — hoist communication out of potentially
      zero-trip loops (§4.1; the paper's default for communication);
    * ``after_jumps`` — how the WRITE (AFTER) problem treats loops that
      jumps leave (§5.3): ``"conservative"`` always blocks production
      regions at their boundary; ``"optimistic"`` (default) first solves
      without blocking, keeps the result when the checker confirms
      balance and sufficiency on every path (this reproduces Figure 14's
      hoisted write placement), and falls back to the conservative
      solution otherwise.
      The optimistic retry is the "more thorough treatment of jumps out
      of loops for AFTER problems" the paper lists as an extension (§6);
    * ``refine_sections`` — prove symbolic disjointness of sections when
      computing steals (the §6 dependence-analysis refinement); disable
      for the fully conservative instance;
    * ``split_irreducible`` — repair irreducible control flow by node
      splitting (§3.3, [CM69]) instead of raising
      :class:`~repro.util.errors.IrreducibleGraphError`;
    * ``solver_rounds`` — iteration guard on the solver's backward
      consumption fixpoint (see :func:`repro.core.solver.solve`);
    * ``solver_backend`` — ``"planned"`` (compiled schedules, the
      default) or ``"reference"`` (the original per-equation solver);
      bit-identical (``docs/scaling.md``).
    """
    prepared = prepare_communication(
        source,
        owner_computes=owner_computes,
        postpass=postpass,
        hoist_zero_trip=hoist_zero_trip,
        after_jumps=after_jumps,
        refine_sections=refine_sections,
        split_irreducible=split_irreducible,
        max_splits=max_splits,
        solver_rounds=solver_rounds,
        solver_backend=solver_backend,
    )
    return annotate_prepared(prepared, split_messages=split_messages)


def _solve(ifg, problem, view, solver_rounds, solver_backend, memo):
    """One solve, replayed through ``memo`` when it applies to the
    requested backend (the reference oracle always computes fresh)."""
    if memo is not None and memo.applies(solver_backend):
        return memo.solve(ifg, problem, view=view, max_rounds=solver_rounds)
    return solve(ifg, problem, view=view, max_rounds=solver_rounds,
                 backend=solver_backend)


def _solve_write(analyzed, write_problem, after_jumps, solver_rounds=None,
                 solver_backend=None, memo=None):
    """Solve the AFTER problem per the requested jump treatment."""
    from repro.core.checker import check_placement_dual
    from repro.graph.views import cached_view

    has_jumps = bool(analyzed.ifg.jump_edges())
    if after_jumps == "optimistic" and has_jumps and write_problem.annotated_nodes():
        view = cached_view(analyzed.ifg, "after", blocked=False)
        solution = _solve(analyzed.ifg, write_problem, view, solver_rounds,
                          solver_backend, memo)
        placement = Placement(analyzed.ifg, write_problem, solution)
        accept = None
        if memo is not None and memo.applies(solver_backend):
            # The check's verdict is a pure function of (graph, problem,
            # solution) — the same contents the solve key addresses — so
            # a warm delta replays the verdict instead of re-checking.
            accept = memo.write_verdict(analyzed.ifg, write_problem, view,
                                        solver_rounds)
        if accept is None:
            # Balance over every path, sufficiency over the paths on
            # which each entered loop runs at least once.
            full, min_trip = check_placement_dual(
                analyzed.ifg, write_problem, placement)
            balanced = not full.by_kind("balance")
            sufficient = min_trip.ok(ignore=("safety", "redundant"))
            accept = balanced and sufficient
            if memo is not None and memo.applies(solver_backend):
                memo.store_write_verdict(analyzed.ifg, write_problem, view,
                                         solver_rounds, accept)
        if accept:
            return solution, placement
    solution = _solve(analyzed.ifg, write_problem, None, solver_rounds,
                      solver_backend, memo)
    return solution, Placement(analyzed.ifg, write_problem, solution)
