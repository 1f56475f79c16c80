"""The end-to-end communication generation pipeline.

:func:`generate_communication` is the one entry: parse, build and
normalize the flow graph, collect accesses, build and solve both
GIVE-N-TAKE problems, run the synthetic-node post-pass, then splice the
placements into the program AST as READ/WRITE statements.  The splice
*mutates* the AST in place: text is parsed privately, but a Program or
:class:`~repro.testing.programs.AnalyzedProgram` passed in comes back
annotated.
"""

from repro.analysis.ownership import OwnershipModel
from repro.analysis.references import collect_accesses
from repro.commgen.annotate import Annotator
from repro.commgen.problems import build_read_problem, build_write_problem
from repro.core.placement import Placement
from repro.core.postpass import shift_synthetic_productions
from repro.core.solver import solve
from repro.graph.views import cached_view
from repro.lang.parser import parse
from repro.lang.printer import format_program
from repro.lang.symbols import SymbolTable
from repro.testing.programs import AnalyzedProgram


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


def generate_communication(source, owner_computes=False, split_messages=True,
                           postpass=True, hoist_zero_trip=True,
                           after_jumps="optimistic", refine_sections=True,
                           split_irreducible=False, max_splits=None,
                           solver_rounds=None, solver_backend=None):
    """Compile ``source`` into an annotated program with balanced
    READ/WRITE placement; return a :class:`CommunicationResult`.

    ``source`` may be mini-Fortran text, a parsed Program, or an
    already analyzed :class:`~repro.testing.programs.AnalyzedProgram`
    (the batch layer builds the frontend first, outside any trace
    scope); the last two are annotated in place, and the frontend
    options ``split_irreducible``/``max_splits`` apply only to text and
    Programs.

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
      without blocking, keeps the result when
      :func:`~repro.core.checker.certify_placement` confirms balance and
      sufficiency (this reproduces Figure 14's hoisted write placement),
      and falls back to the conservative solution otherwise.
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

    All solves on one graph — the READ solve and up to two WRITE solves
    — share one forward and one backward compiled
    :class:`~repro.core.kernel.plan.SolverPlan`, cached on the graph.
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
    read_solution = solve(analyzed.ifg, read_problem,
                          max_rounds=solver_rounds, backend=solver_backend)
    read_placement = Placement(analyzed.ifg, read_problem, read_solution)

    if postpass:
        shift_synthetic_productions(read_placement)

    write_problem = build_write_problem(accesses, ownership,
                                        read_placement=read_placement,
                                        refine=refine_sections)
    write_problem.hoist_zero_trip = hoist_zero_trip
    write_problem.freeze()
    write_solution, write_placement = _solve_write(
        analyzed, write_problem, after_jumps, solver_rounds, solver_backend)

    if postpass:
        shift_synthetic_productions(write_placement)

    annotator = Annotator(analyzed)
    # WRITEs first so that at shared points data is written back before
    # a READ fetches it (Figure 3's then branch ordering).
    annotator.apply(write_placement, "write", atomic=not split_messages,
                    reduce_ops=getattr(write_problem, "reduction_ops", {}))
    annotator.apply(read_placement, "read", atomic=not split_messages)

    return CommunicationResult(
        analyzed, symbols, accesses,
        read_problem, read_solution, read_placement,
        write_problem, write_solution, write_placement,
    )


def _solve_write(analyzed, write_problem, after_jumps, solver_rounds=None,
                 solver_backend=None):
    """Solve the AFTER problem per the requested jump treatment."""
    has_jumps = bool(analyzed.ifg.jump_edges())
    if after_jumps == "optimistic" and has_jumps and write_problem.annotated_nodes():
        view = cached_view(analyzed.ifg, "after", blocked=False)
        solution = solve(analyzed.ifg, write_problem, view=view,
                         max_rounds=solver_rounds, backend=solver_backend)
        placement = Placement(analyzed.ifg, write_problem, solution)
        # Only a graph with jump edges certifies, so only such a compile
        # loads the checker.
        from repro.core.checker import certify_placement

        if certify_placement(analyzed.ifg, write_problem, placement).ok():
            return solution, placement
    solution = solve(analyzed.ifg, write_problem, max_rounds=solver_rounds,
                     backend=solver_backend)
    return solution, Placement(analyzed.ifg, write_problem, solution)
