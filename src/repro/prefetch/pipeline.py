"""The prefetch-placement pipeline.

Differences from communication generation:

* *every* declared array participates (the memory hierarchy does not
  care about distribution);
* a load gives its section for later loads (it is cached) — so repeated
  reads of the same section prefetch once;
* a store steals conflicting sections (stale lines) but also gives its
  own section (write-allocate: the stored line is in cache afterwards);
* the placement is emitted as ``PREFETCH{...}`` (the EAGER solution) and
  ``WAIT{...}`` markers (the LAZY solution — where the data must have
  arrived; a real compiler would emit nothing there, we keep the marker
  so the simulator can measure stall time).
"""

from repro.analysis.references import collect_accesses
from repro.commgen.annotate import Annotator
from repro.core.placement import Placement
from repro.core.postpass import shift_synthetic_productions
from repro.core.problem import Direction, Problem
from repro.core.solver import solve
from repro.analysis.sections import section_conflicts
from repro.lang.parser import parse
from repro.lang.printer import format_program
from repro.lang.symbols import SymbolTable
from repro.testing.programs import AnalyzedProgram


class PrefetchResult:
    """Annotated program plus the underlying placement."""

    def __init__(self, analyzed, problem, solution, placement):
        self.analyzed = analyzed
        self.problem = problem
        self.solution = solution
        self.placement = placement

    @property
    def annotated_program(self):
        return self.analyzed.program

    def annotated_source(self):
        return format_program(self.analyzed.program)


def build_prefetch_problem(accesses, symbols, write_allocate=True):
    """The prefetch instance: loads take, stores steal (and give with
    write-allocate), loads give for free (the line is cached)."""
    problem = Problem(direction=Direction.BEFORE)
    descriptors = []
    for access in accesses:
        if access.descriptor not in descriptors:
            descriptors.append(access.descriptor)
            problem.universe.add(access.descriptor)

    for access in accesses:
        if access.is_def:
            for descriptor in descriptors:
                if descriptor == access.descriptor:
                    continue
                if section_conflicts(access.descriptor, descriptor):
                    problem.add_steal(access.node, descriptor)
            if write_allocate:
                problem.add_give(access.node, access.descriptor)
            else:
                problem.add_steal(access.node, access.descriptor)
        else:
            problem.add_take(access.node, access.descriptor)
            # after the demand load the section is cached:
            problem.add_give(access.node, access.descriptor)
    return problem


def generate_prefetches(source, write_allocate=True, postpass=True,
                        hoist_zero_trip=True):
    """Annotate ``source`` with ``PREFETCH``/``WAIT`` markers."""
    program = parse(source) if isinstance(source, str) else source
    analyzed = AnalyzedProgram(program)
    symbols = SymbolTable.from_program(program)
    accesses, _ = collect_accesses(analyzed, symbols)

    problem = build_prefetch_problem(accesses, symbols, write_allocate)
    problem.hoist_zero_trip = hoist_zero_trip
    solution = solve(analyzed.ifg, problem)
    placement = Placement(analyzed.ifg, problem, solution)
    if postpass:
        shift_synthetic_productions(placement)

    annotator = Annotator(analyzed)
    annotator.apply(placement, "prefetch", one_per_section=True)
    return PrefetchResult(analyzed, problem, solution, placement)
