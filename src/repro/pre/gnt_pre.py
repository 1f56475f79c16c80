"""PRE via GIVE-N-TAKE.

Classical PRE is a LAZY, BEFORE instance of the framework (§1): the LAZY
solution gives the single evaluation points classical PRE would insert,
while the EAGER solution additionally marks the earliest points the
operands are ready — the production *region* in between is what makes
GIVE-N-TAKE useful for latency hiding (e.g. issuing a prefetch at the
EAGER point and using the value at the LAZY point).
"""

from repro.core.placement import Placement
from repro.core.solver import solve


def gnt_pre_placement(ifg, problem):
    """Solve a PRE instance with GIVE-N-TAKE; return the placement."""
    solution = solve(ifg, problem)
    return Placement(ifg, problem, solution)


def lazy_insertion_nodes(placement, element):
    """The LAZY production sites of ``element`` — comparable to
    LCM/Morel-Renvoise insertion points."""
    from repro.core.problem import Timing

    return [
        production.node
        for production in placement.productions(Timing.LAZY)
        if element in production.elements
    ]


def evaluations_on_path(placement, problem, path, ifg):
    """How many productions (expression evaluations) the LAZY solution
    executes along ``path`` — the dynamic cost PRE minimizes.  The
    productions fire where :func:`~repro.core.paths.production_walk`
    says, as in the checker's path replay."""
    from repro.core.paths import production_walk
    from repro.core.problem import Timing

    count = 0
    for node, on_arrival, on_departure in production_walk(
            ifg, path, problem.direction):
        for position in (on_arrival, on_departure):
            if position is not None:
                bits = placement.bits_at(node, position, Timing.LAZY)
                count += bin(bits).count("1")
    return count
