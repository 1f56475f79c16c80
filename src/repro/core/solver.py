"""The reference kernel of algorithm *GiveNTake*, and :func:`solve`.

:class:`GiveNTakeSolver` runs the Figure 15 driver
(:class:`~repro.core.sweep.GiveNTake`) by evaluating the paper's
equations one node at a time (:mod:`repro.core.equations`) against the
view's per-node protocol.  It is the readable differential oracle of the
planned kernel (:mod:`repro.core.kernel`), which :func:`solve` runs by
default.

The solver is direction-agnostic: pass a
:class:`~repro.graph.views.ForwardView` for BEFORE problems or a
:class:`~repro.graph.views.BackwardView` for AFTER problems.

When a tracing collector is active (``repro.obs``), the reference
kernel counts every equation evaluation as it happens, keyed by the
paper's equation numbers; without one the hot path only pays an
``is None`` test per equation.
"""

from repro.core import equations as eq
from repro.core.kernel.planned import PlannedSolver
from repro.core.problem import Direction
from repro.core.sweep import GiveNTake
from repro.graph.views import cached_view
from repro.util.errors import SolverError

#: Backend :func:`solve` uses when none is requested.  ``"planned"``
#: runs the compiled-schedule kernel (``repro.core.kernel``);
#: ``"reference"`` runs :class:`GiveNTakeSolver`, the differential
#: oracle.  Both are bit-identical for all fifteen variables.
DEFAULT_BACKEND = "planned"

#: Equations 1–8 in S1's order, as (variable, equation).
_S1 = (
    ("STEAL", eq.eq1_steal),
    ("GIVE", eq.eq2_give),
    ("BLOCK", eq.eq3_block),
    ("TAKEN_out", eq.eq4_taken_out),
    ("TAKE", eq.eq5_take),
    ("TAKEN_in", eq.eq6_taken_in),
    ("BLOCK_loc", eq.eq7_block_loc),
    ("TAKE_loc", eq.eq8_take_loc),
)


class GiveNTakeSolver(GiveNTake):
    """The reference kernel; :func:`solve` with ``backend="reference"``
    is the usual entry point (``max_rounds`` as in
    :class:`~repro.core.sweep.GiveNTake`)."""

    backend = "reference"

    def __init__(self, view, problem, max_rounds=None):
        super().__init__(view, problem, max_rounds)
        self._eq_counts = {} if self._obs.enabled else None

    def _equation_counts(self):
        return self._eq_counts

    def _consume(self):
        """One REVERSEPREORDER S1/S2 sweep, counting each evaluation;
        returns whether anything changed."""
        counts = self._eq_counts
        view, problem, sol = self.view, self.problem, self.solution
        changed = False
        numbers = eq.EQUATION_NUMBERS

        def put(name, node, bits):
            nonlocal changed
            if counts is not None:
                number = numbers[name]
                counts[number] = counts.get(number, 0) + 1
            if sol.bits(name, node) != bits:
                sol.set_bits(name, node, bits)
                changed = True

        for n in view.nodes_reverse_preorder():
            for c in view.children(n):
                put("GIVE_loc", c, eq.eq9_give_loc(problem, view, sol, c))
                put("STEAL_loc", c, eq.eq10_steal_loc(problem, view, sol, c))
            for name, equation in _S1:
                put(name, n, equation(problem, view, sol, n))
        return changed

    def _consumption_converged(self):
        """Whether another S1/S2 sweep would change anything — computed
        *without* writing to the solution.

        The stored state is a fixpoint exactly when every equation,
        evaluated against it, reproduces its stored value; the first
        mismatch short-circuits.  Unlike :meth:`_consume`, evaluations
        here do not count toward the per-equation totals (they are a
        check, not part of the elimination order).
        """
        view, problem, sol = self.view, self.problem, self.solution
        for n in view.nodes_reverse_preorder():
            for c in view.children(n):
                if sol.bits("GIVE_loc", c) != eq.eq9_give_loc(
                        problem, view, sol, c):
                    return False
                if sol.bits("STEAL_loc", c) != eq.eq10_steal_loc(
                        problem, view, sol, c):
                    return False
            for name, equation in _S1:
                if sol.bits(name, n) != equation(problem, view, sol, n):
                    return False
        return True

    def _produce(self, timing):
        view, problem, sol = self.view, self.problem, self.solution
        root = view.root
        nodes = view.nodes_preorder()
        self._count_per_node((11, 12, 13), len(nodes))
        for n in nodes:
            sol.set_bits(
                "GIVEN_in", n, eq.eq11_given_in(problem, view, sol, n, timing), timing
            )
            sol.set_bits(
                "GIVEN", n, eq.eq12_given(problem, view, sol, n, timing, root), timing
            )
            sol.set_bits(
                "GIVEN_out", n, eq.eq13_given_out(problem, view, sol, n, timing), timing
            )

    def _results(self, timing):
        view, problem, sol = self.view, self.problem, self.solution
        nodes = view.nodes_preorder()
        self._count_per_node((14, 15), len(nodes))
        for n in nodes:
            sol.set_bits(
                "RES_in", n, eq.eq14_res_in(problem, view, sol, n, timing), timing
            )
            sol.set_bits(
                "RES_out", n, eq.eq15_res_out(problem, view, sol, n, timing), timing
            )

    def _count_per_node(self, numbers, nodes):
        """S3/S4 evaluate each equation exactly once per node, so their
        totals are uniform: add them per sweep, not per node."""
        counts = self._eq_counts
        if counts is not None:
            for number in numbers:
                counts[number] = counts.get(number, 0) + nodes


def make_view(ifg, direction):
    """The (per-graph cached) view matching a problem direction."""
    if direction is Direction.BEFORE:
        return cached_view(ifg, "before")
    if direction is Direction.AFTER:
        return cached_view(ifg, "after")
    raise SolverError(f"unknown direction {direction!r}")


def solve(ifg, problem, view=None, max_rounds=None, backend=None):
    """Solve ``problem`` on interval flow graph ``ifg``.

    Returns the :class:`~repro.core.solution.Solution` holding all
    dataflow variables, including the EAGER and LAZY result variables;
    both backends write the same store, bit-identical
    (``docs/scaling.md``).  ``max_rounds`` caps the backward consumption
    iteration (see :class:`~repro.core.sweep.GiveNTake`); the default is
    the natural bound.
    """
    if view is None:
        view = make_view(ifg, problem.direction)
    if backend is None:
        backend = DEFAULT_BACKEND
    if backend == "planned":
        return PlannedSolver(view, problem, max_rounds=max_rounds).run()
    if backend == "reference":
        return GiveNTakeSolver(view, problem, max_rounds=max_rounds).run()
    raise SolverError(f"unknown solver backend {backend!r}")
