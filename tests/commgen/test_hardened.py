"""The self-checking, gracefully degrading pipeline."""

import pytest

from repro.commgen import (
    HardenedPipeline,
    ResourceBudget,
    generate_communication,
)
from repro.commgen.hardened import RUNGS
from repro.core import check_placement
from repro.core.solver import GiveNTakeSolver
from repro.graph.views import ForwardView
from repro.testing.programs import FIG1_SOURCE, FIG3_SOURCE, FIG11_SOURCE
from repro.util.errors import ParseError, SolverBudgetError

IRREDUCIBLE = "if t goto 5\ndo i = 1, n\n5 a = 1\nenddo\n"


def test_well_behaved_program_stays_on_the_top_rung():
    hardened = HardenedPipeline().run(FIG11_SOURCE)
    assert hardened.rung == "balanced"
    assert not hardened.report.degraded
    assert hardened.report.reason is None
    # identical output to the plain pipeline
    plain = generate_communication(FIG11_SOURCE)
    assert hardened.annotated_source() == plain.annotated_source()


@pytest.mark.parametrize("source", [FIG1_SOURCE, FIG3_SOURCE, FIG11_SOURCE])
def test_paper_figures_certify_on_the_chosen_rung(source):
    hardened = HardenedPipeline().run(source)
    attempt = hardened.report.attempts[-1]
    assert attempt.ok
    if hardened.rung != "naive":
        result = hardened.result
        for problem, placement in ((result.read_problem, result.read_placement),
                                   (result.write_problem,
                                    result.write_placement)):
            report = check_placement(result.analyzed.ifg, problem, placement)
            assert not report.by_criterion("C1")


def test_irreducible_input_is_split_not_rejected():
    hardened = HardenedPipeline().run(IRREDUCIBLE)
    report = hardened.report
    assert report.split_irreducible
    assert report.splits  # the duplicated node is named
    assert hardened.annotated_source()  # produced something runnable


def test_parse_errors_still_raise():
    with pytest.raises(ParseError):
        HardenedPipeline().run("do i = 1, n\n")  # missing enddo


def test_report_structure():
    report = HardenedPipeline().run(FIG11_SOURCE).report
    data = report.as_dict()
    assert data["rung"] in RUNGS
    assert isinstance(data["attempts"], list)
    assert all(a["rung"] in RUNGS for a in data["attempts"])
    assert "rung=" in report.summary()


def test_certification_rejects_with_a_witness_past_any_visit_cap(
        monkeypatch):
    """Generator seed 1's program p101: its optimistic WRITE placement
    is insufficient only on paths that visit one node four times, past
    the old checker's three-visit cap.  With the pipeline's own check
    stubbed to accept it, the hardened certification must still reject
    the balanced rung and name a witness path in the reason."""
    import repro.core.checker as checker_mod
    from repro.core.checker import CheckReport
    from repro.lang.printer import format_program
    from repro.testing.generator import ArrayProgramGenerator

    generator = ArrayProgramGenerator(seed=1, max_depth=3,
                                      goto_probability=0.3)
    source = [format_program(generator.program(size=30))
              for _ in range(102)][101]
    # The pipeline looks the check up in the checker at call time; the
    # ladder holds its own binding, which stays the real one.
    monkeypatch.setattr(checker_mod, "certify_placement",
                        lambda *args: CheckReport([]))
    hardened = HardenedPipeline().run(source)
    assert hardened.rung == "conservative"
    rejected = hardened.report.attempts[0]
    assert not rejected.ok
    assert rejected.reason.startswith("checker: [C3/sufficiency]")
    assert "(witness: " in rejected.reason
    assert rejected.checks["write C3"] != "0 violations"
    assert "witness" in hardened.report.summary()


def test_degrades_when_balanced_rung_fails(monkeypatch):
    """Force the top rung to produce an unbalanced placement: the ladder
    must fall through to a rung that certifies instead of raising."""
    import repro.commgen.hardened as hardened_mod

    real = hardened_mod.generate_communication

    def sabotage(source, **kwargs):
        result = real(source, **kwargs)
        if kwargs.get("after_jumps") != "conservative":
            # drop one production: C1 balance now fails on replay
            placement = result.read_placement
            production = placement.productions()[0]
            del placement._bits[(production.node, production.position,
                                 production.timing)]
        return result

    monkeypatch.setattr(hardened_mod, "generate_communication", sabotage)
    hardened = HardenedPipeline().run(FIG11_SOURCE)
    assert hardened.report.degraded
    assert hardened.rung in ("conservative", "naive")
    assert "rejected" in hardened.report.reason
    first = hardened.report.attempts[0]
    assert not first.ok and first.reason.startswith("checker:")


def test_degrades_on_pipeline_exception(monkeypatch):
    import repro.commgen.hardened as hardened_mod
    from repro.util.errors import SolverError

    real = hardened_mod.generate_communication

    def explode(source, **kwargs):
        if kwargs.get("after_jumps") != "conservative":
            raise SolverError("injected failure")
        return real(source, **kwargs)

    monkeypatch.setattr(hardened_mod, "generate_communication", explode)
    hardened = HardenedPipeline().run(FIG11_SOURCE)
    assert hardened.rung == "conservative"
    assert "SolverError" in hardened.report.reason


def test_degrades_all_the_way_to_naive(monkeypatch):
    import repro.commgen.hardened as hardened_mod
    from repro.util.errors import SolverError

    def always_explode(source, **kwargs):
        raise SolverError("nothing works")

    monkeypatch.setattr(hardened_mod, "generate_communication", always_explode)
    hardened = HardenedPipeline().run(FIG11_SOURCE)
    assert hardened.rung == "naive"
    assert hardened.report.degraded
    # the naive rung is balanced by construction and still runnable
    from repro.machine import ConditionPolicy, simulate
    metrics = simulate(hardened.annotated_program, bindings={"n": 4},
                       policy=ConditionPolicy("never"))
    assert metrics.messages > 0


def test_solver_budget_guard_raises_when_not_converged(fig11,
                                                       fig11_read_problem):
    """The iteration guard fires when the fixpoint will not settle
    within the budget (stubbed: a sweep that always reports change)."""

    class IteratingView(ForwardView):
        @property
        def requires_consumption_iteration(self):
            return True

    solver = GiveNTakeSolver(IteratingView(fig11.ifg), fig11_read_problem,
                             max_rounds=2)
    solver._sweep_consumption = lambda: True
    with pytest.raises(SolverBudgetError):
        solver.run()


def test_budget_is_recorded_not_global():
    small = HardenedPipeline(budget=ResourceBudget(solver_rounds=8))
    large = HardenedPipeline(budget=ResourceBudget(solver_rounds=500))
    assert small.budget.solver_rounds == 8
    assert large.budget.solver_rounds == 500
    # both certify Figure 11 on the top rung regardless
    assert small.run(FIG11_SOURCE).rung == "balanced"
    assert large.run(FIG11_SOURCE).rung == "balanced"


def test_owner_computes_mode_supported():
    hardened = HardenedPipeline(owner_computes=True).run(FIG3_SOURCE)
    assert hardened.report.attempts[-1].ok
    assert "WRITE" not in hardened.annotated_source()


def test_accepts_parsed_programs():
    from repro.lang.parser import parse

    hardened = HardenedPipeline().run(parse(FIG11_SOURCE))
    assert hardened.rung == "balanced"


def test_kernel_fault_fails_the_rung_and_the_ladder_steps_down(monkeypatch):
    """A solver-kernel fault is not retried on another backend: every
    solver rung fails with the fault as its reason, and the ladder steps
    down to the naive rung."""
    from repro.core.kernel.planned import PlannedSolver
    from repro.util.errors import SolverError

    def kernel_fault(self):
        raise SolverError("injected kernel fault")

    monkeypatch.setattr(PlannedSolver, "run", kernel_fault)
    hardened = HardenedPipeline().run(FIG11_SOURCE)
    assert hardened.rung == "naive"
    attempts = hardened.report.attempts
    assert tuple(a.rung for a in attempts) == RUNGS
    for attempt in attempts[:-1]:
        assert not attempt.ok
        assert "injected kernel fault" in attempt.reason
    assert "injected kernel fault" in hardened.report.reason
