"""Robustness properties of the hardened pipeline under fault injection.

Random array programs (the same generator the other pipeline property
tests fuzz with) run through :class:`HardenedPipeline` and then execute
on the simulator under a matrix of seeded fault plans.  The properties:

* **determinism** — same program seed + same fault seed ⇒ the identical
  degradation rung and bit-identical metrics;
* **certified rung** — whichever rung the ladder chose passes the §3.2
  checker for C1 (balance) and C3 (sufficiency); for the naive rung —
  balanced by construction — the simulator's receive matching is the
  independent balance check;
* **no unhandled exceptions** — every (program, fault plan) cell of the
  matrix completes once retries are allowed for.

Seeds are fixed (not hypothesis-drawn) so every CI run replays the
exact same fault schedules.
"""

import pytest

from repro.commgen import HardenedPipeline
from repro.core import check_placement
from repro.lang.printer import format_program
from repro.machine import (
    ConditionPolicy,
    FaultPlan,
    MachineModel,
    RetryPolicy,
    simulate,
)
from repro.testing.generator import ArrayProgramGenerator

PROGRAM_SEEDS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55)

FAULT_MATRIX = {
    "drop": FaultPlan(seed=11, drop_probability=0.25),
    "dup": FaultPlan(seed=12, duplicate_probability=0.5),
    "delay": FaultPlan(seed=13, delay_jitter=60.0),
    "crash": FaultPlan(seed=14, crash_probability=0.15, crash_duration=80.0),
    "all": FaultPlan(seed=15, drop_probability=0.2,
                     duplicate_probability=0.2, delay_jitter=40.0,
                     crash_probability=0.1, crash_duration=60.0),
}

RETRY = RetryPolicy(max_retries=32, timeout=200.0)


def program_source(seed):
    return format_program(ArrayProgramGenerator(seed).program(12))


def run_once(source, plan, seed):
    hardened = HardenedPipeline().run(source)
    metrics = simulate(hardened.annotated_program, MachineModel(),
                       {"n": 5}, ConditionPolicy("random", seed=seed),
                       faults=plan, retry=RETRY)
    return hardened, metrics


@pytest.mark.parametrize("seed", PROGRAM_SEEDS)
@pytest.mark.parametrize("fault", sorted(FAULT_MATRIX))
def test_seeded_faults_are_deterministic(seed, fault):
    source = program_source(seed)
    plan = FAULT_MATRIX[fault]
    first_hardened, first_metrics = run_once(source, plan, seed)
    second_hardened, second_metrics = run_once(source, plan, seed)
    assert first_hardened.rung == second_hardened.rung
    assert first_hardened.report.as_dict() == second_hardened.report.as_dict()
    assert first_metrics == second_metrics


@pytest.mark.parametrize("seed", PROGRAM_SEEDS)
def test_chosen_rung_passes_checker(seed):
    source = program_source(seed)
    hardened = HardenedPipeline().run(source)
    assert hardened.report.attempts[-1].ok
    if hardened.rung == "naive":
        return  # balanced by construction; simulator checks pairing below
    result = hardened.result
    for problem, placement in ((result.read_problem, result.read_placement),
                               (result.write_problem,
                                result.write_placement)):
        balance = check_placement(result.analyzed.ifg, problem, placement)
        assert not balance.by_criterion("C1"), balance.summary()
        sufficiency = check_placement(result.analyzed.ifg, problem, placement,
                                      min_trips=1)
        assert not sufficiency.by_criterion("C3"), sufficiency.summary()


@pytest.mark.parametrize("seed", PROGRAM_SEEDS)
@pytest.mark.parametrize("fault", sorted(FAULT_MATRIX))
def test_fault_matrix_completes_without_unhandled_exceptions(seed, fault):
    source = program_source(seed)
    hardened, metrics = run_once(source, FAULT_MATRIX[fault], seed)
    # the run completed: every injected loss was timed out and retried
    # exactly once (a dropped retransmission drops and retries again)
    assert metrics.retries == metrics.timeouts == metrics.dropped_messages
    assert metrics.total_time >= metrics.work_time
