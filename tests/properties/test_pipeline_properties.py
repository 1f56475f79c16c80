"""Pipeline-level fuzzing: random array programs through all three
applications (communication, prefetching, register promotion), validated
by the all-paths checker and executed on the simulator (whose
receive-matching is an independent balance check)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.commgen import generate_communication
from repro.core import check_placement
from repro.lang.printer import format_program
from repro.machine import ConditionPolicy, MachineModel, simulate
from repro.prefetch import generate_prefetches
from repro.regpromo import promote_registers
from repro.testing.generator import ArrayProgramGenerator

SETTINGS = dict(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

seeds = st.integers(min_value=0, max_value=10_000)


def program_source(seed):
    return format_program(ArrayProgramGenerator(seed).program(14))


def assert_placements_ok(result, pairs):
    for problem, placement in pairs:
        report = check_placement(result.analyzed.ifg, problem, placement,
                                 min_trips=1)
        hard = [v for v in report.violations
                if v.kind not in ("safety", "redundant")]
        assert not hard, str(report)
        balance = check_placement(result.analyzed.ifg, problem,
                                  placement).by_kind("balance")
        assert not balance


@settings(**SETTINGS)
@given(seeds)
def test_commgen_on_random_array_programs(seed):
    source = program_source(seed)
    result = generate_communication(source)
    assert_placements_ok(result, [
        (result.read_problem, result.read_placement),
        (result.write_problem, result.write_placement),
    ])
    # executing the annotated program is an independent balance check:
    # the simulator raises on a receive without a matching send
    simulate(result.annotated_program, MachineModel(), {"n": 5},
             ConditionPolicy("random", seed=seed))


@settings(**SETTINGS)
@given(seeds)
def test_prefetch_on_random_array_programs(seed):
    source = program_source(seed)
    result = generate_prefetches(source)
    assert_placements_ok(result, [(result.problem, result.placement)])


@settings(**SETTINGS)
@given(seeds)
def test_regpromo_on_random_array_programs(seed):
    source = program_source(seed)
    result = promote_registers(source)
    assert_placements_ok(result, [
        (result.load_problem, result.load_placement),
        (result.store_problem, result.store_placement),
    ])


@settings(**SETTINGS)
@given(seeds)
def test_pipeline_is_deterministic(seed):
    source = program_source(seed)
    first = generate_communication(source).annotated_source()
    second = generate_communication(source).annotated_source()
    assert first == second
