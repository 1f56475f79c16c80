"""End-to-end integration tests on larger realistic programs.

Every program runs through the complete pipeline (parse → graph →
problems → solve → postpass → annotate), the placements are validated
with the all-paths checker, and the annotated program is executed on
the simulator (which itself raises on unmatched receives — a second,
independent balance check along the executed path).
"""

import pytest

from repro import (
    ConditionPolicy,
    MachineModel,
    check_placement,
    generate_communication,
    naive_communication,
    simulate,
)

PROGRAMS = {
    "two-phase gather/scatter": """
real x(1000)
real y(1000)
integer idx(1000)
distribute x(block)
distribute y(block)
    do t = 1, steps
        do i = 1, n
            y(i) = x(idx(i))
        enddo
        do j = 1, n
            x(j) = y(j)
        enddo
    enddo
""",
    "branchy kernel": """
real x(1000)
distribute x(block)
    do i = 1, n
        if test(i) then
            u = x(i)
        else
            w = x(i + 1)
        endif
    enddo
    if cond then
        do k = 1, n
            v = x(k)
        enddo
    endif
""",
    "nested loops with early exit": """
real x(1000)
distribute x(block)
    do i = 1, n
        do j = 1, n
            u = x(j)
            if test(j) goto 50
        enddo
    enddo
50  w = x(1)
""",
    "reduction plus reads": """
real acc(1000)
real x(1000)
integer e(1000)
distribute acc(block)
distribute x(block)
    do k = 1, n
        acc(e(k)) = acc(e(k)) + x(k)
    enddo
    do l = 1, n
        u = acc(e(l))
    enddo
""",
    "write then branchy reads": """
real x(1000)
integer a(1000)
distribute x(block)
    do i = 1, n
        x(a(i)) = ...
    enddo
    if c1 then
        do j = 1, n
            u = x(j)
        enddo
    else
        if c2 then
            w = x(5)
        endif
    endif
""",
}


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_pipeline_placements_check_out(name):
    source = PROGRAMS[name]
    result = generate_communication(source)
    for problem, placement in (
        (result.read_problem, result.read_placement),
        (result.write_problem, result.write_placement),
    ):
        report = check_placement(result.analyzed.ifg, problem, placement,
                                 min_trips=1)
        assert report.ok(ignore=("safety", "redundant")), f"{name}: {report}"
        all_paths = check_placement(result.analyzed.ifg, problem, placement)
        assert not all_paths.by_kind("balance"), f"{name}: {all_paths}"


@pytest.mark.parametrize("name", list(PROGRAMS))
@pytest.mark.parametrize("branch", ["always", "never", "random"])
def test_pipeline_simulates_cleanly(name, branch):
    source = PROGRAMS[name]
    result = generate_communication(source)
    machine = MachineModel(latency=50, time_per_element=1, message_overhead=5)
    bindings = {"n": 16, "steps": 3}
    # the simulator raises on receive-without-send: executing IS a check
    metrics = simulate(result.annotated_program, machine, bindings,
                       ConditionPolicy(branch, seed=7))
    assert metrics.work_time > 0


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_gnt_beats_naive_on_full_trips(name):
    # branch="never": loops run to completion (no early exits) — the
    # regime vectorized communication is optimized for.
    source = PROGRAMS[name]
    gnt = generate_communication(source)
    naive = naive_communication(source)
    machine = MachineModel(latency=50, time_per_element=1, message_overhead=5)
    bindings = {"n": 16, "steps": 3}
    gnt_metrics = simulate(gnt.annotated_program, machine, bindings,
                           ConditionPolicy("never"))
    naive_metrics = simulate(naive.annotated_program, machine, bindings,
                             ConditionPolicy("never"))
    assert gnt_metrics.messages <= naive_metrics.messages, name
    assert gnt_metrics.total_time <= naive_metrics.total_time, name


def test_early_exit_overcommunication_tradeoff():
    """When an always-taken jump exits the loop on the first iteration,
    the hoisted vectorized READ over-fetches relative to naive
    element-wise communication — the trade the paper accepts for
    communication (§2: 'we generally rather accept the risk of slight
    overcommunication than not hoist')."""
    source = PROGRAMS["nested loops with early exit"]
    gnt = generate_communication(source)
    naive = naive_communication(source)
    machine = MachineModel(latency=50, time_per_element=1, message_overhead=5)
    bindings = {"n": 16}
    gnt_metrics = simulate(gnt.annotated_program, machine, bindings,
                           ConditionPolicy("always"))
    naive_metrics = simulate(naive.annotated_program, machine, bindings,
                             ConditionPolicy("always"))
    assert gnt_metrics.volume > naive_metrics.volume   # the over-fetch
    # ... while on full trips GNT wins decisively:
    gnt_full = simulate(generate_communication(source).annotated_program,
                        machine, bindings, ConditionPolicy("never"))
    naive_full = simulate(naive_communication(source).annotated_program,
                          machine, bindings, ConditionPolicy("never"))
    assert gnt_full.total_time < naive_full.total_time / 5


def test_annotated_output_reparses():
    """The annotated text (minus the comm statements) must still be a
    valid program — printer/annotator produce well-formed structure."""
    from repro.lang.parser import parse

    for name, source in PROGRAMS.items():
        result = generate_communication(source)
        text = result.annotated_source()
        stripped = "\n".join(
            line for line in text.splitlines()
            if not line.strip().lstrip("0123456789 ").startswith(
                ("READ", "WRITE", "PREFETCH", "WAIT"))
        )
        parse(stripped)  # must not raise


def test_owner_computes_variant_checks_out():
    for name, source in PROGRAMS.items():
        result = generate_communication(source, owner_computes=True)
        assert "WRITE" not in result.annotated_source(), name
        report = check_placement(result.analyzed.ifg, result.read_problem,
                                 result.read_placement,
                                 min_trips=1)
        assert report.ok(ignore=("safety", "redundant")), f"{name}: {report}"
