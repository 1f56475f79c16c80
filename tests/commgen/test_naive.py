"""Naive baseline tests."""

from repro.commgen import naive_communication
from repro.testing.programs import FIG1_SOURCE, FIG11_SOURCE


def test_naive_reads_inside_loops():
    result = naive_communication(FIG1_SOURCE)
    text = result.annotated_source()
    lines = [line.strip() for line in text.splitlines()]
    k_index = lines.index("do k = 1, n")
    # the send/recv pair sits inside the loop, element-wise
    assert lines[k_index + 1] == "READ_Send{x(a(k))}"
    assert lines[k_index + 2] == "READ_Recv{x(a(k))}"


def test_naive_writes_after_defs():
    result = naive_communication(FIG11_SOURCE)
    lines = [line.strip() for line in result.annotated_source().splitlines()]
    def_index = lines.index("y(a(i)) = ...")
    assert lines[def_index + 1] == "WRITE_Send{y(a(i))}"
    assert lines[def_index + 2] == "WRITE_Recv{y(a(i))}"


def test_naive_ignores_replicated_arrays():
    result = naive_communication("real x(10)\nu = x(1)")
    assert "READ" not in result.annotated_source()


def test_naive_message_count_scales_with_trips():
    from repro.machine import ConditionPolicy, simulate

    result = naive_communication(FIG1_SOURCE)
    for n in (4, 16):
        metrics = simulate(result.annotated_program, bindings={"n": n},
                           policy=ConditionPolicy("always"))
        assert metrics.messages == n  # one per iteration of the k loop


def test_naive_communication_survives_a_jump_to_a_labeled_reference():
    """A ``goto`` to the referencing statement's label must run its
    send/recv pair too: the label moves onto the send."""
    from repro.machine import ConditionPolicy, simulate

    source = "\n".join([
        "real x(100)",
        "integer a(100)",
        "integer t(100)",
        "distribute x(block)",
        "do i = 1, n",
        "    if t(i) goto 10",
        "    y = 1",
        "10  u = x(a(i))",
        "enddo",
    ])
    result = naive_communication(source)
    lines = [line.strip() for line in result.annotated_source().splitlines()]
    send = lines.index("10      READ_Send{x(a(i))}")
    assert lines[send + 1:send + 3] == ["READ_Recv{x(a(i))}", "u = x(a(i))"]
    for policy in ("always", "never"):
        metrics = simulate(result.annotated_program, bindings={"n": 4},
                           policy=ConditionPolicy(policy))
        assert metrics.messages == 4, policy
