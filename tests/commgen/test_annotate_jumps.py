"""Annotation around jumps, checked by simulating the annotated program.

Each program is a minimized generator program (or the smallest shape of
one) whose annotation left a send without its receive, ran a receive
without a send, or crashed the annotator.  The placements themselves
were balanced; only their mapping back into the AST was wrong.
"""

from repro.commgen import generate_communication
from repro.machine.executor import ConditionPolicy, Simulator


def annotated(source):
    result = generate_communication(source)
    lines = [line.rstrip() for line in result.annotated_source().splitlines()]
    return result, lines


def simulate(result, policy):
    """Run the annotated program; return its still-outstanding sends."""
    simulator = Simulator(result.annotated_program, bindings={"n": 3},
                          policy=policy)
    simulator.run()
    return simulator.machine_state()["outstanding"]


def policies(always=True):
    """Both fixed branch policies and a few seeded random ones.  A
    backward ``goto`` never terminates under ``always``."""
    fixed = ["always", "never"] if always else ["never"]
    return ([ConditionPolicy(mode) for mode in fixed]
            + [ConditionPolicy("random", seed=seed) for seed in range(8)])


def assert_balanced(result, always=True):
    for policy in policies(always):
        assert simulate(result, policy) == [], policy.mode


#: Minimized from cold-jumpy seed 305 p142 (seed 306 p097 is the same
#: shape): the landing pad of the WRITE_Sum production replaced the jump
#: before the WRITE production after the jump was placed.
WRAPPED_JUMP = """
real xa(1000)
real xb(1000)
distribute xa(block)
distribute xb(block)
do i1 = 1, n
    xb(i1 + 1) = ...
    xa(i1 + 2) = xa(i1 + 2) + 1
    if t20 goto 317
    v2 = xb(2)
enddo
317 xa(1) = ...
"""


def test_a_placement_at_a_wrapped_jump_resolves_to_its_block():
    result, lines = annotated(WRAPPED_JUMP)
    block = lines.index("        if t20 then")
    assert lines[block + 1:block + 5] == [
        "            WRITE_Recv{xb(i1 + 1)}",
        "            WRITE_Sum_Send{xa(3:n + 2)}",
        "            goto 317",
        "        endif",
    ]
    # After the jump is after its block: the fall-through path.
    assert lines[block + 5] == "        WRITE_Recv{xb(i1 + 1)}"
    assert_balanced(result)


#: Minimized from cold-jumpy seed 301 p120: the receive of a combining
#: write placed after the jump only ran on the fall-through path.
AFTER_JUMP = """
real x(1000)
distribute x(block)
do i = 1, n
    x(5) = x(5) + 1
    if t goto 20
    x(i + 2) = ...
enddo
20 y = 1
"""


def test_a_placement_after_a_jump_runs_on_both_of_its_edges():
    result, lines = annotated(AFTER_JUMP)
    block = lines.index("        if t then")
    assert lines[block - 1:block + 5] == [
        "        WRITE_Sum_Send{x(5)}",
        "        if t then",
        "            WRITE_Sum_Recv{x(5)}",
        "            goto 20",
        "        endif",
        "        WRITE_Sum_Recv{x(5)}",
    ]
    assert_balanced(result)


#: The shape of cold-jumpy seed 303 p105: the receive on the
#: fall-through edge of ``if t2 goto 30`` took label 20, which the first
#: jump reaches too; the one on its jump edge took label 30, which the
#: fall-through reaches too.
FALL_THROUGH = """
real x(1000)
integer a(1000)
distribute x(block)
if t1 goto 20
x(a(1)) = ...
if t2 goto 30
20 y = 1
30 z = 2
"""


def test_a_placement_on_one_edge_into_a_label_leaves_the_label_alone():
    result, lines = annotated(FALL_THROUGH)
    block = lines.index("    if t2 then")
    assert lines[block:block + 7] == [
        "    if t2 then",
        "        WRITE_Recv{x(a(1))}",
        "        goto 30",
        "    endif",
        "    WRITE_Recv{x(a(1))}",
        "20  y = 1",
        "30  z = 2",
    ]
    assert_balanced(result)


#: A loop made of a backward jump: the receive hoisted to the loop entry
#: took label 10, so every back jump ran it again.
LABEL_LOOP = """
real x(100)
distribute x(block)
10 y = x(1)
if t goto 10
"""


def test_loop_entry_before_a_labeled_loop_header_stays_out_of_the_loop():
    result, lines = annotated(LABEL_LOOP)
    assert lines[-4:] == [
        "    READ_Send{x(1)}",
        "    READ_Recv{x(1)}",
        "10  y = x(1)",
        "    if t goto 10",
    ]
    assert_balanced(result, always=False)

