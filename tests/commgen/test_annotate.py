"""Annotator placement-strategy unit tests."""

import pytest

from repro.commgen import generate_communication
from repro.commgen.annotate import Annotator
from repro.commgen.naive import naive_communication
from repro.core.placement import Placement, Position
from repro.core.problem import Direction, Problem, Timing
from repro.lang import ast
from repro.lang.printer import format_program
from repro.pre.transform import (
    eliminate_common_subexpressions,
    eliminate_with_lcm,
)
from repro.prefetch.pipeline import generate_prefetches
from repro.regpromo.pipeline import promote_registers
from repro.testing.generator import ArrayProgramGenerator
from repro.testing.programs import (
    FIG1_SOURCE,
    FIG3_SOURCE,
    FIG11_SOURCE,
    analyze_source,
)


def annotate_manual(source, place, kind="read", direction=Direction.BEFORE,
                    **apply_kwargs):
    """Build an empty placement, let ``place`` fill it, annotate."""
    analyzed = analyze_source(source)
    problem = Problem(direction=direction)
    placement = Placement.empty(analyzed.ifg, problem)
    place(analyzed, problem, placement)
    annotator = Annotator(analyzed)
    annotator.apply(placement, kind, **apply_kwargs)
    return [line.strip() for line in
            format_program(analyzed.program).splitlines() if line.strip()]


class FakeDescriptor:
    """A minimal printable descriptor for hand-built placements."""

    def __init__(self, text):
        self.text = text

    def format(self, partial_vars=frozenset(), local_vars=frozenset()):
        if partial_vars:
            return self.text + "|partial"
        return self.text

    def __str__(self):
        return self.text

    def __hash__(self):
        return hash(self.text)

    def __eq__(self, other):
        return isinstance(other, FakeDescriptor) and self.text == other.text

    def __lt__(self, other):
        return self.text < other.text


def test_before_and_after_statement_positions():
    def place(analyzed, problem, placement):
        d = FakeDescriptor("D")
        problem.universe.add(d)
        node = analyzed.node_named("b =")
        placement.add(node, Position.BEFORE, Timing.EAGER, d)
        placement.add(node, Position.AFTER, Timing.LAZY, d)

    lines = annotate_manual("a = 1\nb = 2\nu = 3", place)
    index = lines.index("b = 2")
    assert lines[index - 1] == "READ_Send{D}"
    assert lines[index + 1] == "READ_Recv{D}"


def test_header_after_means_after_the_loop():
    def place(analyzed, problem, placement):
        d = FakeDescriptor("D")
        problem.universe.add(d)
        placement.add(analyzed.node_named("do i"), Position.AFTER,
                      Timing.EAGER, d)

    lines = annotate_manual("do i = 1, n\na = 1\nenddo\nb = 2", place)
    assert lines.index("READ_Send{D}") == lines.index("enddo") + 1


def test_label_node_takes_the_label():
    source = "if t goto 9\na = 1\n9 b = 2"

    def place(analyzed, problem, placement):
        d = FakeDescriptor("D")
        problem.universe.add(d)
        label_node = next(n for n in analyzed.ifg.real_nodes()
                          if n.kind.value == "label")
        placement.add(label_node, Position.BEFORE, Timing.EAGER, d)

    lines = annotate_manual(source, place)
    assert any(line.startswith("9") and "READ_Send{D}" in line
               for line in lines)
    assert not any(line.startswith("9") and "b = 2" in line for line in lines)


def test_landing_pad_wraps_ifgoto():
    source = "do i = 1, n\nif t goto 9\na = 1\nenddo\n9 b = 2"

    def place(analyzed, problem, placement):
        d = FakeDescriptor("D")
        problem.universe.add(d)
        landing = next(n for n in analyzed.ifg.real_nodes()
                       if analyzed.ifg.preds(n, "J"))
        placement.add(landing, Position.BEFORE, Timing.EAGER, d)

    lines = annotate_manual(source, place)
    start = lines.index("if t then")
    assert lines[start + 1] == "READ_Send{D|partial}"  # partial sections
    assert lines[start + 2] == "goto 9"
    assert lines[start + 3] == "endif"


def test_entry_production_lands_after_declarations():
    source = "real x(10)\nparameter n = 3\na = 1"

    def place(analyzed, problem, placement):
        d = FakeDescriptor("D")
        problem.universe.add(d)
        placement.add(analyzed.ifg.cfg.entry, Position.BEFORE, Timing.EAGER, d)

    lines = annotate_manual(source, place)
    assert lines.index("READ_Send{D}") > lines.index("parameter n = 3")
    assert lines.index("READ_Send{D}") < lines.index("a = 1")


def test_exit_production_appends():
    def place(analyzed, problem, placement):
        d = FakeDescriptor("D")
        problem.universe.add(d)
        placement.add(analyzed.ifg.cfg.exit, Position.BEFORE, Timing.EAGER, d)

    lines = annotate_manual("a = 1", place)
    assert lines[-1] == "READ_Send{D}"


def test_one_per_section_splits_statements():
    def place(analyzed, problem, placement):
        d1, d2 = FakeDescriptor("A"), FakeDescriptor("B")
        problem.universe.add(d1)
        problem.universe.add(d2)
        node = analyzed.node_named("a =")
        placement.add(node, Position.BEFORE, Timing.EAGER, d1, d2)

    merged = annotate_manual("a = 1", place)
    assert "READ_Send{A, B}" in merged
    split = annotate_manual("a = 1", place, one_per_section=True)
    assert "READ_Send{A}" in split and "READ_Send{B}" in split


def test_latch_placement_goes_to_loop_body_end():
    # a latch (synthesized back-edge source) production executes once
    # per iteration: textually at the end of the loop body
    source = "do i = 1, n\nif t then\na = 1\nelse\nb = 2\nendif\nenddo"

    def place(analyzed, problem, placement):
        d = FakeDescriptor("D")
        problem.universe.add(d)
        from repro.graph.cfg import NodeKind
        latch = next(n for n in analyzed.ifg.real_nodes()
                     if n.kind is NodeKind.LATCH)
        placement.add(latch, Position.BEFORE, Timing.EAGER, d)

    lines = annotate_manual(source, place)
    assert lines.index("READ_Send{D}") == lines.index("endif") + 1
    assert lines.index("READ_Send{D}") < lines.index("enddo")


def test_unconditional_goto_landing_pad():
    source = "a = 1\ngoto 9\n9 b = 2"

    def place(analyzed, problem, placement):
        d = FakeDescriptor("D")
        problem.universe.add(d)
        from repro.graph.cfg import NodeKind
        goto_node = analyzed.node_named("goto")
        # place directly at the goto statement's node (no landing pad
        # exists for a single-target unconditional goto: not critical)
        placement.add(goto_node, Position.BEFORE, Timing.EAGER, d)

    lines = annotate_manual(source, place)
    assert lines.index("READ_Send{D}") < lines.index("goto 9")


def test_write_before_read_at_shared_point(fig3):
    from repro.testing.programs import FIG3_SOURCE

    lines = [line.strip() for line in generate_communication(
        FIG3_SOURCE).annotated_source().splitlines()]
    write_recv = lines.index("WRITE_Recv{x(a(1:n))}")
    read_send = lines.index("READ_Send{x(6:n + 5)}")
    assert write_recv < read_send


# -- locating statements ----------------------------------------------------


def walk_locate(program, stmt):
    """The body list holding ``stmt`` and its index, by a walk of every
    body of ``program``: what the annotator's map must answer."""
    stack = [program.body]
    while stack:
        body = stack.pop()
        for index, candidate in enumerate(body):
            if candidate is stmt:
                return body, index
            if isinstance(candidate, ast.Do):
                stack.append(candidate.body)
            elif isinstance(candidate, ast.If):
                stack.extend((candidate.then_body, candidate.else_body))
    raise LookupError(f"statement {stmt!r} is not in the program")


def jumpy_sources(count=12):
    generator = ArrayProgramGenerator(seed=301, max_depth=3,
                                      goto_probability=0.3)
    return [format_program(generator.program(size=30))
            for _ in range(count)]


#: Every pipeline that builds an :class:`Annotator`, by name.
ANNOTATING_PIPELINES = {
    "commgen": generate_communication,
    "naive": naive_communication,
    "cse": lambda text: eliminate_common_subexpressions(analyze_source(text)),
    "lcm": lambda text: eliminate_with_lcm(analyze_source(text)),
    "regpromo": promote_registers,
    "prefetch": generate_prefetches,
}


@pytest.mark.parametrize("pipeline", sorted(ANNOTATING_PIPELINES))
def test_the_statement_map_answers_as_a_walk_of_every_body(monkeypatch,
                                                           pipeline):
    """Every statement an annotator locates, on the figures and a jumpy
    corpus, sits where a walk of the whole program finds it: the map
    built at construction saw it, or it is a landing-pad block the
    annotator registered."""
    located, landing_pads = [], []
    locate = Annotator._locate

    def checked(self, stmt):
        body, index = locate(self, stmt)
        expected_body, expected_index = walk_locate(self.program, stmt)
        assert body is expected_body and index == expected_index
        located.append(stmt)
        if any(stmt is block for block in self._goto_blocks.values()):
            landing_pads.append(stmt)
        return body, index

    monkeypatch.setattr(Annotator, "_locate", checked)
    sources = [FIG1_SOURCE, FIG3_SOURCE, FIG11_SOURCE] + jumpy_sources()
    for text in sources:
        ANNOTATING_PIPELINES[pipeline](text)
    assert located
    if pipeline == "commgen":
        assert landing_pads
