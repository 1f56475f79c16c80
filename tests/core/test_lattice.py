"""Universe / bitset lattice tests."""

import pytest

from repro.core.lattice import Universe, meet_over, union_over
from repro.util.errors import SolverError


def test_add_and_index():
    universe = Universe()
    assert universe.add("a") == 0
    assert universe.add("b") == 1
    assert universe.add("a") == 0  # idempotent
    assert len(universe) == 2
    assert "a" in universe and "c" not in universe


def test_constructor_elements():
    universe = Universe(["x", "y"])
    assert list(universe) == ["x", "y"]


def test_bits_and_members_roundtrip():
    universe = Universe(["a", "b", "c"])
    bits = universe.bits(["a", "c"])
    assert universe.members(bits) == ["a", "c"]
    assert universe.frozen(bits) == frozenset({"a", "c"})


def test_bit_singleton():
    universe = Universe(["a", "b"])
    assert universe.bit("b") == 2


def test_top_and_bottom():
    universe = Universe(["a", "b", "c"])
    assert universe.bottom == 0
    assert universe.top == 0b111
    assert Universe().top == 0


def test_unknown_element_raises():
    universe = Universe(["a"])
    with pytest.raises(SolverError):
        universe.bit("zzz")


def test_element_lookup_by_index():
    universe = Universe(["a", "b"])
    assert universe.element(1) == "b"
    assert universe.index("b") == 1


def test_format_stable():
    universe = Universe(["a", "b"])
    assert universe.format(universe.top) == "{a, b}"
    assert universe.format(0) == "{}"


def test_union_over():
    assert union_over([0b01, 0b10]) == 0b11
    assert union_over([]) == 0


def test_meet_over_paper_convention():
    # The meet over *no* neighbors is the empty set, not top (paper §4).
    assert meet_over([]) == 0
    assert meet_over([0b11, 0b10]) == 0b10
    assert meet_over([0b01]) == 0b01


def test_hashable_elements_of_any_type():
    universe = Universe()
    universe.add(("array", 3))
    universe.add(42)
    assert universe.bits([("array", 3), 42]) == 0b11


def test_members_sparse_bitsets():
    # the set-bit iteration must see exactly the set bits, in universe
    # order, including the highest element and gaps
    universe = Universe([f"e{i}" for i in range(70)])
    bits = universe.bits(["e0", "e13", "e69"])
    assert universe.members(bits) == ["e0", "e13", "e69"]
    assert universe.members(0) == []
    assert universe.members(universe.bit("e69")) == ["e69"]
    assert universe.members(universe.top) == [f"e{i}" for i in range(70)]


def test_members_matches_naive_shift_loop():
    universe = Universe(list("abcdefgh"))
    for bits in range(1 << len(universe)):
        naive, index, rest = [], 0, bits
        while rest:
            if rest & 1:
                naive.append(universe.element(index))
            rest >>= 1
            index += 1
        assert universe.members(bits) == naive


# -- freeze: late interning must fail loudly --------------------------------

def test_freeze_blocks_new_elements():
    universe = Universe(["a", "b"])
    top_before = universe.top
    universe.freeze()
    with pytest.raises(SolverError):
        universe.add("c")
    # existing bitsets were not invalidated
    assert universe.top == top_before
    assert len(universe) == 2


def test_freeze_allows_existing_elements():
    universe = Universe(["a", "b"]).freeze()
    assert universe.add("a") == 0  # idempotent re-intern is fine
    assert universe.bit("b") == 2
    assert universe.is_frozen


def test_freeze_is_idempotent_and_chains():
    universe = Universe(["a"])
    assert universe.freeze() is universe
    assert universe.freeze() is universe


def test_problem_freeze_rejects_late_take():
    from repro.core.problem import Problem

    problem = Problem()
    node = object()
    problem.add_take(node, "x")
    problem.freeze()
    with pytest.raises(SolverError):
        problem.add_take(node, "brand-new")
    # known elements can still be referenced at new nodes
    problem.add_steal(object(), "x")


def test_pipeline_problems_are_frozen():
    from repro.commgen.pipeline import generate_communication
    from repro.testing.programs import FIG11_SOURCE

    result = generate_communication(FIG11_SOURCE)
    assert result.read_problem.universe.is_frozen
    assert result.write_problem.universe.is_frozen
    with pytest.raises(SolverError):
        result.read_problem.universe.add("late-element")
