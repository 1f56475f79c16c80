"""Unit tests of the checker's per-path replay state machine."""

import pytest

from repro.core.checker import _State
from repro.core.lattice import Universe


@pytest.fixture
def state():
    return _State(Universe(["e", "f"]))


def bit(state, element):
    return state.universe.bit(element)


def test_clean_region_lifecycle(state):
    state.produce_eager("n1", bit(state, "e"))
    assert state.open == bit(state, "e")
    state.produce_lazy("n2", bit(state, "e"))
    assert state.open == 0
    assert state.avail == bit(state, "e")
    state.consume("n3", bit(state, "e"))
    state.finish("n4")
    assert state.violations == []


def test_double_eager_flagged(state):
    state.produce_eager("n1", bit(state, "e"))
    state.produce_eager("n2", bit(state, "e"))
    kinds = [v.kind for v in state.violations]
    assert "balance" in kinds


def test_lazy_without_eager_flagged(state):
    state.produce_lazy("n1", bit(state, "e"))
    assert [v.criterion for v in state.violations] == ["C1"]


def test_unclosed_region_flagged_at_finish(state):
    state.produce_eager("n1", bit(state, "e"))
    state.finish("end")
    assert any("never completed" in v.message for v in state.violations)


def test_redundant_production_flagged(state):
    state.give("n0", bit(state, "e"))
    state.produce_eager("n1", bit(state, "e"))
    assert [v.criterion for v in state.violations] == ["O1"]


def test_consume_unavailable_flagged(state):
    state.consume("n1", bit(state, "e"))
    assert [v.criterion for v in state.violations] == ["C3"]


def test_steal_inside_region_flagged(state):
    state.produce_eager("n1", bit(state, "e"))
    state.steal("n2", bit(state, "e"))
    assert any("inside an open production region" in v.message
               for v in state.violations)


def test_unconsumed_production_is_c2(state):
    state.produce_eager("n1", bit(state, "e"))
    state.produce_lazy("n2", bit(state, "e"))
    state.finish("end")
    assert [v.criterion for v in state.violations] == ["C2"]


def test_production_destroyed_before_use_is_c2(state):
    state.produce_eager("n1", bit(state, "e"))
    state.produce_lazy("n2", bit(state, "e"))
    state.steal("n3", bit(state, "e"))
    assert any(v.criterion == "C2" and "destroyed" in v.message
               for v in state.violations)


def test_give_does_not_count_as_pending(state):
    state.give("n1", bit(state, "e"))
    state.finish("end")
    assert state.violations == []  # free production needs no consumer


def test_elements_tracked_independently(state):
    state.produce_eager("n1", bit(state, "e") | bit(state, "f"))
    state.produce_lazy("n2", bit(state, "e"))
    state.consume("n3", bit(state, "e"))
    state.finish("end")
    # only f's region is unclosed
    assert all(v.element == "f" for v in state.violations)
