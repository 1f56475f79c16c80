"""EditModel: seeded, validated source edits for edit-stream testing."""

import pytest

from repro.lang.printer import format_program
from repro.testing.edits import DISTRIBUTED_ARRAYS, EDIT_KINDS, EditModel
from repro.testing.generator import ArrayProgramGenerator
from repro.testing.programs import analyze_source


def generated(seed=7, size=30):
    return format_program(ArrayProgramGenerator(seed=seed).program(size=size))


def test_all_edit_kinds_covered_by_the_model():
    assert set(EDIT_KINDS) == {"scalar_rhs", "subscript", "insert", "delete"}


@pytest.mark.parametrize("kind", EDIT_KINDS)
def test_each_kind_produces_an_analyzable_program(kind):
    base = generated()
    edited = getattr(EditModel(seed=1), kind)(base)
    assert edited is not None and edited != base
    analyze_source(edited)  # must not raise


def test_edits_are_deterministic_by_seed():
    base = generated()
    a = list(EditModel(seed=5).edit_sequence(base, 4))
    b = list(EditModel(seed=5).edit_sequence(base, 4))
    c = list(EditModel(seed=6).edit_sequence(base, 4))
    assert a == b
    assert a != c


def test_edit_sequence_is_cumulative():
    base = generated()
    texts = [edited for _, edited in EditModel(seed=2).edit_sequence(base, 5)]
    assert len(texts) == len(set(texts)) == 5
    assert base not in texts


def test_scalar_rhs_preserves_array_references():
    base = generated()
    edited = EditModel(seed=3).scalar_rhs(base)
    for array in DISTRIBUTED_ARRAYS:
        refs = sorted(line.count(f"{array}(")
                      for line in base.splitlines())
        assert refs == sorted(line.count(f"{array}(")
                              for line in edited.splitlines())


def test_insert_grows_and_delete_shrinks_the_program():
    base = generated()
    model = EditModel(seed=4)
    longer = model.insert(base)
    shorter = model.delete(base)
    assert len(longer.splitlines()) == len(base.splitlines()) + 1
    assert len(shorter.splitlines()) == len(base.splitlines()) - 1


def test_random_edit_restricts_to_requested_kinds():
    base = generated()
    model = EditModel(seed=8)
    for _ in range(6):
        kind, edited = model.random_edit(base, kinds=("scalar_rhs",))
        assert kind == "scalar_rhs"
        assert edited != base


def test_random_edit_raises_when_nothing_applies():
    with pytest.raises(ValueError, match="no edit kind"):
        EditModel().random_edit("a = 1\n", kinds=("delete",))
