"""``compile_delta``: recompiling an edited program against a cache.

The contract under test (``docs/scaling.md``): a delta compile of any
edited text is **byte-identical** to a cold compile of the same text,
and given the base's digest it reports how many intervals the edit
changed against the base's cached interval record.
"""

import pytest

from repro.batch import (
    MERKLE_NAMESPACE,
    PipelineCache,
    compile_delta,
    compile_one,
    source_fingerprint,
)
from repro.lang.printer import format_program
from repro.testing.edits import EDIT_KINDS, EditModel
from repro.testing.generator import ArrayProgramGenerator


def generated(seed, size=24):
    return format_program(ArrayProgramGenerator(seed=seed).program(size=size))


def test_compile_delta_requires_a_cache():
    with pytest.raises(ValueError, match="PipelineCache"):
        compile_delta("p", generated(0), None)


def test_scalar_edit_replays_whole_intervals():
    """A scalar-RHS edit changes no solver problem; the delta equals a
    cold compile of the edited text."""
    base = generated(7, size=30)
    edited = base.replace("+ 1", "+ 2", 1)
    assert edited != base
    cache = PipelineCache()
    assert compile_one("p", base, cache=cache).ok
    delta = compile_delta("p", edited, cache,
                          base_digest=source_fingerprint(base))
    cold = compile_one("p", edited, cache=None)
    assert delta.ok and cold.ok
    assert delta.annotated_source == cold.annotated_source
    incr = delta.incremental
    assert incr["digest"] == source_fingerprint(edited)
    assert incr["base"] == source_fingerprint(base)


def test_delta_reports_changed_interval_counts():
    base = generated(7, size=30)
    edited = base.replace("+ 1", "+ 2", 1)
    cache = PipelineCache()
    compile_one("p", base, cache=cache)
    delta = compile_delta("p", edited, cache,
                          base_digest=source_fingerprint(base))
    incr = delta.incremental
    assert incr["intervals_total"] > 0
    assert 0 < incr["intervals_changed"] < incr["intervals_total"]


def test_delta_without_base_digest_still_replays():
    """Without a base digest the delta is a plain compile, with no
    interval diff."""
    base = generated(7, size=30)
    edited = base.replace("+ 1", "+ 2", 1)
    cache = PipelineCache()
    compile_one("p", base, cache=cache)
    delta = compile_delta("p", edited, cache)
    assert delta.ok
    incr = delta.incremental
    assert incr["base"] is None
    assert "intervals_changed" not in incr  # diagnostics need the base
    assert delta.annotated_source == compile_one("p", edited).annotated_source


def test_unknown_base_digest_degrades_to_no_diagnostics():
    edited = generated(7, size=30).replace("+ 1", "+ 2", 1)
    cache = PipelineCache()
    delta = compile_delta("p", edited, cache, base_digest="0" * 64)
    assert delta.ok
    assert "intervals_changed" not in delta.incremental


def test_every_compile_stores_a_merkle_record():
    cache = PipelineCache()
    base = generated(3)
    compile_one("p", base, cache=cache)
    record = cache.get(MERKLE_NAMESPACE, source_fingerprint(base))
    assert isinstance(record, list) and record == sorted(record)


def test_parse_error_is_data_not_a_crash():
    cache = PipelineCache()
    delta = compile_delta("broken", "do i = 1,\n", cache)
    assert not delta.ok
    assert delta.error_type == "ParseError"


# -- the randomized differential suite (docs/scaling.md) ----------------------

@pytest.mark.parametrize("seed", range(6))
def test_random_edit_sequences_are_byte_identical(seed):
    """Cumulative mixed edits: every delta must equal its cold compile
    byte for byte and report its interval diff."""
    base = generated(seed, size=24)
    model = EditModel(seed=seed)
    cache = PipelineCache()
    assert compile_one("p", base, cache=cache).ok
    current = base
    for kind, edited in model.edit_sequence(base, 4):
        delta = compile_delta("p", edited, cache,
                              base_digest=source_fingerprint(current))
        cold = compile_one("p", edited, cache=None)
        assert delta.ok and cold.ok, (kind, delta.error or cold.error)
        assert delta.annotated_source == cold.annotated_source, kind
        incr = delta.incremental
        assert 0 <= incr["intervals_changed"] <= incr["intervals_total"]
        current = edited


def test_structure_changing_edits_splice_fragments():
    """Inserting a statement grows the flow graph; the delta still
    equals its cold compile and leaves some intervals unchanged."""
    base = generated(1, size=24)
    model = EditModel(seed=42)
    cache = PipelineCache()
    compile_one("p", base, cache=cache)
    edited = model.insert(base)
    assert edited is not None
    delta = compile_delta("p", edited, cache,
                          base_digest=source_fingerprint(base))
    cold = compile_one("p", edited, cache=None)
    assert delta.annotated_source == cold.annotated_source
    incr = delta.incremental
    assert incr["intervals_changed"] < incr["intervals_total"]


def test_edits_inside_nested_loops_stay_identical():
    """Force the edit into a loop body (subscript changes on distributed
    arrays change the enclosing interval's problem)."""
    ran = 0
    for seed in range(8):
        base = generated(seed, size=24)
        model = EditModel(seed=seed + 100)
        edited = model.subscript(base)
        if edited is None:
            continue
        ran += 1
        cache = PipelineCache()
        compile_one("p", base, cache=cache)
        delta = compile_delta("p", edited, cache,
                              base_digest=source_fingerprint(base))
        cold = compile_one("p", edited, cache=None)
        assert delta.ok and cold.ok
        assert delta.annotated_source == cold.annotated_source
    assert ran >= 4  # the corpus really exercised this edit kind


def test_all_edit_kinds_covered_by_the_model():
    assert set(EDIT_KINDS) == {"scalar_rhs", "subscript", "insert", "delete"}
