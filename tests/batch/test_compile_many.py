"""compile_one / compile_many: outcomes, errors, options, the cache."""

import pytest

from repro.batch import (
    BatchOptions,
    PipelineCache,
    compile_many,
    compile_one,
    resolve_jobs,
)
from repro.commgen.pipeline import generate_communication
from repro.testing.programs import FIG1_SOURCE, FIG11_SOURCE


def small_corpus():
    return [("fig11", FIG11_SOURCE), ("fig1", FIG1_SOURCE)]


def test_compile_one_matches_direct_pipeline():
    compiled = compile_one("fig11", FIG11_SOURCE)
    result = generate_communication(FIG11_SOURCE)
    assert compiled.ok
    assert compiled.annotated_source == result.annotated_source()
    assert (compiled.reads, compiled.writes) == result.communication_count()
    assert not compiled.cache_hit
    assert compiled.duration_s > 0


def test_compile_one_captures_parse_errors():
    compiled = compile_one("bad", "program p\nthis is not fortran\n")
    assert not compiled.ok
    assert compiled.error_type == "ParseError"
    assert compiled.error
    assert compiled.annotated_source is None


def test_compile_many_serial_preserves_order_and_counts():
    result = compile_many(small_corpus(), jobs=1)
    assert [p.name for p in result.programs] == ["fig11", "fig1"]
    assert result.ok_count == 2 and result.error_count == 0
    assert result.jobs == 1
    assert result.programs_per_second > 0
    assert "2/2 programs ok" in result.summary()


def test_compile_many_accepts_dict_input():
    result = compile_many({"fig11": FIG11_SOURCE}, jobs=1)
    assert result.ok_count == 1
    assert result.programs[0].name == "fig11"


def test_one_bad_program_never_kills_the_corpus():
    corpus = small_corpus() + [("broken", "program p\n???\n")]
    result = compile_many(corpus, jobs=1)
    assert result.ok_count == 2 and result.error_count == 1
    assert [p.name for p in result.errors()] == ["broken"]
    assert "1 failed" in result.summary()


def test_prepared_snapshots_of_an_older_schema_miss(monkeypatch, tmp_path):
    """Prepared snapshots written under ``repro-batch-cache/2`` carry
    optimistic WRITE placements a bounded path sample certified; a
    cache directory holding them must recompile, not replay them."""
    import repro.batch.cache as cache_mod

    monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", "repro-batch-cache/2")
    compile_many(small_corpus(), jobs=1,
                 cache=PipelineCache(str(tmp_path)))
    monkeypatch.undo()
    again = compile_many(small_corpus(), jobs=1,
                         cache=PipelineCache(str(tmp_path)))
    assert again.cache_hits == 0


def test_cache_hits_on_second_run():
    cache = PipelineCache()
    first = compile_many(small_corpus(), jobs=1, cache=cache)
    second = compile_many(small_corpus(), jobs=1, cache=cache)
    assert first.cache_hits == 0
    assert second.cache_hits == 2
    assert all(p.cache_hit for p in second.programs)
    # cached outcomes are indistinguishable from fresh ones
    for fresh, cached in zip(first.programs, second.programs):
        assert cached.annotated_source == fresh.annotated_source
        assert (cached.reads, cached.writes) == (fresh.reads, fresh.writes)


def test_parallel_equals_serial(tmp_path):
    cache = PipelineCache(directory=str(tmp_path))
    serial = compile_many(small_corpus(), jobs=1)
    parallel = compile_many(small_corpus(), jobs=2, cache=cache)
    assert parallel.ok_count == serial.ok_count == 2
    for s, p in zip(serial.programs, parallel.programs):
        assert p.name == s.name
        assert p.annotated_source == s.annotated_source
    # the parent reconstructs hit totals from worker-reported flags
    assert parallel.cache_stats is not None
    warm = compile_many(small_corpus(), jobs=2, cache=cache)
    assert warm.cache_hits == 2


def test_resolve_jobs_zero_means_one_per_cpu():
    import os

    assert resolve_jobs(0) == (os.cpu_count() or 1)
    assert resolve_jobs(-3) == (os.cpu_count() or 1)
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs("2") == 2  # argparse hands over ints, but be lenient


def test_compile_many_jobs_zero_resolves_to_cpu_count():
    result = compile_many(small_corpus(), jobs=0)
    assert result.ok_count == 2
    assert result.jobs == resolve_jobs(0)


def test_hardened_mode_reports_rung():
    options = BatchOptions(hardened=True)
    result = compile_many(small_corpus(), jobs=1, options=options)
    assert result.ok_count == 2
    for program in result.programs:
        assert program.rung == "balanced"
        assert not program.degraded
    assert result.degraded_count == 0


def test_trace_option_attaches_stable_payloads():
    options = BatchOptions(trace=True)
    compiled = compile_one("fig11", FIG11_SOURCE, options=options)
    assert compiled.ok and compiled.trace is not None
    assert compiled.trace["events"]
    # stable form: no wall-clock fields survive
    for event in compiled.trace["events"]:
        assert not any(key.endswith("_s") for key in event)


def test_batch_options_reject_unknown_pipeline_keys():
    with pytest.raises(ValueError, match="owner_compute"):
        BatchOptions(pipeline={"owner_compute": True})  # typo'd key


def test_pipeline_options_participate_in_the_cache_key():
    cache = PipelineCache()
    compile_one("fig11", FIG11_SOURCE, cache=cache,
                options=BatchOptions(pipeline={"owner_computes": False}))
    other = compile_one("fig11", FIG11_SOURCE, cache=cache,
                        options=BatchOptions(pipeline={"owner_computes": True}))
    assert not other.cache_hit  # different options must not alias


def test_as_dict_is_json_shaped():
    import json

    result = compile_many(small_corpus()[:1], jobs=1, cache=PipelineCache())
    payload = result.as_dict()
    json.dumps(payload)  # must be serializable as-is
    assert payload["ok"] == 1
    assert payload["programs"][0]["name"] == "fig11"
    # a cold compile misses "analyzed", "prepared", and the incremental
    # solve/fragment/verdict probes; stores add the merkle record on top
    assert payload["cache"]["misses"] == 7
    assert payload["cache"]["stores"] == 8
    assert payload["programs"][0]["incremental"]["whole_misses"] == 2
