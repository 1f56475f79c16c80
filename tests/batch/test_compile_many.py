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


def test_compile_one_reports_a_non_ascii_digit_as_a_parse_error():
    # str.isdigit() accepts a superscript two; int() does not.
    compiled = compile_one("sup", "real x(10)\nx(1) = \u00b2\n")
    assert not compiled.ok
    assert compiled.error_type == "ParseError"
    assert compiled.error == "line 2, column 8: unexpected character '\u00b2'"


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
    # the parent owns the cache: its own counters are the stats
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


def test_hardened_trace_holds_the_rung_events_and_is_stable():
    traced = BatchOptions(hardened=True, trace=True)
    first = compile_one("fig11", FIG11_SOURCE, options=traced)
    second = compile_one("fig11", FIG11_SOURCE, options=traced)
    assert first.ok and first.trace is not None
    rungs = [event for event in first.trace["events"]
             if event["category"] == "hardened"]
    assert [event["name"] for event in rungs] == ["rung_attempt", "result"]
    assert all(event["rung"] == "balanced" for event in rungs)
    assert first.trace == second.trace
    untraced = compile_one("fig11", FIG11_SOURCE,
                           options=BatchOptions(hardened=True))
    assert untraced.ok and untraced.trace is None


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


def test_batch_options_reject_values_no_cache_key_can_hold():
    """Refused when the options are built, not when a cached compile
    first computes its key."""
    for value in ([1], {"rounds": 1}):
        with pytest.raises(TypeError, match="solver_rounds"):
            BatchOptions(pipeline={"solver_rounds": value})
    BatchOptions(pipeline={"solver_rounds": 8, "max_splits": None})


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
    # a cold compile misses its one result entry and stores it next to
    # the program's interval record
    assert payload["cache"]["misses"] == 1
    assert payload["cache"]["stores"] == 2
    assert payload["programs"][0]["incremental"] is None


@pytest.mark.parametrize("option", ["split_messages", "trace"])
def test_result_options_participate_in_the_cache_key(option):
    """Both options shape the stored result (atomic operations instead
    of send/recv pairs; the stored trace), so each must split the key."""
    cache = PipelineCache()
    default = compile_one("fig11", FIG11_SOURCE, cache=cache)
    options = BatchOptions(**{option: not getattr(BatchOptions(), option)})
    other = compile_one("fig11", FIG11_SOURCE, cache=cache, options=options)
    assert not other.cache_hit
    cold = compile_one("fig11", FIG11_SOURCE, options=options)
    assert (other.annotated_source, other.trace) == (
        cold.annotated_source, cold.trace)
    assert (other.annotated_source, other.trace) != (
        default.annotated_source, default.trace)
    assert compile_one("fig11", FIG11_SOURCE, cache=cache,
                       options=options).cache_hit


# -- one owner: the caller looks up and stores, workers only compile ----------

def test_parallel_runs_store_in_the_parent_cache():
    """A memory-only cache warms under ``jobs=2``: the parent stores
    what the workers return, so the second run is all hits."""
    cache = PipelineCache()
    first = compile_many(small_corpus(), jobs=2, cache=cache)
    second = compile_many(small_corpus(), jobs=2, cache=cache)
    assert first.cache_hits == 0
    assert second.cache_hits == len(small_corpus())
    # each miss stores its result and its interval record
    assert cache.stats()["stores"] == 2 * len(small_corpus())
    assert second.cache_stats["hits"] == len(small_corpus())
    for fresh, cached in zip(first.programs, second.programs):
        assert cached.annotated_source == fresh.annotated_source


def test_an_all_hit_parallel_run_spawns_no_pool(monkeypatch):
    import concurrent.futures

    cache = PipelineCache()
    compile_many(small_corpus(), jobs=1, cache=cache)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was spawned for an all-hit run")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    warm = compile_many(small_corpus(), jobs=2, cache=cache)
    assert warm.cache_hits == len(small_corpus())


# -- hardened compiles share the cache path -----------------------------------

@pytest.mark.parametrize("degrade", [False, True])
def test_hardened_repeat_is_a_cache_hit(monkeypatch, degrade):
    if degrade:
        import repro.commgen.hardened as hardened_mod
        from repro.util.errors import SolverError

        real = hardened_mod.generate_communication

        def explode(source, **kwargs):
            if kwargs.get("after_jumps") != "conservative":
                raise SolverError("injected failure")
            return real(source, **kwargs)

        monkeypatch.setattr(hardened_mod, "generate_communication", explode)
    options = BatchOptions(hardened=True, trace=True)
    cache = PipelineCache()
    fresh = compile_one("fig11", FIG11_SOURCE, cache=cache, options=options)
    # a hardened miss stores its result but no interval record
    assert cache.stats()["stores"] == 1
    again = compile_one("fig11", FIG11_SOURCE, cache=cache, options=options)
    assert [fresh.cache_hit, again.cache_hit] == [False, True]
    assert fresh.degraded is degrade
    assert fresh.rung == ("conservative" if degrade else "balanced")
    for field in ("annotated_source", "reads", "writes", "rung", "degraded",
                  "trace"):
        assert getattr(again, field) == getattr(fresh, field), field
    # hardened and plain results never alias
    plain = compile_one("fig11", FIG11_SOURCE, cache=cache,
                        options=BatchOptions(trace=True))
    assert not plain.cache_hit and plain.rung is None


@pytest.mark.parametrize("key, value", [
    ("postpass", False),
    ("hoist_zero_trip", False),
    ("after_jumps", "conservative"),
    ("refine_sections", False),
    ("split_irreducible", True),
])
def test_hardened_options_reject_what_the_ladder_sets(key, value):
    BatchOptions(pipeline={key: value})  # fine for a plain compile
    with pytest.raises(ValueError, match=key):
        BatchOptions(hardened=True, pipeline={key: value})


def test_hardened_compiles_spend_the_max_splits_budget(monkeypatch):
    import repro.batch.driver as driver_mod

    budgets = []

    class Recording(driver_mod.HardenedPipeline):
        def __init__(self, budget=None, **kwargs):
            budgets.append(budget)
            super().__init__(budget=budget, **kwargs)

    monkeypatch.setattr(driver_mod, "HardenedPipeline", Recording)
    options = BatchOptions(hardened=True, pipeline={"max_splits": 2})
    assert compile_one("fig11", FIG11_SOURCE, options=options).ok
    assert budgets[0].max_splits == 2
