"""The batch equivalence suite: cached, parallel compilation must be
observably identical to serial uncached compilation.

Two properties are pinned down over a generator corpus:

* **Byte equality** — annotated sources and placement counts from
  ``compile_many(jobs=N, cache=...)`` (cold and warm) match a serial
  uncached run exactly.
* **Trace equality** — ``stable_form`` traces (wall-clock fields
  stripped) are equal too: a cache hit returns the trace stored with
  the result, so warmth is invisible to trace consumers.

Plus the mutation regressions: annotation splices READ/WRITE statements
into the AST in place, and callers mutate the results they get back;
neither may change what the cache serves next (``docs/scaling.md``).
"""

import copy

import pytest

from repro.batch import (
    BatchOptions,
    PipelineCache,
    compile_delta,
    compile_many,
    compile_one,
)
from repro.obs.bench import batch_corpus
from repro.testing.programs import FIG11_SOURCE


@pytest.fixture(scope="module")
def corpus():
    """A small deterministic generator corpus with real array traffic."""
    return batch_corpus(n_programs=6, size=10, seed=3)


def observable(result):
    """Everything a batch consumer can see, minus wall-clock noise."""
    return [(p.name, p.ok, p.annotated_source, p.reads, p.writes, p.trace)
            for p in result.programs]


def observable_one(compiled):
    return (compiled.annotated_source, compiled.reads, compiled.writes,
            compiled.trace)


def test_serial_cached_equals_serial_uncached(corpus):
    options = BatchOptions(trace=True)
    baseline = compile_many(corpus, jobs=1, options=options)
    cache = PipelineCache()
    cold = compile_many(corpus, jobs=1, cache=cache, options=options)
    warm = compile_many(corpus, jobs=1, cache=cache, options=options)
    assert warm.cache_hits == len(corpus)
    assert observable(cold) == observable(baseline)
    assert observable(warm) == observable(baseline)


def test_parallel_cached_equals_serial_uncached(corpus, tmp_path):
    options = BatchOptions(trace=True)
    baseline = compile_many(corpus, jobs=1, options=options)
    cache = PipelineCache(directory=str(tmp_path))
    cold = compile_many(corpus, jobs=2, cache=cache, options=options)
    warm = compile_many(corpus, jobs=2, cache=cache, options=options)
    assert observable(cold) == observable(baseline)
    assert observable(warm) == observable(baseline)
    assert warm.cache_hits == len(corpus)


def test_repeated_runs_are_deterministic(corpus):
    first = compile_many(corpus, jobs=1)
    second = compile_many(corpus, jobs=1)
    assert observable(first) == observable(second)


# -- the mutation regression ------------------------------------------------


def test_cache_never_serves_a_mutated_ast():
    """Annotation splices READ/WRITE statements into the analyzed AST in
    place; a cache that handed out the live object would make the second
    compile see the first compile's communication as real code."""
    cache = PipelineCache()
    first = compile_one("fig11", FIG11_SOURCE, cache=cache)
    second = compile_one("fig11", FIG11_SOURCE, cache=cache)
    assert second.cache_hit
    # byte-identical output — no doubled or shifted communication
    assert second.annotated_source == first.annotated_source
    assert (second.reads, second.writes) == (first.reads, first.writes)


def test_a_returned_result_is_private():
    """Mutating a returned CompiledProgram — as compile_delta does with
    ``.incremental`` — must not change what the next hit returns."""
    cache = PipelineCache()
    options = BatchOptions(trace=True)
    miss = compile_one("fig11", FIG11_SOURCE, cache=cache, options=options)
    hit = compile_one("fig11", FIG11_SOURCE, cache=cache, options=options)
    assert hit.cache_hit
    expected = copy.deepcopy(observable_one(miss))
    assert observable_one(hit) == expected
    for compiled in (miss, hit):
        compiled.incremental = {"base": "mutated"}
        compiled.annotated_source += "! mutated\n"
        compiled.reads += 1
        compiled.trace["events"].clear()
    delta = compile_delta("fig11", FIG11_SOURCE, cache, options=options)
    assert delta.cache_hit and observable_one(delta) == expected
    again = compile_one("fig11", FIG11_SOURCE, cache=cache, options=options)
    assert again.cache_hit and again.incremental is None
    assert observable_one(again) == expected


def test_many_reuses_stay_pristine(corpus):
    cache = PipelineCache()
    runs = [compile_many(corpus, jobs=1, cache=cache) for _ in range(3)]
    baseline = observable(runs[0])
    for run in runs[1:]:
        assert observable(run) == baseline
    # reads/writes stable across reuses proves no accumulation
    counts = [(p.reads, p.writes) for p in runs[0].programs]
    assert all(c != (0, 0) for c in counts) or counts  # corpus has traffic
    assert [(p.reads, p.writes) for p in runs[2].programs] == counts
