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
And edit streams: an edited program is an ordinary compile, so through
a cache warmed by its earlier versions it must equal its cacheless
compile.
"""

import copy
import re

import pytest

from repro.batch import (
    BatchOptions,
    PipelineCache,
    compile_many,
    compile_one,
)
from repro.lang.printer import format_program
from repro.obs.bench import batch_corpus
from repro.testing.edits import EditModel
from repro.testing.generator import ArrayProgramGenerator
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
    """Mutating a returned CompiledProgram must not change what the next
    hit returns."""
    cache = PipelineCache()
    options = BatchOptions(trace=True)
    miss = compile_one("fig11", FIG11_SOURCE, cache=cache, options=options)
    hit = compile_one("fig11", FIG11_SOURCE, cache=cache, options=options)
    assert hit.cache_hit
    expected = copy.deepcopy(observable_one(miss))
    assert observable_one(hit) == expected
    for compiled in (miss, hit):
        compiled.annotated_source += "! mutated\n"
        compiled.reads += 1
        compiled.trace["events"].clear()
    again = compile_one("fig11", FIG11_SOURCE, cache=cache, options=options)
    assert again.cache_hit and observable_one(again) == expected


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


# -- edit streams through a warm cache ----------------------------------------

_LABEL = re.compile(r"^ *\d+ ")


def generated(seed, size=24):
    return format_program(ArrayProgramGenerator(seed=seed).program(size=size))


def assert_warm_equals_cacheless(cache, edited):
    """Compile ``edited`` through ``cache`` and without one; both must
    succeed with the same source, counts and stable trace."""
    options = BatchOptions(trace=True)
    warm = compile_one("p", edited, cache=cache, options=options)
    cold = compile_one("p", edited, options=options)
    assert warm.ok and cold.ok, warm.error or cold.error
    assert observable_one(warm) == observable_one(cold)


def loop_depth_of_the_edit(base, edited):
    """How many ``do`` loops enclose the first line ``edited`` changes."""
    depth = 0
    for old, new in zip(base.splitlines(), edited.splitlines()):
        if old != new:
            return depth
        statement = _LABEL.sub("", old).strip()
        if statement.startswith("do "):
            depth += 1
        elif statement == "enddo":
            depth -= 1
    return 0


@pytest.mark.parametrize("seed", range(6))
def test_cumulative_edits_through_a_warm_cache(seed):
    """Four cumulative mixed edits, each compiled through the cache that
    holds every earlier version."""
    base = generated(seed)
    cache = PipelineCache()
    assert compile_one("p", base, cache=cache).ok
    for _, edited in EditModel(seed=seed).edit_sequence(base, 4):
        assert_warm_equals_cacheless(cache, edited)


def test_a_structure_changing_insert_through_a_warm_cache():
    base = generated(1)
    cache = PipelineCache()
    assert compile_one("p", base, cache=cache).ok
    edited = EditModel(seed=42).insert(base)
    assert edited.count("\n") == base.count("\n") + 1  # one more node
    assert_warm_equals_cacheless(cache, edited)


def test_subscript_edits_inside_loops_through_a_warm_cache():
    """A distributed-array subscript changed inside a loop body changes
    the problem of the enclosing interval."""
    programs = 0
    for seed in range(8):
        base = generated(seed)
        for edit_seed in range(10):
            edited = EditModel(seed=edit_seed).subscript(base)
            if edited is not None and loop_depth_of_the_edit(base, edited):
                break
        else:
            continue
        programs += 1
        cache = PipelineCache()
        assert compile_one("p", base, cache=cache).ok
        assert_warm_equals_cacheless(cache, edited)
    assert programs >= 4


def test_a_parse_error_through_a_warm_cache_is_data():
    cache = PipelineCache()
    assert compile_one("p", generated(0), cache=cache).ok
    broken = compile_one("broken", "do i = 1,\n", cache=cache)
    cold = compile_one("broken", "do i = 1,\n")
    assert not broken.ok and broken.error_type == "ParseError"
    assert (broken.error, broken.error_type) == (cold.error, cold.error_type)
    assert cache.stats()["stores"] == 1  # a failed compile stores nothing
