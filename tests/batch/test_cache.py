"""PipelineCache: content addressing, snapshot semantics, persistence,
corruption."""

import os
import time

import pytest

from repro.batch import compile_one
from repro.batch.cache import (
    CACHE_SCHEMA,
    TMP_SWEEP_AGE_S,
    PipelineCache,
    source_fingerprint,
)
from repro.testing.programs import FIG11_SOURCE


SOURCE = "program p\nend\n"


def test_fingerprint_is_stable_and_content_addressed():
    a = source_fingerprint(SOURCE, owner_computes=False)
    b = source_fingerprint(SOURCE, owner_computes=False)
    assert a == b
    assert len(a) == 64  # sha256 hex


def test_fingerprint_sensitive_to_text_and_options():
    base = source_fingerprint(SOURCE, owner_computes=False)
    assert source_fingerprint(SOURCE + " ", owner_computes=False) != base
    assert source_fingerprint(SOURCE, owner_computes=True) != base
    assert source_fingerprint(SOURCE) != base


def test_fingerprint_ignores_option_order():
    assert (source_fingerprint(SOURCE, a=1, b=2)
            == source_fingerprint(SOURCE, b=2, a=1))


def test_fingerprint_includes_schema():
    # the schema string participates in the hash, so bumping it orphans
    # old entries rather than deserializing a stale layout
    assert CACHE_SCHEMA in ("repro-batch-cache/1",) or CACHE_SCHEMA
    assert source_fingerprint(SOURCE) != source_fingerprint(CACHE_SCHEMA + SOURCE)


def test_get_put_roundtrip_and_stats():
    cache = PipelineCache()
    key = cache.key(SOURCE, option=1)
    assert cache.get(key) is None
    cache.put(key, {"value": [1, 2, 3]})
    assert cache.get(key) == {"value": [1, 2, 3]}
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["stores"] == 1
    assert cache.hit_rate == 0.5


def test_hits_return_fresh_copies():
    # the defense against in-place mutation: every get materializes a
    # private object graph, and put snapshots at store time
    cache = PipelineCache()
    key = cache.key(SOURCE)
    state = {"body": ["stmt"]}
    cache.put(key, state)
    state["body"].append("mutated-after-put")

    first = cache.get(key)
    assert first == {"body": ["stmt"]}  # put-time snapshot, not live object
    first["body"].append("mutated-after-get")
    second = cache.get(key)
    assert second == {"body": ["stmt"]}
    assert second is not first


def test_disk_persistence_across_instances(tmp_path):
    directory = str(tmp_path / "cache")
    writer = PipelineCache(directory=directory)
    key = writer.key(SOURCE, size=3)
    writer.put(key, ("solved", 42))

    reader = PipelineCache(directory=directory)  # fresh process stand-in
    assert len(reader) == 0
    assert reader.get(key) == ("solved", 42)
    assert reader.hits == 1


def test_memory_eviction_keeps_disk_entries(tmp_path):
    cache = PipelineCache(directory=str(tmp_path), max_memory_entries=2)
    keys = [cache.key(f"{SOURCE}{i}") for i in range(4)]
    for i, key in enumerate(keys):
        cache.put(key, i)
    assert len(cache) == 2  # LRU-evicted down to the bound
    # evicted entries still hit through the disk layer
    assert cache.get(keys[0]) == 0


def test_corrupt_disk_entry_is_a_miss_not_a_crash(tmp_path):
    # a writer killed mid-write, a torn disk, a copied cache directory:
    # the snapshot file exists but no longer unpickles
    directory = str(tmp_path)
    writer = PipelineCache(directory=directory)
    key = writer.key(SOURCE)
    writer.put(key, {"value": 1})
    path = writer._path(key)
    with open(path, "wb") as handle:
        handle.write(b"\x80\x05 not a pickle")

    reader = PipelineCache(directory=directory)
    assert reader.get(key) is None  # miss, not UnpicklingError
    stats = reader.stats()
    assert stats["corrupt"] == 1 and stats["misses"] == 1
    assert not tmp_path.joinpath(os.path.basename(path)).exists()  # evicted
    # the next put heals the slot
    reader.put(key, {"value": 2})
    assert reader.get(key) == {"value": 2}


def test_truncated_disk_entry_counts_as_corrupt(tmp_path):
    cache = PipelineCache(directory=str(tmp_path))
    key = cache.key(SOURCE)
    payload = cache.put(key, ("solved", 42))
    path = cache._path(key)
    with open(path, "wb") as handle:
        handle.write(payload[: len(payload) // 2])  # torn write

    fresh = PipelineCache(directory=str(tmp_path))
    assert fresh.get(key) is None
    assert fresh.corrupt == 1
    assert not os.path.exists(path)


def test_corrupt_memory_entry_is_evicted():
    cache = PipelineCache()
    key = cache.key(SOURCE)
    cache.put(key, 1)
    cache._memory[key] = b"garbage"
    assert cache.get(key) is None
    assert key not in cache._memory
    assert cache.stats()["corrupt"] == 1


def test_clear_resets_corrupt_counter(tmp_path):
    cache = PipelineCache(directory=str(tmp_path))
    key = cache.key(SOURCE)
    cache.put(key, 1)
    cache._memory[key] = b"garbage"
    cache.get(key)
    assert cache.corrupt == 1
    cache.clear()
    assert cache.stats()["corrupt"] == 0


def _flip(payload, offset):
    """``payload`` with one bit of the byte at ``offset`` flipped."""
    flipped = bytearray(payload)
    flipped[offset] ^= 1 << (offset % 8)
    return bytes(flipped)


def test_a_flipped_bit_anywhere_in_a_disk_entry_is_a_counted_miss(tmp_path):
    """The one entry a compile stores — its result — is checked byte by
    byte: each flipped bit makes ``get`` a counted, evicted miss, and a
    compile through the damaged cache recompiles the cacheless output,
    never an exception or damaged text."""
    directory = str(tmp_path)
    cold = compile_one("fig11", FIG11_SOURCE)
    expected = (cold.annotated_source, cold.reads, cold.writes)
    compile_one("fig11", FIG11_SOURCE, cache=PipelineCache(directory))
    name, = os.listdir(directory)  # the one entry: <key>.pickle
    assert name.endswith(".pickle")
    key = name[:-len(".pickle")]
    path = tmp_path / name
    good = path.read_bytes()
    for offset in range(len(good)):
        path.write_bytes(_flip(good, offset))
        cache = PipelineCache(directory)
        assert cache.get(key) is None, offset
        assert (cache.corrupt, cache.misses) == (1, 1), offset
        assert not path.exists()  # evicted
    for offset in range(len(good)):
        path.write_bytes(_flip(good, offset))
        cache = PipelineCache(directory)
        compiled = compile_one("fig11", FIG11_SOURCE, cache=cache)
        assert not compiled.cache_hit, offset
        assert (compiled.annotated_source, compiled.reads,
                compiled.writes) == expected, offset
        assert cache.corrupt == 1


def _orphan_tmp(tmp_path, name="deadbeef.tmp", age_s=2 * TMP_SWEEP_AGE_S):
    """A ``*.tmp`` staging file whose writer 'crashed' ``age_s`` ago."""
    path = tmp_path / name
    path.write_bytes(b"half a pickle")
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))
    return path


def test_open_sweeps_orphaned_tmp_files(tmp_path):
    # regression: a worker killed between mkstemp and the atomic rename
    # (crash mid-write) leaks its staging file forever; opening a cache
    # on the directory must heal it
    seeder = PipelineCache(directory=str(tmp_path))
    key = seeder.key(SOURCE)
    seeder.put(key, 1)
    orphan = _orphan_tmp(tmp_path)

    cache = PipelineCache(directory=str(tmp_path))
    assert not orphan.exists()
    assert cache.swept_tmp == 1
    assert cache.stats()["swept_tmp"] == cache.swept_tmp
    assert cache.get(key) == 1  # real entries untouched


def test_sweep_spares_fresh_tmp_from_live_writers(tmp_path):
    # a young staging file may belong to a writer in a sibling process
    # that is mid-put right now — the age gate must leave it alone
    fresh = tmp_path / "inflight.tmp"
    fresh.write_bytes(b"being written")
    cache = PipelineCache(directory=str(tmp_path))
    assert fresh.exists()
    assert cache.swept_tmp == 0


def test_sweep_ignores_non_tmp_files(tmp_path):
    entry = _orphan_tmp(tmp_path, name="not-a-staging-file.pickle")
    cache = PipelineCache(directory=str(tmp_path))
    assert entry.exists()
    assert cache.swept_tmp == 0


def test_crashed_writer_then_reopen_round_trips(tmp_path):
    # end to end: orphan present, cache opens, sweeps, and normal
    # operation (including new atomic writes) proceeds
    _orphan_tmp(tmp_path)
    cache = PipelineCache(directory=str(tmp_path))
    key = cache.key(SOURCE, run=2)
    cache.put(key, {"solved": True})
    assert [name for name in os.listdir(tmp_path)
            if name.endswith(".tmp")] == []
    fresh = PipelineCache(directory=str(tmp_path))
    assert fresh.get(key) == {"solved": True}


def test_clear_resets_memory_and_counters(tmp_path):
    cache = PipelineCache(directory=str(tmp_path))
    key = cache.key(SOURCE)
    cache.put(key, 1)
    cache.get(key)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats()["hits"] == 0 and cache.stats()["stores"] == 0
    # on-disk entries survive clear()
    assert cache.get(key) == 1


def test_clear_resets_swept_tmp_counter(tmp_path):
    # regression: clear() reset every counter except swept_tmp, so a
    # cleared cache kept reporting sweeps from a previous lifetime
    _orphan_tmp(tmp_path)
    cache = PipelineCache(directory=str(tmp_path))
    assert cache.swept_tmp == 1
    cache.clear()
    assert cache.swept_tmp == 0
    assert cache.stats()["swept_tmp"] == 0


def test_lru_hot_entry_survives_eviction():
    # regression: the in-memory layer evicted in pure insertion order,
    # so the hottest entry died first once the cache filled up
    cache = PipelineCache(max_memory_entries=2)
    hot, cold, new = (cache.key(f"{SOURCE}{i}") for i in range(3))
    cache.put(hot, "hot")
    cache.put(cold, "cold")
    assert cache.get(hot) == "hot"  # touch: hot is now most recent
    cache.put(new, "new")  # evicts cold, not hot
    assert cache.get(hot) == "hot"
    assert cache.get(new) == "new"
    assert cache.get(cold) is None  # memory-only: evicted for good


def test_fingerprint_rejects_non_primitive_options():
    # regression: arbitrary objects were silently folded via repr(), so
    # two semantically equal options could alias or split cache keys
    # depending on their repr stability
    with pytest.raises(TypeError, match="option"):
        source_fingerprint(SOURCE, pipeline={"solver_backend": "planned"})
    with pytest.raises(TypeError, match="option"):
        source_fingerprint(SOURCE, callback=lambda: None)
    with pytest.raises(TypeError, match="option"):
        source_fingerprint(SOURCE, nested=(1, (2, 3)))
    # the primitive vocabulary (and flat tuples of it) stays legal
    assert source_fingerprint(SOURCE, a=True, b=2, c=2.5, d="x", e=None,
                              f=("p", 1, None))
