"""Content-addressed cache for compile results (``docs/scaling.md``).

The :class:`PipelineCache` stores what
:func:`~repro.batch.driver.compile_one` returns — annotated source,
placement counts and stable trace — keyed by a SHA-256 fingerprint of
the source text plus every option that shapes the output.

Three properties are load-bearing:

* **Entries are stored as pickle bytes, not objects.**
  :meth:`put` snapshots the value *at store time* and :meth:`get`
  materializes a fresh object on every hit, so a caller that mutates
  what it got back can never change what the next caller sees.
* **Every payload carries its digest.**  A BLAKE2b digest of the pickle
  bytes precedes them.  An entry whose bytes no longer match it, or
  that fails to unpickle for any reason, is evicted and counted as a
  corrupt miss: a flipped byte on disk costs a recompile, and is never
  served or raised.
* **Keys are content addresses.** The same text with the same options
  always maps to the same key, across processes and across runs (with a
  ``directory``), so a warm disk cache survives restarts.

The cache is in-memory by default; give it a ``directory`` to persist
entries (one ``<key>.pickle`` file per entry, written atomically via
rename so a crashed
writer never leaves a torn entry behind; the ``*.tmp`` staging file a
writer killed mid-write leaks is swept the next time a cache opens the
directory).
"""

import hashlib
import os
import pickle
import tempfile
import time
from collections import OrderedDict

#: Bump when the pickled payload layout, or a verdict baked into it,
#: changes: fingerprints include it, so stale on-disk entries simply miss
#: (``/3``: prepared snapshots whose optimistic WRITE placement only a
#: bounded path sample certified; ``/4``: flow graphs that carry a
#: structural version, interval graphs keyed by edge letter; ``/5``:
#: letter-major interval adjacency, and snapshots without solver views
#: or plans; ``/6``: compile results instead of solver snapshots, each
#: payload behind its digest; ``/7``: ``hardened`` in the result key,
#: and each result holds its rung; ``/8``: stored traces whose solver
#: events lost the sparse-fixpoint fields, and result keys without a
#: backend option).
CACHE_SCHEMA = "repro-batch-cache/8"

#: Size of the BLAKE2b digest stored in front of every pickled payload.
DIGEST_BYTES = 16

#: Option values allowed into a fingerprint: their ``repr`` is stable
#: across processes and runs.  Anything else (an object with the default
#: ``<... at 0x7f...>`` repr, a dict, a set with arbitrary iteration
#: order) would poison the key with per-process noise.
_FINGERPRINT_SCALARS = (bool, int, float, str, type(None))

#: A ``*.tmp`` staging file older than this is an orphan — its writer
#: crashed between :func:`tempfile.mkstemp` and the atomic rename — and
#: is swept when a cache opens the directory.  Younger files may belong
#: to a live writer in another process and are left alone.
TMP_SWEEP_AGE_S = 60.0


def validate_fingerprint_value(name, value):
    """Reject option values whose ``repr`` is not a stable content
    address.

    An object with the default ``repr`` (``<Foo object at 0x7f...>``)
    would fold a per-process heap address into the key — the entry could
    never hit again across runs, silently turning the cache into a pure
    write path.  Only primitives (bool/int/float/str/None) and flat
    tuples thereof are allowed; everything else raises immediately so
    the bad call site is loud instead of the cache quietly cold."""
    if isinstance(value, _FINGERPRINT_SCALARS):
        return
    if isinstance(value, tuple):
        for item in value:
            if not isinstance(item, _FINGERPRINT_SCALARS):
                raise TypeError(
                    f"cache option {name!r} contains non-primitive tuple "
                    f"item {item!r} ({type(item).__name__}); fingerprint "
                    f"values must be bool/int/float/str/None or flat "
                    f"tuples thereof")
        return
    raise TypeError(
        f"cache option {name!r} has non-primitive value {value!r} "
        f"({type(value).__name__}); fingerprint values must be "
        f"bool/int/float/str/None or flat tuples thereof")


def source_fingerprint(text, **options):
    """The content address of ``text`` compiled under ``options``.

    Options are folded into the hash in sorted order, so keyword order
    never matters.  Values must be primitives (bool/int/float/str/None)
    or flat tuples thereof — anything whose ``repr`` is not stable
    across processes raises :class:`TypeError` rather than minting an
    unrepeatable key."""
    digest = hashlib.sha256()
    digest.update(CACHE_SCHEMA.encode())
    digest.update(b"\x00")
    digest.update(text.encode())
    for name in sorted(options):
        validate_fingerprint_value(name, options[name])
        digest.update(f"\x00{name}={options[name]!r}".encode())
    return digest.hexdigest()


def _digest(body):
    return hashlib.blake2b(body, digest_size=DIGEST_BYTES).digest()


class PipelineCache:
    """Content-addressed pickle store with hit/miss stats.

    Not thread-safe: a cache has one owner, and only the owner's thread
    calls it — :func:`~repro.batch.driver.compile_one`'s caller,
    :func:`~repro.batch.driver.compile_many`'s parent process, or the
    compile service's event loop; pool workers never see it.

    ``directory=None`` keeps entries in memory only (fastest); with a
    directory every entry is also written to disk, keeping the cache
    warm across runs.  ``max_memory_entries`` bounds the in-memory layer with LRU
    eviction — a hit refreshes recency, so hot entries survive no matter
    how early they were inserted; disk entries are never evicted here.
    """

    def __init__(self, directory=None, max_memory_entries=1024):
        self.directory = directory
        self.max_memory_entries = max_memory_entries
        # key -> pickle bytes, ordered cold -> hot
        self._memory = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.swept_tmp = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self.swept_tmp = self._sweep_orphaned_tmp()

    def _sweep_orphaned_tmp(self, max_age_s=TMP_SWEEP_AGE_S):
        """Remove ``*.tmp`` staging files a crashed writer left behind.

        :meth:`put` writes entries to a ``mkstemp`` file and renames it
        into place; a writer killed between the two leaves the
        temporary behind forever (the atomic rename means it never
        becomes an entry — it just leaks disk).  Sweeping on open heals
        the directory; the age gate keeps a concurrently *live* writer
        in a sibling process safe."""
        swept = 0
        cutoff = time.time() - max_age_s
        try:
            names = os.listdir(self.directory)
        except OSError:
            return swept
        for name in names:
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(self.directory, name)
            try:
                if os.path.getmtime(path) <= cutoff:
                    os.unlink(path)
                    swept += 1
            except OSError:
                pass  # racing sweeper or live writer won; fine either way
        return swept

    # -- keying --------------------------------------------------------------

    def key(self, text, **options):
        """Fingerprint ``text`` + ``options`` (see
        :func:`source_fingerprint`)."""
        return source_fingerprint(text, **options)

    # -- storage -------------------------------------------------------------

    def get(self, key):
        """The entry for ``key`` as a *fresh* object graph, or ``None``
        on a miss.

        An entry whose bytes fail their digest or fail to unpickle — a
        torn disk, a flipped bit, a copied cache directory — is treated
        as a miss, not a crash: the bad entry is evicted (so the next
        :meth:`put` heals it) and counted under ``stats()["corrupt"]``."""
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
        from_disk = False
        if payload is None and self.directory is not None:
            try:
                with open(self._path(key), "rb") as handle:
                    payload = handle.read()
            except OSError:
                payload = None
            else:
                from_disk = True
        if payload is None:
            self.misses += 1
            return None
        try:
            body = payload[DIGEST_BYTES:]
            if _digest(body) != payload[:DIGEST_BYTES]:
                raise ValueError("payload digest mismatch")
            state = pickle.loads(body)
        except Exception:
            self._evict_corrupt(key)
            self.corrupt += 1
            self.misses += 1
            return None
        if from_disk:
            self._remember(key, payload)
        self.hits += 1
        return state

    def _evict_corrupt(self, key):
        """Drop an entry that failed its digest or unpickling from both
        layers."""
        self._memory.pop(key, None)
        if self.directory is not None:
            try:
                os.unlink(self._path(key))
            except OSError:
                pass

    def put(self, key, state):
        """Snapshot ``state`` (pickle now, so later mutation of the live
        object cannot leak into the cache) and store it behind its
        digest; returns the stored bytes."""
        body = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        payload = _digest(body) + body
        self._remember(key, payload)
        if self.directory is not None:
            path = self._path(key)
            handle, temp_path = tempfile.mkstemp(dir=self.directory,
                                                 suffix=".tmp")
            try:
                with os.fdopen(handle, "wb") as temp:
                    temp.write(payload)
                os.replace(temp_path, path)
            except OSError:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        self.stores += 1
        return payload

    def _remember(self, key, payload):
        memory = self._memory
        memory[key] = payload
        memory.move_to_end(key)
        while len(memory) > self.max_memory_entries:
            memory.popitem(last=False)

    def _path(self, key):
        return os.path.join(self.directory, f"{key}.pickle")

    # -- introspection -------------------------------------------------------

    def __len__(self):
        return len(self._memory)

    @property
    def hit_rate(self):
        """Hits over lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "swept_tmp": self.swept_tmp,
            "hit_rate": self.hit_rate,
            "memory_entries": len(self._memory),
            "directory": self.directory,
        }

    def clear(self):
        """Drop the in-memory layer and reset the counters (on-disk
        entries are left alone)."""
        self._memory.clear()
        self.hits = self.misses = self.stores = self.corrupt = 0
        self.swept_tmp = 0
