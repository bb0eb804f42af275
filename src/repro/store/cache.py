"""A bounded LRU cache of *decoded* waveforms over a sharded store.

This is the paper's memory hierarchy made explicit: the compressed
image lives in the :class:`~repro.store.sharded.ShardedStore` (cheap,
large), and a small hot set of fully decoded
:class:`~repro.pulses.waveform.Waveform` objects lives here (expensive,
bounded).  Every miss is a demand fetch -- one offset-indexed record
read plus a decode -- and :meth:`PulseCache.load_many` amortizes decode
cost by reading the missed records per shard (sequential, mmap-backed
I/O) and pushing *all* of them through the fused parse→decode fast
path (:meth:`repro.store.sharded.ShardedStore.decode_many`, built on
:mod:`repro.compression.fastpath`) in one call instead of decoding
pulse by pulse -- bit-identical to the scalar reference.

The cache holds primitives, not a read path: :meth:`~PulseCache.lookup`
(counted probe), :meth:`~PulseCache.peek` (uncounted probe),
:meth:`~PulseCache.load_many` (fill) and :meth:`~PulseCache.prewarm`.
:meth:`repro.store.server.PulseServer.fetch_batch` composes them into
the one read path.  The cache is thread-safe (a single reentrant lock
guards the LRU map and counters) but deliberately does **not**
deduplicate concurrent misses for the same pulse -- that single-flight
policy belongs to the serving layer, which fills all of a batch's
misses with one :meth:`PulseCache.load_many` call while holding its
one fill lock.

Counters (hits / misses / insertions / evictions) are monotonic and
exact: every :meth:`lookup` resolves one key to exactly one hit or one
miss, capacity is never exceeded, and eviction strictly follows
least-recent use.  The property suite in ``tests/test_serving.py``
holds the implementation to a shadow-model of exactly these rules.

The counters live in a :class:`repro.obs.MetricsRegistry` (each cache
owns a private one unless the caller passes ``metrics=``), and
:meth:`PulseCache.stats` reads those same counter objects into a plain
dict -- one set of books for both surfaces.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StoreError
from repro.obs import MetricsRegistry
from repro.pulses.waveform import Waveform
from repro.store.hooks import preempt
from repro.store.sharded import ShardedStore, normalize_key

__all__ = ["PulseCache"]

_Key = Tuple[str, Tuple[int, ...]]


def _lock_samples(waveform: Waveform) -> Waveform:
    """Make a waveform's sample buffer immutable through *every* alias.

    The cache hands the very same :class:`Waveform` object to every
    hit, so a caller mutating ``.samples`` would silently corrupt each
    later hit (and break the serving bench's bit-identity gate).  A
    bare ``writeable=False`` flag is not enough:

    * an array that **owns** its buffer can have the flag flipped back
      with ``setflags(write=True)``, and
    * an array whose **base** is writable (a view of caller memory)
      can be mutated through that base without touching the flag.

    So the cached array must be a *view over a read-only owner*: numpy
    then refuses ``setflags(write=True)`` on the served array outright.
    Waveforms off the fused decode path already own read-only buffers
    (no copy here); anything aliasing writable memory is copied once at
    insert time.
    """
    samples = waveform.samples
    owner = samples
    while isinstance(owner, np.ndarray) and owner.base is not None:
        owner = owner.base
    if not isinstance(owner, np.ndarray) or owner.flags.writeable:
        # Aliases caller-writable memory (or a writable non-array
        # buffer): re-own on a private read-only copy.
        samples = samples.copy()
        samples.setflags(write=False)
        owner = samples
    if samples is owner:
        # Owning arrays can re-enable writeability; a view of the
        # (read-only) owner cannot.
        samples = samples[:]
    if samples is waveform.samples:
        return waveform
    locked = object.__new__(Waveform)
    set_ = object.__setattr__
    set_(locked, "name", waveform.name)
    set_(locked, "samples", samples)
    set_(locked, "dt", waveform.dt)
    set_(locked, "gate", waveform.gate)
    set_(locked, "qubits", waveform.qubits)
    set_(locked, "metadata", waveform.metadata)
    return locked


class PulseCache:
    """Bounded LRU of decoded waveforms, demand-filled from a store.

    Args:
        store: The compressed source of truth.
        capacity: Maximum decoded pulses held (>= 1).  Decoded IBM
            pulses run ~1-10 KB each, so capacity is effectively the
            hot-set budget in pulse count.
        metrics: Registry to record ``cache.*`` counters in.  Defaults
            to a private per-cache registry so multiple caches never
            pool their counts.
    """

    def __init__(
        self,
        store: ShardedStore,
        capacity: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise StoreError(f"cache capacity must be >= 1, got {capacity}")
        self.store = store
        self.capacity = capacity
        self._lru: "OrderedDict[_Key, Waveform]" = OrderedDict()
        # Record version each cached entry was decoded at (CQS2): the
        # adoption path evicts on (key, version) change, and in-flight
        # fills that raced an adoption are dropped via the epoch.
        self._versions: Dict[_Key, int] = {}
        self._epoch = 0
        self._lock = threading.RLock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits")
        self._misses = self.metrics.counter("cache.misses")
        self._insertions = self.metrics.counter("cache.insertions")
        self._evictions = self.metrics.counter("cache.evictions")
        self._invalidations = self.metrics.counter("cache.invalidations")

    # -- probes ---------------------------------------------------------------

    def lookup(self, gate: str, qubits: Sequence[int]) -> Optional[Waveform]:
        """Counted cache probe: hit refreshes recency, miss loads nothing."""
        key = normalize_key(gate, qubits)
        with self._lock:
            cached = self._lru.get(key)
            if cached is not None:
                self._hits.inc()
                self._lru.move_to_end(key)
            else:
                self._misses.inc()
            return cached

    def peek(self, gate: str, qubits: Sequence[int]) -> Optional[Waveform]:
        """Uncounted probe: touches neither counters nor LRU order.

        The serving layer uses this to re-check after acquiring its fill
        lock without double-counting the original miss.
        """
        with self._lock:
            return self._lru.get(normalize_key(gate, qubits))

    # -- fills ----------------------------------------------------------------

    def load_many(
        self, keys: Sequence[Tuple[str, Sequence[int]]]
    ) -> Dict[_Key, Waveform]:
        """Fetch, fused-decode, and insert the given pulses unconditionally.

        Records are read as zero-copy mmap span views in per-shard,
        offset-ordered sequence and decoded through **one**
        :meth:`~repro.store.sharded.ShardedStore.decode_many` call (the
        fused bytes→waveform fast path).  Counters are untouched (the
        caller already accounted the misses); insertions and any
        evictions they force are recorded.
        """
        unique: List[_Key] = list(
            dict.fromkeys(normalize_key(*key) for key in keys)
        )
        if not unique:
            return {}
        with self._lock:
            store = self.store
            epoch = self._epoch
        decoded = store.decode_many(unique)
        preempt("cache.load.pre_insert")
        out: Dict[_Key, Waveform] = {}
        with self._lock:
            # A generation adoption that raced this fill makes the
            # decoded snapshot stale for *caching* (the reader still
            # gets its consistent snapshot back) -- inserting would
            # resurrect superseded samples into a newer-generation
            # cache.
            stale = self._epoch != epoch
            for key, waveform in zip(unique, decoded):
                if stale:
                    out[key] = _lock_samples(waveform)
                else:
                    out[key] = self._insert(key, waveform, store)
        return out

    def prewarm(self) -> int:
        """Fill the cache from the live index, one shard file at a time.

        Walks every shard file and decodes each one's not-yet-cached
        live keys with one :meth:`load_many` call -- one fused
        ``decode_many`` batch per shard, so the decode working set is
        one shard's pulses, never the whole library.  Once capacity is
        reached, remaining pulses and shards are skipped rather than
        decoded and churned straight back out.  Counters stay untouched
        (prewarming is not traffic).  Returns the number of pulses
        *newly* inserted: re-warming keys that are already resident
        counts zero, so a second ``prewarm`` over an unchanged cache
        reports 0 rather than the whole library again.
        """
        store = self.store
        by_shard: List[List[_Key]] = [[] for _ in range(store.shard_count)]
        for key in store.keys():
            by_shard[store.record_info(*key).shard].append(key)
        inserted = 0
        for members in by_shard:
            with self._lock:
                room = self.capacity - len(self._lru)
                todo = [key for key in members if key not in self._lru]
            if room <= 0:
                break
            if todo:
                inserted += len(self.load_many(todo[:room]))
        return inserted

    def _insert(
        self, key: _Key, waveform: Waveform, store: Optional[ShardedStore] = None
    ) -> Waveform:
        """Insert under the lock, evicting least-recent entries to fit.

        Stores -- and returns -- the sample-locked form of the waveform
        (see :func:`_lock_samples`): the one object every later hit is
        served, with a buffer no caller can re-enable writes on.  The
        entry is tagged with its record version from ``store`` (the
        snapshot it was decoded against) so generation adoption can
        invalidate precisely.
        """
        if store is None:
            store = self.store
        try:
            version = store.record_info(*key).version
        except StoreError:
            version = 1
        already_present = key in self._lru
        waveform = _lock_samples(waveform)
        self._lru[key] = waveform
        self._versions[key] = version
        self._lru.move_to_end(key)
        if not already_present:
            self._insertions.inc()
            while len(self._lru) > self.capacity:
                evicted, _waveform = self._lru.popitem(last=False)
                self._versions.pop(evicted, None)
                self._evictions.inc()
        return waveform

    # -- generation adoption ---------------------------------------------------

    def adopt_store(self, new_store: ShardedStore) -> int:
        """Swap to a newer store generation; invalidate by (key, version).

        Entries whose record version is unchanged in the new generation
        stay hot (compaction moves bytes, not content); entries that
        were re-put or tombstoned are dropped.  Each drop counts as one
        ``cache.evictions`` (preserving the ``insertions - evictions ==
        size`` law) and one ``cache.invalidations`` (so the two causes
        stay distinguishable in the registry).  Returns the number of
        entries invalidated.
        """
        with self._lock:
            if new_store is self.store:
                return 0
            self.store = new_store
            self._epoch += 1
            stale: List[_Key] = []
            for key, version in self._versions.items():
                try:
                    current = new_store.record_info(*key).version
                except StoreError:
                    current = -1
                if current != version:
                    stale.append(key)
            for key in stale:
                self._lru.pop(key, None)
                self._versions.pop(key, None)
                self._evictions.inc()
                self._invalidations.inc()
            return len(stale)

    # -- bookkeeping ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def __contains__(self, key: Tuple[str, Sequence[int]]) -> bool:
        with self._lock:
            return normalize_key(*key) in self._lru

    def cached_keys(self) -> List[_Key]:
        """Keys currently held, least-recently used first."""
        with self._lock:
            return list(self._lru.keys())

    def clear(self) -> None:
        """Drop every cached waveform (counters keep their history)."""
        with self._lock:
            self._lru.clear()
            self._versions.clear()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the backing store's mmap pool (idempotent).

        Cached waveforms stay served; a later miss remaps its shard on
        demand, so sharing one store behind several caches is safe.
        """
        self.store.close()

    def __enter__(self) -> "PulseCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """This cache's registry snapshot (``cache.*`` series)."""
        return self.metrics.snapshot()

    def stats(self) -> Dict[str, float]:
        """This cache's counters, read under its lock.

        ``hit_rate`` is hits per lookup, 0.0 before any traffic.
        """
        with self._lock:
            hits, misses = self._hits.value, self._misses.value
            return {
                "capacity": self.capacity,
                "size": len(self._lru),
                "hits": hits,
                "misses": misses,
                "insertions": self._insertions.value,
                "evictions": self._evictions.value,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }
