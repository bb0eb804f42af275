"""Concurrent pulse-serving front end over a sharded store.

:class:`PulseServer` is the piece instruction-driven controllers hang
off the compressed waveform memory: gate issue asks for a decoded
pulse, the hot set answers from the
:class:`~repro.store.cache.PulseCache`, and misses are demand-fetched
from the :class:`~repro.store.sharded.ShardedStore` and decoded
in-process, inline on the read path (:meth:`PulseServer._fill_shard`
is the one place a cold miss is decoded).  It is safe to call from
many threads at once and adds two policies the cache deliberately
does not have:

* **Per-shard single-flight.**  Every fill happens under that shard's
  lock: when N threads miss on the same (or co-sharded) pulses at the
  same moment, one of them decodes while the rest wait and then take
  the freshly cached result (counted in ``coalesced_fills``).  The
  same window is never decoded twice concurrently.  This is the only
  place concurrent fetches are deduplicated: the network tier
  (:class:`~repro.serve_net.NetPulseServer`) hands every fetch
  straight to :meth:`PulseServer.fetch_batch` on an executor thread.

* **Cross-shard parallel fills.**  :meth:`fetch_batch` groups its
  misses by shard and fans the per-shard fills out on a
  :class:`concurrent.futures.ThreadPoolExecutor`, so a batch touching
  K shards pays roughly one shard's fill latency, not K.

Served samples are bit-identical to the scalar reference
(:func:`repro.compression.pipeline.decompress_channel` via
``decompress_waveform``): the cache decodes through the fused
:meth:`~repro.store.sharded.ShardedStore.decode_many`, whose
conformance with the scalar path is enforced by the fast-path fuzz
suite and re-checked end-to-end by the serving benchmark's identity
gate.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.obs import MetricsRegistry, merge_snapshots
from repro.obs import trace as obs_trace
from repro.pulses.waveform import Waveform
from repro.store.cache import CacheStats, PulseCache
from repro.store.hooks import preempt
from repro.store.sharded import ShardedStore, normalize_key

__all__ = ["ServerStats", "PulseServer"]

_Key = Tuple[str, Tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class ServerStats:
    """A point-in-time snapshot of one server's counters."""

    requests: int
    batches: int
    shard_fills: int
    coalesced_fills: int
    cache: CacheStats

    def as_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "shard_fills": self.shard_fills,
            "coalesced_fills": self.coalesced_fills,
            "cache": self.cache.as_dict(),
        }


class PulseServer:
    """Thread-safe ``fetch`` / ``fetch_batch`` over store + cache.

    Args:
        store: The compressed pulse store to serve from.
        cache_capacity: Decoded hot-set size (ignored when ``cache`` is
            given).
        max_workers: Threads for cross-shard parallel fills; capped at
            the store's shard count (more would never run concurrently
            under per-shard single-flight).
        cache: Optionally share a pre-built :class:`PulseCache` (e.g.
            one cache behind several servers in a test harness).
        metrics: Registry for the ``server.*`` counters and the fill
            latency histogram.  Defaults to a private registry; a
            privately built cache shares it (one merged view per
            server), while a shared ``cache=`` keeps its own registry
            and is merged in :meth:`metrics_snapshot`.

    Use as a context manager, or call :meth:`close` to release the
    fill executor and the store's mmap pool; serving after ``close``
    still works -- fills run inline on the calling thread and the pool
    remaps shards on demand.
    """

    def __init__(
        self,
        store: ShardedStore,
        cache_capacity: int = 64,
        max_workers: int = 4,
        cache: Optional[PulseCache] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_workers < 1:
            raise StoreError(f"max_workers must be >= 1, got {max_workers}")
        if cache is not None and cache.store is not store:
            raise StoreError("shared cache is bound to a different store")
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = (
            cache
            if cache is not None
            else PulseCache(store, cache_capacity, metrics=self.metrics)
        )
        # Sized to the hash-routing width; a CQS2 generation's shard
        # *table* can be wider (staged commit files), so fills index
        # these modulo len -- same single-flight guarantee, staged
        # shards simply share a lock with one base shard.
        self._shard_locks = tuple(
            threading.Lock() for _ in range(store.n_shards)
        )
        self._executor: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            max_workers=min(max_workers, store.n_shards),
            thread_name_prefix="pulse-serve",
        )
        self._stats_lock = threading.Lock()
        self._refresh_lock = threading.Lock()
        self._requests = self.metrics.counter("server.requests")
        self._batches = self.metrics.counter("server.batches")
        self._shard_fills = self.metrics.counter("server.shard_fills")
        self._coalesced_fills = self.metrics.counter("server.coalesced_fills")
        self._fill_seconds = self.metrics.histogram("server.fill_seconds")

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut down the fill executor and release store handles.

        Idempotent.  The cache's ``close`` cascades to the store's mmap
        pool; because the pool remaps on demand, a shared cache or
        store behind several servers keeps working after one of them
        closes.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self.cache.close()

    def __enter__(self) -> "PulseServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the serving API ---------------------------------------------------------

    def fetch(self, gate: str, qubits: Sequence[int]) -> Waveform:
        """Serve one decoded pulse (hit: lock-free; miss: single-flight).

        Bit-identical to ``decompress_waveform(store.read_record(...))``.
        """
        key = normalize_key(gate, qubits)
        waveform = self.cache.lookup(*key)
        if waveform is None:
            waveform = self._fill_shard(self.store.shard_of(*key), [key])[key]
        with self._stats_lock:
            self._requests.inc()
        return waveform

    def fetch_batch(
        self, requests: Sequence[Tuple[str, Sequence[int]]]
    ) -> List[Waveform]:
        """Serve a batch; misses fill per shard, shards fill in parallel.

        Results come back in request order; duplicate keys are served
        from a single decode.
        """
        keys = [normalize_key(*request) for request in requests]
        resolved: Dict[_Key, Waveform] = {}
        missing_by_shard: Dict[int, List[_Key]] = {}
        for key in dict.fromkeys(keys):
            waveform = self.cache.lookup(*key)
            if waveform is not None:
                resolved[key] = waveform
            else:
                shard = self.store.shard_of(*key)
                missing_by_shard.setdefault(shard, []).append(key)
        if missing_by_shard:
            executor = self._executor
            filled = False
            if executor is not None and len(missing_by_shard) > 1:
                try:
                    # copy_context(): run_in-executor threads do not
                    # inherit contextvars, and the active trace span
                    # rides on one -- each fill gets its own copy so
                    # parallel fills attach as siblings.
                    futures = [
                        executor.submit(
                            contextvars.copy_context().run,
                            self._fill_shard,
                            shard,
                            shard_keys,
                        )
                        for shard, shard_keys in missing_by_shard.items()
                    ]
                except RuntimeError:
                    # close() raced us between reading self._executor
                    # and submit(); honor the documented fallback.
                    pass
                else:
                    # Every submitted future must be retrieved even when
                    # one shard's fill fails: returning on the first
                    # error would leak "exception was never retrieved"
                    # futures and abandon fills still in flight.  The
                    # first failure propagates (typed) once all fills
                    # have settled.
                    first_error: Optional[BaseException] = None
                    for future in futures:
                        try:
                            resolved.update(future.result())
                        except BaseException as exc:
                            if first_error is None:
                                first_error = exc
                    if first_error is not None:
                        raise first_error
                    filled = True
            if not filled:
                for shard, shard_keys in missing_by_shard.items():
                    resolved.update(self._fill_shard(shard, shard_keys))
        with self._stats_lock:
            self._requests.inc(len(keys))
            self._batches.inc()
        return [resolved[key] for key in keys]

    # -- generation adoption -----------------------------------------------------

    def refresh(self) -> bool:
        """Adopt the newest committed store generation, if one exists.

        Reopens the store directory; when a different generation than
        the one being served has been committed (by a
        :class:`repro.store.writable.StoreWriter`, possibly in another
        process), swaps it in: the cache invalidates precisely by
        (key, version) via :meth:`PulseCache.adopt_store` and the old
        snapshot's mmap pool is released.  Returns ``True`` iff a new
        generation was adopted.

        Readers are never blocked: adoption swaps references under the
        cache lock only, and fills in flight against the old snapshot
        complete normally -- they return their (snapshot-consistent)
        waveforms but skip the cache insert, so the cache never mixes
        generations.
        """
        with self._refresh_lock:
            current = self.store
            fresh = ShardedStore.open(current.path, current.max_open_shards)
            if fresh.generation == current.generation:
                fresh.close()
                return False
            invalidated = self.cache.adopt_store(fresh)
            self.store = fresh
            self.metrics.counter("server.generation_adoptions").inc()
            self.metrics.counter("server.refresh_invalidations").inc(invalidated)
            current.close()
            return True

    # -- fills -----------------------------------------------------------------

    def _fill_shard(self, shard: int, keys: List[_Key]) -> Dict[_Key, Waveform]:
        """Resolve misses for one shard under its single-flight lock.

        Keys another thread decoded while we waited for the lock are
        taken from the cache (coalesced); the remainder is read and
        decoded in one batch, in this thread, still under the lock
        (:meth:`PulseCache.load_many` -> ``ShardedStore.decode_many``).
        """
        out: Dict[_Key, Waveform] = {}
        coalesced = 0
        started = time.perf_counter()
        with obs_trace.span("server.fill", shard=shard, keys=len(keys)):
            preempt("server.fill.pre_lock")
            with self._shard_locks[shard % len(self._shard_locks)]:
                preempt("server.fill.locked")
                to_load: List[_Key] = []
                for key in keys:
                    waveform = self.cache.peek(*key)
                    if waveform is not None:
                        out[key] = waveform
                        coalesced += 1
                    else:
                        to_load.append(key)
                if to_load:
                    out.update(self.cache.load_many(to_load))
        self._fill_seconds.observe(time.perf_counter() - started)
        with self._stats_lock:
            self._shard_fills.inc()
            self._coalesced_fills.inc(coalesced)
        return out

    # -- bookkeeping -------------------------------------------------------------

    def metrics_snapshot(self) -> Dict:
        """Merged registry snapshot: server + cache.

        A privately built cache already writes into this server's
        registry; a shared ``cache=`` (its own registry) is merged in
        here.
        """
        snapshots = [self.metrics.snapshot()]
        if self.cache.metrics is not self.metrics:
            snapshots.append(self.cache.metrics.snapshot())
        return merge_snapshots(*snapshots)

    def stats(self) -> ServerStats:
        """Frozen :class:`ServerStats` view over the registry counters."""
        with self._stats_lock:
            return ServerStats(
                requests=self._requests.value,
                batches=self._batches.value,
                shard_fills=self._shard_fills.value,
                coalesced_fills=self._coalesced_fills.value,
                cache=self.cache.stats(),
            )
