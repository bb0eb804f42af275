"""Concurrent pulse-serving front end over a sharded store.

:class:`PulseServer` is the piece instruction-driven controllers hang
off the compressed waveform memory: gate issue asks for a decoded
pulse, the hot set answers from the
:class:`~repro.store.cache.PulseCache`, and misses are demand-fetched
from the :class:`~repro.store.sharded.ShardedStore` and decoded
in-process, inline on the read path (:meth:`PulseServer._fill` is the
one place a cold miss is decoded).  It is safe to call from many
threads at once and adds two policies the cache deliberately does not
have:

* **Single-flight fills.**  Every fill happens under one fill lock:
  when N threads miss on the same pulses at the same moment, one of
  them decodes while the rest wait and then take the freshly cached
  result (counted in ``coalesced_fills``).  The same pulse is never
  decoded twice concurrently.  Hits never take the fill lock, so warm
  traffic never waits for a fill.  This is the only place concurrent
  fetches are deduplicated: the network tier
  (:class:`~repro.serve_net.NetPulseServer`) hands every fetch
  straight to :meth:`PulseServer.fetch_batch` on an executor thread.

* **One fused decode per cold batch.**  :meth:`fetch_batch` hands all
  of a batch's misses to one fill on the calling thread, which decodes
  them with one :meth:`PulseCache.load_many` -- one
  :meth:`~repro.store.sharded.ShardedStore.decode_many` call -- so
  the fused decoder sees the whole batch.

Served samples are bit-identical to the scalar reference
(:func:`repro.compression.pipeline.decompress_channel` via
``decompress_waveform``): the cache decodes through the fused
:meth:`~repro.store.sharded.ShardedStore.decode_many`, whose
conformance with the scalar path is enforced by the fast-path fuzz
suite and re-checked end-to-end by the serving benchmark's identity
gate.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import StoreError
from repro.obs import MetricsRegistry
from repro.obs import trace as obs_trace
from repro.pulses.waveform import Waveform
from repro.store.cache import PulseCache
from repro.store.hooks import preempt
from repro.store.sharded import ShardedStore, normalize_key

__all__ = ["PulseServer"]

_Key = Tuple[str, Tuple[int, ...]]


class PulseServer:
    """Thread-safe ``fetch`` / ``fetch_batch`` over store + cache.

    Args:
        store: The compressed pulse store to serve from.
        cache_capacity: Decoded hot-set size.
        max_workers: Has no effect: every fill runs on the calling
            thread.  Kept (and still checked to be >= 1) for callers
            that pass it.
        metrics: Registry for the ``server.*`` and ``cache.*`` counters
            and the fill latency histogram.  Defaults to a private
            registry, which the cache writes into as well.

    Use as a context manager, or call :meth:`close` to release the
    store's mmap pool; serving after ``close`` still works -- the pool
    remaps shards on demand.
    """

    def __init__(
        self,
        store: ShardedStore,
        cache_capacity: int = 64,
        max_workers: int = 4,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_workers < 1:
            raise StoreError(f"max_workers must be >= 1, got {max_workers}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = PulseCache(store, cache_capacity, metrics=self.metrics)
        self._fill_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._refresh_lock = threading.Lock()
        self._requests = self.metrics.counter("server.requests")
        self._batches = self.metrics.counter("server.batches")
        self._shard_fills = self.metrics.counter("server.shard_fills")
        self._coalesced_fills = self.metrics.counter("server.coalesced_fills")
        self._fill_seconds = self.metrics.histogram("server.fill_seconds")

    @property
    def store(self) -> ShardedStore:
        """The store snapshot being served (the cache's)."""
        return self.cache.store

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release store handles.

        Idempotent.  The cache's ``close`` cascades to the store's mmap
        pool; because the pool remaps on demand, a store behind several
        servers keeps working after one of them closes.
        """
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
            waveform = self._fill([key])[key]
        with self._stats_lock:
            self._requests.inc()
        return waveform

    def fetch_batch(
        self, requests: Sequence[Tuple[str, Sequence[int]]]
    ) -> List[Waveform]:
        """Serve a batch; all of its misses fill in one fused decode.

        Results come back in request order; duplicate keys are served
        from a single decode.
        """
        keys = [normalize_key(*request) for request in requests]
        resolved: Dict[_Key, Waveform] = {}
        misses: List[_Key] = []
        for key in dict.fromkeys(keys):
            waveform = self.cache.lookup(*key)
            if waveform is not None:
                resolved[key] = waveform
            else:
                misses.append(key)
        if misses:
            resolved.update(self._fill(misses))
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

        Readers are never blocked: adoption swaps the one snapshot
        reference under the cache lock only, and fills in flight against
        the old snapshot complete normally -- they return their
        (snapshot-consistent) waveforms but skip the cache insert, so
        the cache never mixes generations.
        """
        with self._refresh_lock:
            current = self.store
            fresh = ShardedStore.open(current.path)
            if fresh.generation == current.generation:
                fresh.close()
                return False
            invalidated = self.cache.adopt_store(fresh)
            self.metrics.counter("server.generation_adoptions").inc()
            self.metrics.counter("server.refresh_invalidations").inc(invalidated)
            current.close()
            return True

    # -- fills -----------------------------------------------------------------

    def _fill(self, keys: List[_Key]) -> Dict[_Key, Waveform]:
        """Resolve misses in one fused decode under the fill lock.

        Every key is resolved first, so an unknown key fails typed
        before the lock is held.  Keys another thread decoded while we
        waited are taken from the cache (coalesced); the remainder is
        read and decoded in one batch, in this thread, still under the
        lock (:meth:`PulseCache.load_many` -> ``ShardedStore.decode_many``).
        """
        for key in keys:
            self.store.record_info(*key)
        out: Dict[_Key, Waveform] = {}
        coalesced = 0
        started = time.perf_counter()
        with obs_trace.span("server.fill", keys=len(keys)):
            preempt("server.fill.pre_lock")
            with self._fill_lock:
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
        """Registry snapshot: the server's and its cache's series."""
        return self.metrics.snapshot()

    def stats(self) -> Dict:
        """This server's counters, with its cache's under ``"cache"``."""
        with self._stats_lock:
            return {
                "requests": self._requests.value,
                "batches": self._batches.value,
                "shard_fills": self._shard_fills.value,
                "coalesced_fills": self._coalesced_fills.value,
                "cache": self.cache.stats(),
            }
