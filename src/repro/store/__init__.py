"""Sharded waveform store and the concurrent pulse-serving subsystem.

The read-path hierarchy between the codec/bitstream layers and a
production controller:

- :mod:`repro.store.sharded` -- the on-disk layout and its reader: one
  ``CQS2`` JSON manifest per committed generation plus ``CQL1`` shard
  files, hash-sharded by channel, with a byte-offset index so one pulse
  record is a single zero-copy span view out of one mapping per shard
  file of the served generation.
  A legacy ``CQS1`` ``manifest.json`` still opens, as generation 0.
- :mod:`repro.store.writable` -- :func:`save_store`, which publishes a
  compiled library as generation 1, and :class:`StoreWriter`, which
  commits and compacts the generations after it.
- :mod:`repro.store.cache` -- :class:`PulseCache`, a bounded LRU of
  *decoded* waveforms with exact hit/miss/eviction counters, whose
  ``load_many`` fills misses through the fused parse→decode fast path
  (``ShardedStore.decode_many``).
- :mod:`repro.store.server` -- :class:`PulseServer`, the thread-safe
  ``fetch`` / ``fetch_batch`` front end with per-shard single-flight;
  a batch's misses fill in one fused decode on the calling thread,
  under the shard locks they need, taken in ascending order.
- :mod:`repro.store.trace` -- request traces (JSON files and synthetic
  Zipf workloads) for ``repro serve`` and the serving benchmark.

Quickstart::

    from repro import CompaqtCompiler, ibm_device
    from repro.store import PulseServer, open_store, save_store

    compiler = CompaqtCompiler(window_size=16)
    compiled = compiler.compile_library(ibm_device("guadalupe").pulse_library())
    save_store(compiled, "guadalupe.cqs", n_shards=4)

    with PulseServer(open_store("guadalupe.cqs"), cache_capacity=32) as server:
        pulse = server.fetch("sx", (0,))
        batch = server.fetch_batch([("x", (1,)), ("cx", (0, 1))])
"""

from repro.store.atomic import atomic_write
from repro.store.sharded import (
    MANIFEST_NAME,
    STORE_FORMAT_VERSION,
    STORE_FORMAT_VERSION_V2,
    STORE_MAGIC,
    STORE_MAGIC_V2,
    ShardedStore,
    StoreRecord,
    generation_manifest_name,
    open_store,
    shard_index,
)
from repro.store.cache import PulseCache
from repro.store.server import PulseServer
from repro.store.verify import VerifyReport, verify_store
from repro.store.writable import (
    COMMIT_HOOK_POINTS,
    COMPACT_HOOK_POINTS,
    StoreWriter,
    save_store,
)
from repro.store.trace import (
    arrival_times,
    load_trace,
    synthetic_trace,
    write_trace,
)

__all__ = [
    "STORE_MAGIC",
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC_V2",
    "STORE_FORMAT_VERSION_V2",
    "MANIFEST_NAME",
    "StoreRecord",
    "ShardedStore",
    "shard_index",
    "generation_manifest_name",
    "save_store",
    "open_store",
    "atomic_write",
    "StoreWriter",
    "COMMIT_HOOK_POINTS",
    "COMPACT_HOOK_POINTS",
    "VerifyReport",
    "verify_store",
    "PulseCache",
    "PulseServer",
    "load_trace",
    "write_trace",
    "synthetic_trace",
    "arrival_times",
]
