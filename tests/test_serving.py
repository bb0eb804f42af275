"""Tests for the decoded pulse cache and the concurrent serving layer.

The contract under test: any interleaving of ``fetch`` / ``fetch_batch``
across threads serves samples bit-identical to the scalar decode path
(``decompress_waveform`` over the store record), the LRU never exceeds
its capacity, eviction strictly follows least-recent use, and the
hit/miss/insertion/eviction counters stay mutually consistent.
"""

import random
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.compression.pipeline import decompress_waveform
from repro.core import CompaqtCompiler
from repro.devices import ibm_device
from repro.obs import default_registry
from repro.store import (
    PulseCache,
    PulseServer,
    StoreWriter,
    load_trace,
    save_store,
    synthetic_trace,
    write_trace,
)
from repro.store.hooks import preempt_hook


@pytest.fixture(scope="module")
def compiled():
    library = ibm_device("bogota").pulse_library()
    return CompaqtCompiler(window_size=16).compile_library(library)


@pytest.fixture(scope="module")
def store(compiled, tmp_path_factory):
    root = tmp_path_factory.mktemp("serving") / "bogota.cqs"
    return save_store(compiled, root, n_shards=3)


@pytest.fixture(scope="module")
def reference(store):
    """The scalar decode path: what every served pulse must equal."""
    return {
        key: decompress_waveform(store.read_record(*key)).samples
        for key in store.keys()
    }


def _assert_served(reference, key, waveform):
    __tracebackhide__ = True
    assert np.array_equal(waveform.samples, reference[key]), key


class TestPulseCache:
    """The cache's counters and LRU order, driven through its one read
    path, ``PulseServer.fetch`` / ``fetch_batch``, and the primitives
    that path is built on."""

    def test_capacity_validated(self, store):
        with pytest.raises(StoreError):
            PulseCache(store, capacity=0)

    def test_get_is_bit_identical_to_scalar(self, store, reference):
        # A counted miss, a load_many fill, then a counted hit.
        cache = PulseCache(store, capacity=4)
        for key in store.keys():
            assert cache.lookup(*key) is None
            _assert_served(reference, key, cache.load_many([key])[key])
            _assert_served(reference, key, cache.lookup(*key))

    def test_hit_and_miss_counters(self, store):
        with PulseServer(store, cache_capacity=8) as server:
            key = store.keys()[0]
            server.fetch(*key)
            server.fetch(*key)
            stats = server.cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["hit_rate"] == 0.5

    def test_capacity_never_exceeded_and_eviction_is_lru(self, store):
        keys = store.keys()
        with PulseServer(store, cache_capacity=3) as server:
            k0, k1, k2, k3 = keys[:4]
            for key in (k0, k1, k2):
                server.fetch(*key)
            server.fetch(*k0)  # refresh k0: k1 is now least recent
            server.fetch(*k3)  # forces one eviction
            assert len(server.cache) == 3
            held = server.cache.cached_keys()
            assert k1 not in held
            assert held == [k2, k0, k3]  # least-recent first
            assert server.cache.stats()["evictions"] == 1

    def test_fetch_batch_counts_each_distinct_key_once(self, store):
        keys = store.keys()
        with PulseServer(store, cache_capacity=8) as server:
            out = server.fetch_batch([keys[0], keys[1], keys[0], keys[1]])
            stats = server.cache.stats()
        assert len(out) == 4
        assert (stats["hits"], stats["misses"]) == (0, 2)
        assert np.array_equal(out[0].samples, out[2].samples)

    def test_fetch_batch_request_order_and_identity(self, store, reference):
        requests = list(reversed(store.keys())) + store.keys()[:5]
        with PulseServer(store, cache_capacity=64) as server:
            served = server.fetch_batch(requests)
        assert len(served) == len(requests)
        for key, waveform in zip(requests, served):
            _assert_served(reference, key, waveform)

    def test_peek_counts_nothing(self, store):
        with PulseServer(store, cache_capacity=4) as server:
            key = store.keys()[0]
            assert server.cache.peek(*key) is None
            server.fetch(*key)
            assert server.cache.peek(*key) is not None
            stats = server.cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)  # only the fetch

    def test_clear_keeps_counter_history(self, store):
        with PulseServer(store, cache_capacity=4) as server:
            server.fetch(*store.keys()[0])
            server.cache.clear()
            assert len(server.cache) == 0
            assert server.cache.stats()["misses"] == 1


class TestCacheLruModel:
    """Hypothesis: the cache tracks a shadow LRU model op for op."""

    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=6),
        ops=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=12),  # fetch of key index
                st.lists(
                    st.integers(min_value=0, max_value=12),
                    min_size=1,
                    max_size=5,
                ),  # fetch_batch of key indexes
            ),
            max_size=30,
        ),
    )
    def test_matches_shadow_model(self, store, capacity, ops):
        keys = store.keys()[:13]
        server = PulseServer(store, cache_capacity=capacity)
        model = OrderedDict()
        hits = misses = insertions = evictions = 0
        for op in ops:
            indexes = [op] if isinstance(op, int) else op
            if isinstance(op, int):
                server.fetch(*keys[op])
            else:
                server.fetch_batch([keys[i] for i in op])
            missed = []
            for index in dict.fromkeys(indexes):
                key = keys[index]
                if key in model:
                    hits += 1
                    model.move_to_end(key)
                else:
                    misses += 1
                    missed.append(key)
            # fetch_batch loads exactly the lookup-time misses, as one
            # batch, in first-miss order (a hit evicted by this batch's
            # own inserts is *not* re-loaded)
            for key in missed:
                model[key] = True
                insertions += 1
                if len(model) > capacity:
                    model.popitem(last=False)
                    evictions += 1
            assert server.cache.cached_keys() == list(model.keys())
            stats = server.cache.stats()
            assert stats["size"] == len(model) <= capacity
            assert (stats["hits"], stats["misses"]) == (hits, misses)
            assert (stats["insertions"], stats["evictions"]) == (insertions, evictions)
            assert stats["size"] == stats["insertions"] - stats["evictions"]


class TestPulseServer:
    def test_fetch_and_fetch_batch_identity(self, store, reference):
        with PulseServer(store, cache_capacity=8) as server:
            for key in store.keys():
                _assert_served(reference, key, server.fetch(*key))
            batch = server.fetch_batch(store.keys())
            for key, waveform in zip(store.keys(), batch):
                _assert_served(reference, key, waveform)

    def test_validates_arguments(self, store, compiled, tmp_path):
        with pytest.raises(StoreError):
            PulseServer(store, max_workers=0)
        other = save_store(compiled, tmp_path / "other.cqs", n_shards=2)
        with pytest.raises(StoreError, match="different store"):
            PulseServer(store, cache=PulseCache(other, capacity=2))

    def test_unknown_request_raises(self, store):
        with PulseServer(store) as server:
            with pytest.raises(StoreError, match="no pulse"):
                server.fetch("nope", (0,))

    def test_stats_accumulate(self, store):
        with PulseServer(store, cache_capacity=4) as server:
            server.fetch(*store.keys()[0])
            server.fetch_batch(store.keys()[:3])
            stats = server.stats()
            assert stats["requests"] == 4
            assert stats["batches"] == 1
            assert stats["shard_fills"] >= 1

    def test_serving_after_close_runs_inline(self, store, reference):
        server = PulseServer(store, cache_capacity=4)
        server.close()
        server.close()  # idempotent
        batch = server.fetch_batch(store.keys()[:5])
        for key, waveform in zip(store.keys()[:5], batch):
            _assert_served(reference, key, waveform)

    def test_single_flight_decodes_once(self, store):
        """N threads missing the same cold key insert exactly once."""
        with PulseServer(store, cache_capacity=8) as server:
            key = store.keys()[0]
            barrier = threading.Barrier(8)

            def hammer():
                barrier.wait()
                return server.fetch(*key)

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [f.result() for f in [pool.submit(hammer) for _ in range(8)]]
            assert server.stats()["cache"]["insertions"] == 1
            first = results[0]
            for waveform in results[1:]:
                assert waveform is first  # literally the cached object

    @settings(max_examples=10, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        n_shards=st.sampled_from([1, 2, 5]),
        schedules=st.lists(
            st.lists(
                st.tuples(
                    st.booleans(),  # True: fetch_batch, False: fetch
                    st.lists(
                        st.integers(min_value=0, max_value=22),
                        min_size=1,
                        max_size=8,
                    ),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=2,
            max_size=4,
        ),
    )
    def test_concurrent_interleavings_bit_identical(
        self, compiled, reference, tmp_path_factory, capacity, n_shards, schedules
    ):
        """Any thread interleaving of fetch/fetch_batch serves the
        scalar path's exact samples, within capacity, with consistent
        counters."""
        root = tmp_path_factory.mktemp("interleave") / "s.cqs"
        store = save_store(compiled, root, n_shards=n_shards)
        keys = store.keys()
        with PulseServer(store, cache_capacity=capacity) as server:

            def run_schedule(schedule):
                out = []
                for batched, indexes in schedule:
                    requested = [keys[i] for i in indexes]
                    if batched:
                        out.extend(zip(requested, server.fetch_batch(requested)))
                    else:
                        for key in requested:
                            out.append((key, server.fetch(*key)))
                return out

            with ThreadPoolExecutor(max_workers=len(schedules)) as pool:
                futures = [pool.submit(run_schedule, s) for s in schedules]
                for future in futures:
                    for key, waveform in future.result():
                        _assert_served(reference, key, waveform)
            cache = server.stats()["cache"]
            assert cache["size"] <= capacity
            assert cache["size"] == cache["insertions"] - cache["evictions"]


class TestTraces:
    def test_write_load_round_trip(self, store, tmp_path):
        trace = synthetic_trace(store.keys(), 50, seed=3)
        path = write_trace(trace, tmp_path / "trace.json")
        assert load_trace(path) == trace

    def test_load_accepts_objects_and_pairs(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('[["x", [0]], {"gate": "cx", "qubits": [0, 1]}]')
        assert load_trace(path) == [("x", (0,)), ("cx", (0, 1))]

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        for payload in ("{not json", '{"no": "requests"}', '[["x"]]', '[[3, [0]]]'):
            path.write_text(payload)
            with pytest.raises(StoreError):
                load_trace(path)
        # Qubits must be JSON integers: no float, bool or string coerced.
        for qubits in ("[0.9]", "[true]", '["1"]'):
            path.write_text(f'[["x", {qubits}]]')
            with pytest.raises(StoreError, match="non-integer qubits"):
                load_trace(path)
        with pytest.raises(StoreError, match="no trace file"):
            load_trace(tmp_path / "missing.json")

    def test_synthetic_trace_is_deterministic_and_in_population(self, store):
        keys = store.keys()
        a = synthetic_trace(keys, 100, seed=9)
        b = synthetic_trace(keys, 100, seed=9)
        assert a == b
        assert set(a) <= set(keys)
        assert synthetic_trace(keys, 100, seed=10) != a

    def test_synthetic_trace_validates(self, store):
        with pytest.raises(StoreError):
            synthetic_trace([], 5)
        with pytest.raises(StoreError):
            synthetic_trace(store.keys(), 0)
        for skew in (-1, float("nan"), float("inf")):
            with pytest.raises(StoreError, match="skew"):
                synthetic_trace(store.keys(), 5, skew=skew)


class TestPrewarmCounting:
    """`prewarm` reports genuinely new insertions, not re-warmed keys."""

    def test_second_prewarm_reports_zero(self, store):
        cache = PulseCache(store, capacity=1000)
        assert cache.prewarm() == len(store.keys())
        # Regression: re-insertions used to be counted again, so a
        # second call re-reported the whole library instead of 0.
        assert cache.prewarm() == 0
        assert cache.stats()["insertions"] == len(store.keys())

    def test_prewarm_after_demand_fills_counts_the_remainder(self, store):
        with PulseServer(store, cache_capacity=1000) as server:
            warmed = store.keys()[:3]
            for key in warmed:
                server.fetch(*key)
            assert server.cache.prewarm() == len(store.keys()) - len(warmed)
            assert server.cache.stats()["insertions"] == len(store.keys())


class TestServedBuffersReadOnly:
    """Cached sample buffers cannot be mutated through any alias."""

    def test_cache_hit_rejects_writes_and_reenabling(self, store, reference):
        with PulseServer(store, cache_capacity=8) as server:
            key = store.keys()[0]
            waveform = server.fetch(*key)
            with pytest.raises(ValueError):
                waveform.samples[0] = 123.0 + 0j
            with pytest.raises(ValueError):
                # The served array is a view over a read-only owner, so the
                # write flag cannot be flipped back on.
                waveform.samples.setflags(write=True)
            _assert_served(reference, key, server.fetch(*key))

    def test_every_serving_path_is_locked(self, store):
        with PulseServer(store, cache_capacity=32) as server:
            served = [server.fetch(*store.keys()[0])]
            served.extend(server.fetch_batch(store.keys()[:5]))
            for waveform in served:
                assert not waveform.samples.flags.writeable
                with pytest.raises(ValueError):
                    waveform.samples.setflags(write=True)

    def test_prewarmed_entries_are_locked(self, store):
        cache = PulseCache(store, capacity=1000)
        cache.prewarm()
        for key in store.keys()[:5]:
            waveform = cache.peek(*key)
            with pytest.raises(ValueError):
                waveform.samples.setflags(write=True)


class _FailingDecodeStore:
    """Test double: ``decode_many`` raises while any poisoned key is asked.

    Everything else falls through to the real store, so the serving
    stack above cannot tell it apart from a misbehaving disk.
    """

    def __init__(self, store, poisoned):
        self._store = store
        self._poisoned = set(poisoned)

    def __getattr__(self, name):
        return getattr(self._store, name)

    def decode_many(self, requests):
        requests = list(requests)
        if self._poisoned.intersection(requests):
            raise StoreError("chaos: injected decode failure")
        return self._store.decode_many(requests)


class TestFetchBatchFailure:
    def test_failed_decode_raises_typed_and_frees_every_lock(
        self, compiled, reference, tmp_path
    ):
        """A batch whose decode fails raises typed, caches nothing, and
        leaves no shard lock held."""
        base = save_store(compiled, tmp_path / "pf.cqs", n_shards=3)
        by_shard = {}
        for key in base.keys():
            by_shard.setdefault(base.shard_of(*key), []).append(key)
        assert len(by_shard) == 3
        batch = [keys[0] for keys in by_shard.values()]
        others = [keys[1] for keys in by_shard.values()]
        failing = _FailingDecodeStore(base, batch[:1])
        with PulseServer(failing, cache_capacity=64) as server:
            with pytest.raises(StoreError, match="injected decode failure"):
                server.fetch_batch(batch)
            for key in batch:
                assert server.cache.peek(*key) is None
            assert server.stats()["cache"]["insertions"] == 0

            served = {}
            follow_up = threading.Thread(
                target=lambda: served.update(
                    zip(others, server.fetch_batch(others))
                ),
                daemon=True,
            )
            follow_up.start()
            follow_up.join(timeout=5)
            assert not follow_up.is_alive(), "a shard lock was left held"
            for key in others:
                _assert_served(reference, key, served[key])


class _ThreadRecordingStore:
    """Test double: records the thread every ``decode_many`` runs on."""

    def __init__(self, store):
        self._store = store
        self.decode_threads = []

    def __getattr__(self, name):
        return getattr(self._store, name)

    def decode_many(self, requests):
        self.decode_threads.append(threading.get_ident())
        return self._store.decode_many(requests)


class TestOneDecodePerBatch:
    def test_cold_batch_costs_one_decode_on_the_calling_thread(
        self, compiled, tmp_path
    ):
        """Misses spanning every shard file -- staged commit file
        included -- are decoded by one fused call, in the caller."""
        root = tmp_path / "one.cqs"
        save_store(compiled, root, n_shards=3).close()
        with StoreWriter(root) as writer:
            key = writer.store.keys()[0]
            waveform = writer.store.decode_many([key])[0]
            writer.put(
                *key,
                CompaqtCompiler(window_size=16).compile_waveform(
                    waveform.with_samples(np.roll(waveform.samples, 1) * 0.9)
                ),
            )
            committed = writer.commit()
        assert committed.shard_count > committed.n_shards
        batch = {}
        for key in committed.keys():
            batch.setdefault(committed.record_info(*key).shard, key)
        assert sorted(batch) == list(range(committed.shard_count))
        batch = list(batch.values())
        expected = {
            key: decompress_waveform(committed.read_record(*key)).samples
            for key in batch
        }

        recording = _ThreadRecordingStore(committed)
        decodes = default_registry().counter("store.decode_batches")
        with PulseServer(recording, cache_capacity=64) as server:
            decodes_before = decodes.value
            fills_before = server.stats()["shard_fills"]
            served = server.fetch_batch(batch)
            assert decodes.value - decodes_before == 1
            assert server.stats()["shard_fills"] - fills_before == 1
        assert recording.decode_threads == [threading.get_ident()]
        for key, waveform in zip(batch, served):
            _assert_served(expected, key, waveform)


class TestLockOrdering:
    def test_forced_interleavings_never_deadlock(self, compiled, reference, tmp_path):
        """Overlapping multi-shard fills, yielding at both fill points,
        all finish, serve exact samples, and insert each key once."""
        store = save_store(compiled, tmp_path / "lo.cqs", n_shards=3)
        keys = store.keys()
        fetched = set()
        results = [[] for _ in range(4)]
        errors = []

        def yield_at_fill(point):
            if point.startswith("server.fill."):
                time.sleep(0)

        with PulseServer(store, cache_capacity=len(keys)) as server:

            def worker(index):
                rng = random.Random(1000 + index)
                try:
                    for _ in range(12):
                        picked = rng.sample(keys, rng.randint(1, 8))
                        if rng.random() < 0.7:
                            results[index].extend(
                                zip(picked, server.fetch_batch(picked))
                            )
                        else:
                            for key in picked:
                                results[index].append((key, server.fetch(*key)))
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with preempt_hook(yield_at_fill):
                    threads = [
                        threading.Thread(target=worker, args=(i,), daemon=True)
                        for i in range(4)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads), (
                "fills deadlocked"
            )
            assert not errors, errors
            for served in results:
                for key, waveform in served:
                    fetched.add(key)
                    _assert_served(reference, key, waveform)
            assert server.stats()["cache"]["insertions"] == len(fetched)
