"""Tests for the unified telemetry layer (``repro.obs``).

The contract under test: histogram quantiles agree with
``numpy.quantile`` when every value lands in its own bucket and stay
within one bucket's width otherwise; counters incremented from N
racing threads sum *exactly* (no lost updates); snapshot merging is
associative, commutative, and None-safe (the algebra that makes
per-worker aggregation order-independent); the trace ring stays
bounded under a storm of traces; the Prometheus exposition parses; the
METRICS/TRACES wire messages round-trip over a real socket; and each
layer's ``stats()`` dict keeps its pinned keys, in process and over
the wire.
"""

import json
import threading
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompaqtCompiler
from repro.devices import ibm_device
from repro.obs import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
    Tracer,
    activate,
    exact_quantile,
    format_trace_tree,
    merge_snapshots,
    merge_trace_spans,
    render_prometheus,
    span,
    stage_breakdown,
    start_metrics_server,
)
from repro.serve_net import PulseClient, serve_in_thread
from repro.store import PulseCache, PulseServer, save_store


# ---------------------------------------------------------------------------
# exact_quantile: the shared definition every percentile surface uses.
# ---------------------------------------------------------------------------


class TestExactQuantile:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=200,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_numpy_quantile(self, values, q):
        expected = float(np.quantile(np.asarray(values, dtype=np.float64), q))
        got = exact_quantile(values, q)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_presorted_fast_path(self):
        values = sorted([5.0, 1.0, 3.0, 2.0, 4.0])
        for q in (0.0, 0.25, 0.5, 0.77, 1.0):
            assert exact_quantile(values, q, presorted=True) == exact_quantile(
                values, q
            )

    def test_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)
        with pytest.raises(ValueError):
            exact_quantile([1.0], 1.5)


# ---------------------------------------------------------------------------
# Histogram: log-spaced buckets with interpolated quantiles.
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_exact_stats(self):
        hist = Histogram("t.latency")
        for value in (0.001, 0.002, 0.004, 0.5):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(0.507)
        snap = hist.snapshot()
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(0.5)
        assert sum(snap["buckets"]) == 4

    def test_empty_quantile_is_zero(self):
        assert Histogram("t.empty").quantile(0.5) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=1e-5, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        q=st.sampled_from([0.0, 0.5, 0.95, 0.99, 1.0]),
    )
    def test_quantile_bounded_by_neighbor_rank_buckets(self, values, q):
        """The estimate stays inside the neighboring ranks' buckets.

        The exact quantile at fractional rank ``q * (n - 1)`` sits
        between order statistics ``x[floor]`` and ``x[ceil]``.  The
        histogram resolves the rank to a bucket, so its answer must lie
        between the lower edge of ``x[floor]``'s bucket and the upper
        edge of ``x[ceil]``'s bucket -- and always inside the exact
        observed [min, max], which the histogram tracks separately.
        """
        from bisect import bisect_left
        from math import ceil, floor

        hist = Histogram("t.h")
        for value in values:
            hist.observe(value)
        got = hist.quantile(q)
        assert min(values) - 1e-12 <= got <= max(values) + 1e-12
        xs = sorted(values)
        target = q * (len(xs) - 1)
        lo_stat, hi_stat = xs[floor(target)], xs[ceil(target)]
        bounds = list(DEFAULT_LATENCY_BOUNDS)
        lo_index = bisect_left(bounds, lo_stat)
        hi_index = bisect_left(bounds, hi_stat)
        lower_edge = bounds[lo_index - 1] if lo_index > 0 else min(values)
        upper_edge = bounds[hi_index] if hi_index < len(bounds) else max(values)
        assert min(lower_edge, min(values)) - 1e-12 <= got
        assert got <= max(upper_edge, max(values)) + 1e-12

    def test_single_value_quantiles_are_exact_range(self):
        hist = Histogram("t.one")
        hist.observe(0.25)
        for q in (0.0, 0.5, 1.0):
            got = hist.quantile(q)
            assert 0.0 < got
            snap = hist.snapshot()
            assert snap["min"] <= got <= snap["max"]

    def test_custom_bounds_and_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("t.size", bounds=(1.0, 2.0, 4.0))
        with pytest.raises(ValueError):
            registry.histogram("t.size", bounds=(1.0, 2.0))

    def test_bad_quantile_rejected(self):
        hist = Histogram("t.h2")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)


# ---------------------------------------------------------------------------
# Counter: lock-free increments must never lose an update.
# ---------------------------------------------------------------------------


class TestCounterConcurrency:
    def test_racing_threads_sum_exactly(self):
        counter = Counter("t.races")
        n_threads, per_thread = 8, 5_000

        def hammer():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == n_threads * per_thread

    def test_mixed_bulk_and_unit_increments(self):
        counter = Counter("t.bulk")
        n_threads, per_thread = 6, 2_000

        def hammer(step):
            for _ in range(per_thread):
                counter.inc(step)

        threads = [
            threading.Thread(target=hammer, args=(step,))
            for step in range(1, n_threads + 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = per_thread * sum(range(1, n_threads + 1))
        assert counter.value == expected


# ---------------------------------------------------------------------------
# merge_snapshots: the aggregation algebra.
# ---------------------------------------------------------------------------


def _random_snapshot(rng):
    registry = MetricsRegistry()
    for name in rng.sample(["a.x", "a.y", "b.z", "c.w"], k=rng.randint(1, 4)):
        registry.counter(name).inc(rng.randint(0, 100))
    registry.gauge("g.depth").set(rng.random() * 10)
    hist = registry.histogram("h.lat")
    for _ in range(rng.randint(0, 20)):
        hist.observe(rng.random())
    return registry.snapshot()


class TestMergeSnapshots:
    def test_associative_and_commutative(self):
        import random as _random

        rng = _random.Random(7)
        snaps = [_random_snapshot(rng) for _ in range(3)]
        a, b, c = snaps
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        flat = merge_snapshots(a, b, c)
        assert left == right == flat
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    def test_none_and_empty_are_identity(self):
        import random as _random

        snap = _random_snapshot(_random.Random(3))
        assert merge_snapshots(snap, None) == merge_snapshots(snap)
        assert merge_snapshots(None, None) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_histogram_buckets_sum_and_extremes_combine(self):
        h1, h2 = Histogram("h"), Histogram("h")
        h1.observe(0.001)
        h2.observe(1.0)
        merged = merge_snapshots(
            {"histograms": {"h": h1.snapshot()}},
            {"histograms": {"h": h2.snapshot()}},
        )["histograms"]["h"]
        assert merged["count"] == 2
        assert merged["min"] == pytest.approx(0.001)
        assert merged["max"] == pytest.approx(1.0)
        assert sum(merged["buckets"]) == 2


# ---------------------------------------------------------------------------
# Registry semantics.
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dual")
        with pytest.raises(ValueError):
            registry.gauge("dual")

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("quiet")
        counter.inc(10)
        histogram = registry.histogram("quiet.h")
        histogram.observe(1.0)
        assert counter.value == 0
        assert histogram.count == 0
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


# ---------------------------------------------------------------------------
# Prometheus exposition.
# ---------------------------------------------------------------------------


class TestPrometheus:
    def test_exposition_parses_and_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.counter("net.fetches").inc(3)
        registry.gauge("net.inflight").set(2)
        hist = registry.histogram("net.request_seconds")
        for value in (0.001, 0.001, 0.5):
            hist.observe(value)
        text = render_prometheus(registry.snapshot())
        lines = [line for line in text.splitlines() if line]
        assert "net_fetches 3" in lines
        assert any(line.startswith("net_inflight ") for line in lines)
        assert '# TYPE net_request_seconds histogram' in lines
        bucket_counts = []
        for line in lines:
            if line.startswith("net_request_seconds_bucket"):
                bucket_counts.append(int(line.rsplit(" ", 1)[1]))
        assert bucket_counts == sorted(bucket_counts)  # cumulative
        assert bucket_counts[-1] == 3
        assert any('le="+Inf"' in line for line in lines)
        assert any(line.startswith("net_request_seconds_count 3") for line in lines)
        # Every sample line is "<name{labels}> <number>".
        for line in lines:
            if line.startswith("#"):
                continue
            value = line.rsplit(" ", 1)[1]
            float(value)


# ---------------------------------------------------------------------------
# Tracing.
# ---------------------------------------------------------------------------


class TestTracer:
    def test_ring_stays_bounded_under_storm(self):
        tracer = Tracer(sample_rate=1.0, capacity=16)
        for index in range(500):
            root = tracer.start_trace("storm", index=index)
            root.finish()
        stats = tracer.stats()
        assert stats["buffered"] == 16
        assert stats["dropped"] == 500 - 16
        recent = tracer.recent()
        assert len(recent) == 16
        # Newest last: the final trace survived.
        assert recent[-1]["spans"][0]["tags"]["index"] == 499

    def test_zero_rate_never_samples_but_client_id_forces(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.start_trace("s") is None
        forced = tracer.start_trace("s", trace_id=0xABC)
        assert forced is not None
        forced.finish()
        assert tracer.find(0xABC) is not None

    def test_span_context_nests_and_noops_without_parent(self):
        with span("orphan") as orphan:
            assert orphan is None  # no active trace: free
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("root")
        with activate(root):
            with span("child", shard=3) as child:
                assert child is not None
                with span("grandchild") as grandchild:
                    assert grandchild.parent_id == child.span_id
        root.finish()
        trace = tracer.recent(limit=1)[0]
        stages = [s["stage"] for s in trace["spans"]]
        assert stages == ["root", "child", "grandchild"]

    def test_breakdown_self_times_sum_to_root(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("e2e")
        with activate(root):
            with span("a"):
                pass
            with span("b"):
                pass
        root.finish()
        trace = tracer.recent(limit=1)[0]
        breakdown = stage_breakdown(trace["spans"])
        assert breakdown["ok"], breakdown["problems"]
        total = sum(breakdown["self_s"].values())
        assert total == pytest.approx(breakdown["end_to_end_s"], abs=1e-6)

    def test_merge_dedupes_and_tree_renders(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("root")
        with activate(root):
            with span("leaf"):
                pass
        root.finish()
        trace = tracer.recent(limit=1)[0]
        merged = merge_trace_spans(trace, trace, None)
        assert len(merged) == len(trace["spans"])
        tree = format_trace_tree(trace)
        assert "root" in tree and "leaf" in tree and "ms" in tree


# ---------------------------------------------------------------------------
# Wire + HTTP exposure, end to end.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def obs_store(tmp_path_factory):
    library = ibm_device("bogota").pulse_library()
    compiled = CompaqtCompiler(window_size=16).compile_library(library)
    root = tmp_path_factory.mktemp("obs_net") / "bogota.cqs"
    return save_store(compiled, root, n_shards=2)


class TestWireExposure:
    def test_metrics_and_traces_over_socket(self, obs_store):
        keys = obs_store.keys()[:4]
        client_tracer = Tracer(sample_rate=1.0)
        with PulseServer(obs_store, cache_capacity=64) as serving:
            with serve_in_thread(serving, trace_sample_rate=1.0) as handle:
                with PulseClient(*handle.address, tracer=client_tracer) as client:
                    served = client.fetch_batch(keys)
                    snapshot = client.metrics()
                    traces = client.traces(limit=8)
                stats = handle.server.stats()
        assert len(served) == len(keys)
        counters = snapshot["counters"]
        assert counters["net.fetches"] == stats["fetches"] == 1
        assert counters["net.fetches_ok"] == stats["fetches_ok"] == 1
        assert counters["cache.misses"] == len(keys)
        assert counters["server.requests"] >= 1
        assert "net.request_seconds" in snapshot["histograms"]
        # The traced fetch crossed the wire: the server half carries the
        # client's trace id and its spans nest under the client span.
        client_trace = client_tracer.recent(limit=1)[0]
        server_trace = next(
            t for t in traces if t["trace_id"] == client_trace["trace_id"]
        )
        spans = merge_trace_spans(client_trace, server_trace)
        stages = {s["stage"] for s in spans}
        assert {"client.fetch", "server.admission", "server.fill"} <= stages
        breakdown = stage_breakdown(spans)
        assert breakdown["ok"], breakdown["problems"]

    def test_http_scrape_matches_registry(self, obs_store):
        with PulseServer(obs_store, cache_capacity=8) as serving:
            with serve_in_thread(serving) as handle:
                with PulseClient(*handle.address) as client:
                    client.fetch(*obs_store.keys()[0])
                with start_metrics_server(
                    handle.server.metrics_snapshot, host="127.0.0.1", port=0
                ) as http:
                    host, port = http.address
                    with urllib.request.urlopen(
                        f"http://{host}:{port}/metrics", timeout=5
                    ) as response:
                        text = response.read().decode("utf-8")
                    with urllib.request.urlopen(
                        f"http://{host}:{port}/metrics.json", timeout=5
                    ) as response:
                        blob = json.loads(response.read().decode("utf-8"))
        assert "net_fetches 1" in text.splitlines()
        assert blob["counters"]["net.fetches"] == 1


class TestStatsKeySetPins:
    """Each layer's ``stats()`` dict, pinned on live objects.

    The key sets are public: the CQN1 STATS reply is the network
    server's dict as JSON, and the chaos harness and dashboards read
    these keys.  A registry rename must never leak into them.
    """

    CACHE_KEYS = {
        "capacity",
        "size",
        "hits",
        "misses",
        "insertions",
        "evictions",
        "hit_rate",
    }
    SERVER_KEYS = {"requests", "batches", "shard_fills", "coalesced_fills", "cache"}
    NET_KEYS = {
        "connections_accepted",
        "connections_open",
        "requests",
        "fetches",
        "fetches_ok",
        "pulses_served",
        "overloads",
        "request_errors",
        "protocol_errors",
        "draining",
        "serving",
    }

    def test_stats_reply_is_the_in_process_dict(self, obs_store):
        k0, k1 = obs_store.keys()[:2]
        with PulseServer(obs_store, cache_capacity=1) as serving:
            with serve_in_thread(serving) as handle:
                with PulseClient(*handle.address) as client:
                    client.fetch(*k0)
                    client.fetch_batch([k0, k1, k1])
                    wire = client.stats()
                    local = handle.stats()
        assert wire == local
        assert set(local) == self.NET_KEYS
        assert set(local["serving"]) == self.SERVER_KEYS
        assert set(local["serving"]["cache"]) == self.CACHE_KEYS
        # k0 misses and fills; the batch hits k0, then misses k1 once,
        # and inserting k1 evicts k0 from the one-slot cache.  The STATS
        # request itself is the third net request.
        assert local == {
            "connections_accepted": 1,
            "connections_open": 1,
            "requests": 3,
            "fetches": 2,
            "fetches_ok": 2,
            "pulses_served": 4,
            "overloads": 0,
            "request_errors": 0,
            "protocol_errors": 0,
            "draining": False,
            "serving": {
                "requests": 4,
                "batches": 2,
                "shard_fills": 2,
                "coalesced_fills": 0,
                "cache": {
                    "capacity": 1,
                    "size": 1,
                    "hits": 1,
                    "misses": 2,
                    "insertions": 2,
                    "evictions": 1,
                    "hit_rate": 1 / 3,
                },
            },
        }

    def test_disabled_registry_still_returns_every_key(self, obs_store):
        metrics = MetricsRegistry(enabled=False)
        with PulseServer(obs_store, cache_capacity=1, metrics=metrics) as server:
            server.fetch(*obs_store.keys()[0])
            stats = server.stats()
        cache = stats["cache"]
        assert set(stats) == self.SERVER_KEYS
        assert set(cache) == self.CACHE_KEYS
        assert stats["requests"] == cache["hits"] == cache["misses"] == 0
        assert (cache["size"], cache["hit_rate"]) == (1, 0.0)

    def test_cache_stats_key_set(self, obs_store):
        # The cache's own primitives: a counted miss, a fill, a hit.
        cache = PulseCache(obs_store, capacity=2)
        key = obs_store.keys()[0]
        assert cache.lookup(*key) is None
        cache.load_many([key])
        assert cache.lookup(*key) is not None
        stats = cache.stats()
        assert set(stats) == self.CACHE_KEYS
        assert stats == {
            "capacity": 2,
            "size": 1,
            "hits": 1,
            "misses": 1,
            "insertions": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_server_stats_key_set(self, obs_store):
        # Before any traffic: every key, zero counters, hit_rate 0.0.
        with PulseServer(obs_store, cache_capacity=2) as server:
            stats = server.stats()
        assert set(stats) == self.SERVER_KEYS
        assert stats == {
            "requests": 0,
            "batches": 0,
            "shard_fills": 0,
            "coalesced_fills": 0,
            "cache": {
                "capacity": 2,
                "size": 0,
                "hits": 0,
                "misses": 0,
                "insertions": 0,
                "evictions": 0,
                "hit_rate": 0.0,
            },
        }

    def test_net_server_stats_key_set(self, obs_store):
        with PulseServer(obs_store, cache_capacity=2) as serving:
            with serve_in_thread(serving) as handle:
                live = handle.stats()
            drained = handle.stats()
        assert set(live) == set(drained) == self.NET_KEYS
        assert (live["draining"], drained["draining"]) == (False, True)


class TestStatsDictSurface:
    """Each layer's ``stats()`` nests the dict of the layer below it."""

    def test_hit_rate_is_hits_per_lookup(self, obs_store):
        k0, k1 = obs_store.keys()[:2]
        with PulseServer(obs_store, cache_capacity=8) as server:
            for key in (k0, k0, k0, k0, k1):
                server.fetch(*key)
            cache = server.stats()["cache"]
        assert (cache["hits"], cache["misses"]) == (3, 2)
        assert cache["hit_rate"] == 3 / 5

    def test_server_stats_nest_the_cache_stats(self, obs_store):
        with PulseServer(obs_store, cache_capacity=2) as server:
            server.fetch_batch(obs_store.keys()[:3])
            stats = server.stats()
            assert stats["cache"] == server.cache.stats()
        assert (stats["cache"]["insertions"], stats["cache"]["evictions"]) == (3, 1)

    def test_net_stats_nest_the_server_stats(self, obs_store):
        with PulseServer(obs_store, cache_capacity=4) as serving:
            with serve_in_thread(serving) as handle:
                with PulseClient(*handle.address) as client:
                    client.fetch_batch(obs_store.keys()[:2])
                stats = handle.stats()
            assert stats["serving"] == serving.stats()
        assert stats["serving"]["cache"]["insertions"] == 2
