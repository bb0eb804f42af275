"""Tests for the deprecation surfaces: shim modules and ``variant=``.

Two legacy spellings survive behind warnings: the
``repro.transforms.delta`` / ``repro.transforms.dictionary`` shim
modules (the baselines moved into the codecs package), and the
``variant=`` keyword everywhere ``codec=`` is the canonical name.  The
contract: each warns :class:`DeprecationWarning` exactly once per use
with an actionable message, behaves identically to the new spelling,
and passing both spellings at once is a hard error.
"""

import importlib
import sys
import warnings

import numpy as np
import pytest

from repro.errors import CompressionError
from repro.compression.batch import compress_batch
from repro.compression.codecs import resolve_codec_arg
from repro.compression.pipeline import compress_waveform
from repro.core import CompaqtCompiler, adaptive_compress, fidelity_aware_compress
from repro.devices import ibm_device
from repro.store.cache import CacheStats
from repro.store.server import ServerStats


@pytest.fixture(scope="module")
def waveform():
    return ibm_device("bogota").pulse_library().waveform("sx", (0,))


def _reimport(module_name):
    """Re-trigger a shim's module-level warning on an already-imported module."""
    sys.modules.pop(module_name, None)
    return importlib.import_module(module_name)


class TestTransformsShims:
    @pytest.mark.parametrize(
        "module_name, moved_to",
        [
            ("repro.transforms.delta", "repro.compression.codecs.delta"),
            ("repro.transforms.dictionary", "repro.compression.codecs.dictionary"),
        ],
    )
    def test_import_warns_and_reexports(self, module_name, moved_to):
        with pytest.warns(DeprecationWarning, match=f"{module_name} is deprecated"):
            shim = _reimport(module_name)
        canonical = importlib.import_module(moved_to)
        for name in shim.__all__:
            assert getattr(shim, name) is getattr(canonical, name), name

    def test_shim_message_names_the_new_home(self):
        with pytest.warns(DeprecationWarning, match="repro.compression.codecs.delta"):
            _reimport("repro.transforms.delta")


class TestVariantKeywordAlias:
    """``variant=`` works everywhere ``codec=`` does -- behind one warning."""

    def test_resolve_codec_arg_contract(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # codec= path must stay silent
            assert resolve_codec_arg("delta", None) == "delta"
            assert resolve_codec_arg(None, None, default="int-DCT-W") == "int-DCT-W"
        with pytest.warns(DeprecationWarning, match="variant= argument is deprecated"):
            assert resolve_codec_arg(None, "delta") == "delta"
        with pytest.raises(CompressionError, match="not both"):
            resolve_codec_arg("delta", "delta")

    @pytest.mark.parametrize(
        "call",
        [
            lambda wf, **kw: compress_waveform(wf, window_size=16, **kw),
            lambda wf, **kw: compress_batch([wf], window_size=16, **kw),
            lambda wf, **kw: CompaqtCompiler(window_size=16, **kw),
            lambda wf, **kw: adaptive_compress(wf, window_size=16, **kw),
            lambda wf, **kw: fidelity_aware_compress(wf, window_size=16, **kw),
        ],
        ids=[
            "compress_waveform",
            "compress_batch",
            "CompaqtCompiler",
            "adaptive_compress",
            "fidelity_aware_compress",
        ],
    )
    def test_entry_points_warn_on_variant_only(self, waveform, call):
        with pytest.warns(DeprecationWarning, match="variant= argument is deprecated"):
            call(waveform, variant="int-DCT-W")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            call(waveform, codec="int-DCT-W")

    def test_both_spellings_at_once_is_an_error(self, waveform):
        with pytest.raises(CompressionError, match="not both"):
            compress_waveform(waveform, codec="delta", variant="delta")
        with pytest.raises(CompressionError, match="not both"):
            CompaqtCompiler(codec="delta", variant="delta")

    def test_variant_and_codec_produce_identical_results(self, waveform):
        via_codec = compress_waveform(waveform, window_size=16, codec="delta")
        with pytest.warns(DeprecationWarning):
            via_variant = compress_waveform(waveform, window_size=16, variant="delta")
        assert np.array_equal(
            via_codec.reconstructed.samples, via_variant.reconstructed.samples
        )
        assert via_codec.mse == via_variant.mse

    def test_compiler_records_resolved_codec_name(self):
        with pytest.warns(DeprecationWarning):
            compiler = CompaqtCompiler(variant="delta")
        assert compiler.codec.name == "delta"
        assert compiler.variant == "delta"  # legacy attribute still present


class TestStatsDictSurface:
    """`as_dict()` is the common stats surface; `to_dict` stays as an alias."""

    def test_cache_stats_aliases(self):
        stats = CacheStats(
            capacity=4, size=2, hits=10, misses=5, insertions=5, evictions=3
        )
        assert stats.as_dict() == stats.to_dict()
        assert stats.as_dict()["hit_rate"] == stats.hit_rate

    def test_server_stats_aliases(self):
        cache = CacheStats(
            capacity=4, size=2, hits=10, misses=5, insertions=5, evictions=3
        )
        stats = ServerStats(
            requests=7, batches=2, shard_fills=3, coalesced_fills=1, cache=cache
        )
        assert stats.as_dict() == stats.to_dict()
        assert stats.as_dict()["cache"] == cache.as_dict()

    def test_net_server_stats_has_as_dict(self):
        from repro.serve_net.server import NetServerStats

        net = NetServerStats(
            connections_accepted=1,
            connections_open=1,
            requests=2,
            fetches=1,
            fetches_ok=1,
            pulses_served=4,
            overloads=0,
            coalesced_keys=0,
            request_errors=0,
            protocol_errors=0,
            draining=False,
            serving=ServerStats(
                requests=1,
                batches=1,
                shard_fills=1,
                coalesced_fills=0,
                cache=CacheStats(
                    capacity=4, size=1, hits=0, misses=1, insertions=1, evictions=0
                ),
            ),
        )
        blob = net.as_dict()
        assert blob["serving"]["cache"]["insertions"] == 1


class TestStatsKeySetPins:
    """The stats dataclasses are frozen views over the metrics registry.

    Migrating their counters onto ``repro.obs`` must not change the
    dict surface: these pins freeze the exact key sets so a registry
    rename can never silently leak into ``as_dict()`` consumers
    (JSON-over-CQN1 STATS replies, the chaos harness, dashboards).
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
        "coalesced_keys",
        "request_errors",
        "protocol_errors",
        "draining",
        "serving",
    }

    def _cache_stats(self):
        return CacheStats(
            capacity=4, size=2, hits=10, misses=5, insertions=5, evictions=3
        )

    def test_cache_stats_key_set(self):
        assert set(self._cache_stats().as_dict()) == self.CACHE_KEYS

    def test_server_stats_key_set(self):
        stats = ServerStats(
            requests=7,
            batches=2,
            shard_fills=3,
            coalesced_fills=1,
            cache=self._cache_stats(),
        )
        assert set(stats.as_dict()) == self.SERVER_KEYS

    def test_net_server_stats_key_set(self):
        from repro.serve_net.server import NetServerStats

        net = NetServerStats(
            connections_accepted=0,
            connections_open=0,
            requests=0,
            fetches=0,
            fetches_ok=0,
            pulses_served=0,
            overloads=0,
            coalesced_keys=0,
            request_errors=0,
            protocol_errors=0,
            draining=False,
            serving=ServerStats(
                requests=0,
                batches=0,
                shard_fills=0,
                coalesced_fills=0,
                cache=CacheStats(
                    capacity=1, size=0, hits=0, misses=0, insertions=0, evictions=0
                ),
            ),
        )
        assert set(net.as_dict()) == self.NET_KEYS

    def test_live_registry_backed_stats_keep_the_pinned_keys(self, tmp_path):
        """A real PulseServer's stats (registry-backed) match the pins."""
        from repro.core import CompaqtCompiler
        from repro.store import PulseServer, save_store

        library = ibm_device("bogota").pulse_library()
        compiled = CompaqtCompiler(window_size=16).compile_library(library)
        store = save_store(compiled, tmp_path / "pin.cqs", n_shards=2)
        try:
            with PulseServer(store, cache_capacity=8) as server:
                server.fetch(*store.keys()[0])
                blob = server.stats().as_dict()
            assert set(blob) == self.SERVER_KEYS
            assert set(blob["cache"]) == self.CACHE_KEYS
        finally:
            store.close()
