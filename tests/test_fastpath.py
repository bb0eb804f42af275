"""Fast-path conformance: vectorized parse/decode vs the scalar oracle.

The zero-copy engine (:mod:`repro.compression.fastpath`) and the
vectorized serializer must be indistinguishable from the scalar
word-at-a-time reference on *every* input:

* well-formed bytes parse to equal objects, decode to bit-identical
  samples, and re-serialize byte-for-byte;
* malformed bytes raise :class:`~repro.errors.CompressionError` exactly
  when the oracle raises -- never another exception, never garbage
  samples (one documented tightening: the fused decoder rejects a
  corrupt record whose I and Q channels decode to different sample
  counts, which the scalar reference mishandles via numpy
  broadcasting);
* the mmap-backed store paths (span reads, fused ``decode_many``,
  prewarm) serve the same bytes and samples as the pre-pool
  implementation, with deterministic handle release.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.compression.bitstream import (
    LibraryEntry,
    RecordSpan,
    _Writer,
    _channel_block_bytes,
    _write_channel_scalar,
    parse_library_scalar,
    parse_waveform,
    parse_waveform_scalar,
    serialize_library,
    serialize_waveform,
)
from repro.compression.fastpath import (
    decode_library_bytes,
    decode_record_bytes,
    decode_records,
    parse_library_fast,
    parse_waveform_fast,
)
from repro.compression.pipeline import (
    CompressedChannel,
    compress_waveform,
    decompress_waveform,
)
from repro.core import CompaqtCompiler
from repro.devices import ibm_device
from repro.obs import default_registry
from repro.pulses import Waveform
from repro.store import PulseCache, PulseServer, ShardedStore, StoreWriter, save_store
from repro.store.sharded import StoreRecord
from repro.transforms.rle import EncodedWindow
from sample_identity import assert_same_samples

ALL_VARIANTS = ("DCT-N", "DCT-W", "int-DCT-W", "delta", "dictionary")


def _waveform(n, seed=0, gate="x", qubits=(0,)):
    rng = np.random.default_rng(seed)
    samples = 0.65 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    peak = max(1.0, float(np.max(np.abs(samples))))
    return Waveform(
        f"wf{n}_{seed}", samples / peak, dt=1e-9, gate=gate, qubits=qubits
    )


def _record_blob(n=40, variant="int-DCT-W", window_size=16, threshold=128,
                 seed=0):
    compressed = compress_waveform(
        _waveform(n, seed), window_size=window_size, codec=variant,
        threshold=threshold,
    ).compressed
    return serialize_waveform(compressed), compressed


#: Golden v1 blob (pre-registry serializer) -- duplicated from
#: tests/test_bitstream.py so this suite stands alone.
GOLDEN_V1_WAVEFORM = bytes.fromhex(
    "435157310200100000000600676f6c64656e01007801000095d626e80b2e113e"
    "1c000000020000000400b0040000f9ff0000030000000d000100030000800000"
    "ff7f00000e0001001c000000020000000400b0040000f9ff0000030000000d00"
    "0100030000800000ff7f00000e000100"
)


class TestParseConformance:
    """Fast object parse == scalar oracle on well-formed streams."""

    @given(
        n=st.integers(min_value=1, max_value=120),
        threshold=st.integers(min_value=0, max_value=2000),
        variant=st.sampled_from(ALL_VARIANTS),
        window_size=st.sampled_from((8, 16, 32)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzz_parse_and_fused_decode_match_oracle(
        self, n, threshold, variant, window_size, seed
    ):
        blob, compressed = _record_blob(n, variant, window_size, threshold, seed)
        scalar = parse_waveform_scalar(blob)
        fast = parse_waveform_fast(blob)
        assert fast == scalar == compressed
        assert serialize_waveform(fast) == blob
        reference = decompress_waveform(scalar)
        fused = decode_record_bytes(blob)
        assert fused.name == reference.name
        assert fused.gate == reference.gate
        assert fused.qubits == reference.qubits
        assert_same_samples(fused, reference)

    def test_dispatch_is_the_fast_path(self):
        blob, compressed = _record_blob()
        assert parse_waveform(blob) == compressed
        assert parse_waveform(memoryview(blob)) == compressed

    def test_golden_v1_parses_identically(self):
        scalar = parse_waveform_scalar(GOLDEN_V1_WAVEFORM)
        fast = parse_waveform_fast(GOLDEN_V1_WAVEFORM)
        assert fast == scalar
        assert serialize_waveform(fast) == GOLDEN_V1_WAVEFORM
        assert_same_samples(
            decode_record_bytes(GOLDEN_V1_WAVEFORM), decompress_waveform(scalar)
        )

    def test_library_parse_and_fused_decode(self):
        compiled = CompaqtCompiler(window_size=16).compile_library(
            ibm_device("bogota").pulse_library()
        )
        blob = compiled.to_bytes()
        scalar = parse_library_scalar(blob)
        fast = parse_library_fast(blob)
        assert fast == scalar
        assert serialize_library(fast) == blob
        decoded = decode_library_bytes(blob)
        assert [(g, q) for g, q, _w in decoded] == [
            (e.gate, e.qubits) for e in scalar.entries
        ]
        for (_g, _q, waveform), entry in zip(decoded, scalar.entries):
            assert_same_samples(waveform, decompress_waveform(entry.compressed))

    def test_decode_records_mixed_batch(self):
        blobs, references = [], []
        for i, variant in enumerate(ALL_VARIANTS):
            for n in (5, 17, 40):
                blob, compressed = _record_blob(
                    n, variant, window_size=8, seed=100 + i
                )
                blobs.append(blob)
                references.append(decompress_waveform(compressed))
        out = decode_records(blobs)
        assert len(out) == len(references)
        for got, want in zip(out, references):
            assert got.name == want.name
            assert_same_samples(got, want)

    def test_batch_decoded_waveforms_own_their_samples(self):
        """Cached entries must not pin the whole decode batch's memory."""
        blobs = [_record_blob(40, seed=s)[0] for s in range(5)]
        for waveform in decode_records(blobs):
            assert waveform.samples.base is None
            assert not waveform.samples.flags.writeable


class TestSerializerParity:
    """The vectorized channel writer is byte-identical to the scalar."""

    @given(
        n=st.integers(min_value=1, max_value=80),
        threshold=st.integers(min_value=0, max_value=1500),
        variant=st.sampled_from(ALL_VARIANTS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_channel_bytes_match_scalar_writer(
        self, n, threshold, variant, seed
    ):
        _blob, compressed = _record_blob(
            n, variant, threshold=threshold, seed=seed
        )
        for channel in (compressed.i_channel, compressed.q_channel):
            writer = _Writer()
            _write_channel_scalar(writer, channel)
            scalar_bytes = writer.getvalue()
            assert scalar_bytes[8:] == _channel_block_bytes(channel)

    def test_serializer_validation_matches_scalar(self):
        window = EncodedWindow(coeffs=(70000,), zero_run=15)
        channel = CompressedChannel(
            windows=(window,), variant="int-DCT-W", window_size=16,
            original_length=16,
        )
        with pytest.raises(CompressionError, match="16-bit"):
            _channel_block_bytes(channel)
        with pytest.raises(CompressionError, match="16-bit"):
            _write_channel_scalar(_Writer(), channel)


class TestMalformedEquivalence:
    """Corrupt bytes: the fast paths fail exactly like the oracle."""

    @given(
        variant=st.sampled_from(ALL_VARIANTS),
        index=st.integers(min_value=0, max_value=10**6),
        flip=st.integers(min_value=1, max_value=255),
    )
    # Flips the codec id of a 24-sample DCT-N record to int-DCT-W, which
    # has no 24-point inverse: both parsers must reject it.
    @example(variant="DCT-N", index=18060, flip=2)
    @settings(max_examples=300, deadline=None)
    def test_single_byte_corruption_equivalence(self, variant, index, flip):
        blob, _ = _record_blob(24, variant, seed=7)
        corrupt = bytearray(blob)
        corrupt[index % len(corrupt)] ^= flip
        corrupt = bytes(corrupt)
        try:
            scalar = parse_waveform_scalar(corrupt)
        except CompressionError:
            scalar = None
        try:
            fast = parse_waveform_fast(corrupt)
        except CompressionError:
            fast = None
        # Same accept/reject verdict, and equal objects on accept.
        assert (scalar is None) == (fast is None)
        if scalar is not None:
            assert fast == scalar
            # Fused decode must agree with the scalar decode -- except
            # when the corruption produced mismatched channel lengths,
            # which the scalar reference mishandles (numpy broadcast or
            # ValueError) and the fused path rejects outright.
            if (
                scalar.i_channel.original_length
                == scalar.q_channel.original_length
            ):
                assert_same_samples(
                    decode_record_bytes(corrupt), decompress_waveform(scalar)
                )
            else:
                with pytest.raises(CompressionError):
                    decode_record_bytes(corrupt)

    @given(data=st.binary(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_random_bytes_totality(self, data):
        for fn in (
            parse_waveform_fast,
            parse_library_fast,
            decode_record_bytes,
            decode_library_bytes,
            lambda b: decode_records([b, b]),
        ):
            try:
                fn(data)
            except CompressionError:
                pass

    def test_every_truncation_rejected(self):
        blob, _ = _record_blob(24)
        for cut in range(len(blob)):
            with pytest.raises(CompressionError):
                parse_waveform_fast(blob[:cut])
            with pytest.raises(CompressionError):
                decode_record_bytes(blob[:cut])

    def test_empty_record_batch_rejected(self):
        with pytest.raises(CompressionError):
            decode_records([])


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    compiled = CompaqtCompiler(window_size=16).compile_library(
        ibm_device("bogota").pulse_library()
    )
    path = tmp_path_factory.mktemp("fastpath-store") / "bogota.cqs"
    return save_store(compiled, path, n_shards=3), compiled


class TestStoreFastPath:
    def test_decode_many_matches_scalar_reference(self, store):
        sharded, compiled = store
        keys = sharded.keys()
        decoded = sharded.decode_many(keys)
        for key, waveform in zip(keys, decoded):
            reference = decompress_waveform(compiled.result(*key).compressed)
            assert waveform.name == reference.name
            assert_same_samples(waveform, reference)

    def test_decode_record_and_duplicate_requests(self, store):
        sharded, compiled = store
        key = sharded.keys()[0]
        one = sharded.decode_record(*key)
        assert_same_samples(
            one, decompress_waveform(compiled.result(*key).compressed)
        )
        twice = sharded.decode_many([key, key])
        np.testing.assert_array_equal(twice[0].samples, twice[1].samples)

    def test_read_record_bytes_is_span_copy(self, store):
        sharded, _ = store
        key = sharded.keys()[0]
        raw = sharded.read_record_bytes(*key)
        assert isinstance(raw, bytes)
        assert parse_waveform(raw).gate == key[0]

    def test_pool_maps_each_file_once_and_remaps_after_close(
        self, store, tmp_path
    ):
        """Serving one generation never remaps: one mapping per shard
        file, however wide the table (4 base files + 9 commits here),
        until close(); a read after close maps its file again."""
        _sharded, compiled = store
        root = tmp_path / "wide.cqs"
        save_store(compiled, root, n_shards=4).close()
        with StoreWriter(root) as writer:
            base = writer.store
            # Every base file keeps its first key live, so all 13 files
            # hold a record the reads below need.
            kept = {base.shard_of(*key): key for key in reversed(base.keys())}
            movable = [key for key in base.keys() if key not in kept.values()]
            for key in movable[:9]:
                waveform = base.decode_many([key])[0]
                writer.put(
                    key[0],
                    key[1],
                    CompaqtCompiler().compile_waveform(
                        waveform.with_samples(0.9 * waveform.samples)
                    ),
                )
                writer.commit()
        wide = ShardedStore.open(root)
        assert wide.shard_count == 13
        reopens = default_registry().counter("store.mmap_reopens")
        before = reopens.value
        for _ in range(3):
            assert len(wide.decode_many(wide.keys())) == len(wide)
        assert reopens.value == before
        assert wide.open_shard_handles == wide.shard_count
        wide.close()
        assert wide.open_shard_handles == 0
        wide.read_record(*wide.keys()[0])
        assert reopens.value == before + 1
        assert wide.open_shard_handles == 1
        wide.close()

    def test_store_context_manager(self, store):
        sharded, _ = store
        with sharded as handle:
            handle.read_record(*sharded.keys()[0])
            assert handle.open_shard_handles >= 1
        assert sharded.open_shard_handles == 0

    def test_cache_prewarm_and_context_manager(self, store):
        sharded, compiled = store
        with PulseCache(sharded, capacity=len(sharded)) as cache:
            inserted = cache.prewarm()
            assert inserted == len(sharded)
            assert len(cache) == len(sharded)
            stats = cache.stats()
            assert stats["hits"] == 0 and stats["misses"] == 0  # not traffic
            key = sharded.keys()[0]
            assert_same_samples(
                cache.lookup(*key),
                decompress_waveform(compiled.result(*key).compressed),
            )
            assert cache.stats()["hits"] == 1
        assert sharded.open_shard_handles == 0

    def test_prewarm_stops_at_capacity_without_churn(self, store):
        sharded, _ = store
        cache = PulseCache(sharded, capacity=4)
        inserted = cache.prewarm()
        stats = cache.stats()
        assert inserted == 4 == len(cache)
        assert stats["evictions"] == 0  # no decode-then-evict churn

    def test_server_close_releases_pool_and_keeps_serving(self, store):
        sharded, compiled = store
        server = PulseServer(sharded, cache_capacity=4)
        key = sharded.keys()[0]
        server.fetch(*key)
        server.close()
        assert sharded.open_shard_handles == 0
        other = sharded.keys()[-1]
        waveform = server.fetch(*other)  # inline fill, pool remaps
        assert_same_samples(
            waveform, decompress_waveform(compiled.result(*other).compressed)
        )
        server.close()


class TestSlots:
    """High-volume record types carry no per-instance __dict__."""

    @pytest.mark.parametrize(
        "instance",
        [
            EncodedWindow(coeffs=(1, 2), zero_run=3),
            RecordSpan(gate="x", qubits=(0,), offset=0, length=4),
            StoreRecord(
                gate="x", qubits=(0,), shard=0, offset=0, length=4,
                mse=0.0, threshold=0.0,
            ),
            LibraryEntry(
                gate="x", qubits=(0,), mse=0.0, threshold=0.0,
                compressed=_record_blob(8)[1],
            ),
        ],
    )
    def test_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")
        assert dataclasses.fields(instance)

    def test_compressed_types_are_slotted(self):
        _blob, compressed = _record_blob(8)
        assert not hasattr(compressed, "__dict__")
        assert not hasattr(compressed.i_channel, "__dict__")
        assert not hasattr(compressed.i_channel.windows[0], "__dict__")

    def test_window_invariants_still_enforced(self):
        with pytest.raises(CompressionError):
            EncodedWindow(coeffs=(1, 0), zero_run=2)
        with pytest.raises(CompressionError):
            EncodedWindow(coeffs=(), zero_run=-1)
