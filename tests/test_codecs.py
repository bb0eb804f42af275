"""Codec registry contracts and the promoted delta/dictionary kernels.

The registry is the single dispatch point for every pipeline layer, so
these tests pin its API: built-in registration, name resolution (with
the error message listing registered codecs), third-party registration
reaching the whole stack, and the scalar/vectorized kernel parity of
the two promoted codecs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.compression import compress_channel, compress_waveform
from repro.compression.codecs import (
    DCT_N,
    DCT_W,
    DELTA,
    DICTIONARY,
    INT_DCT_W,
    Codec,
    codec_for_wire_id,
    get_codec,
    list_codecs,
    register_codec,
    resolve_codec,
    unregister_codec,
    wrap_int16,
)
from repro.compression.codecs.dictionary import _row_modes
from repro.pulses import Waveform

int16s = st.integers(min_value=-32768, max_value=32767)


def _blocks(draw_rows):
    return np.asarray(draw_rows, dtype=np.int64)


class TestRegistry:
    def test_builtins_registered_in_wire_id_order(self):
        assert list_codecs() == (
            "DCT-N", "DCT-W", "int-DCT-W", "delta", "dictionary"
        )
        for expected_id, name in enumerate(list_codecs()):
            codec = get_codec(name)
            assert codec.wire_id == expected_id
            assert codec_for_wire_id(expected_id) is codec

    def test_capability_flags(self):
        assert not DCT_N.windowed and DCT_W.windowed
        assert DCT_N.exact_rational_rows and DCT_W.exact_rational_rows
        assert not INT_DCT_W.exact_rational_rows
        assert DELTA.lossless and DICTIONARY.lossless
        assert not INT_DCT_W.lossless
        assert all(get_codec(name).batchable for name in list_codecs())
        assert INT_DCT_W.supported_window_sizes == (4, 8, 16, 32)
        assert DELTA.supported_window_sizes is None

    def test_unknown_name_lists_registered_codecs(self):
        with pytest.raises(CompressionError, match="registered codecs"):
            get_codec("DCT-Z")
        with pytest.raises(CompressionError, match="int-DCT-W"):
            get_codec("DCT-Z")

    def test_unknown_variant_through_pipeline(self):
        wf = Waveform("w", 0.5 * np.hanning(32) * (1 + 1j), dt=1e-9)
        with pytest.raises(CompressionError, match="registered codecs"):
            compress_waveform(wf, codec="DCT-Z")

    def test_resolve_passes_codec_objects_through(self):
        assert resolve_codec(INT_DCT_W) is INT_DCT_W
        assert resolve_codec("int-DCT-W") is INT_DCT_W
        with pytest.raises(CompressionError, match="Codec instance"):
            resolve_codec(42)

    def test_unknown_wire_id(self):
        with pytest.raises(CompressionError, match="known ids"):
            codec_for_wire_id(200)

    def test_register_validation(self):
        class Bad(Codec):
            name = ""
            wire_id = 99

            def forward(self, block):
                return block

            def inverse(self, coeffs):
                return coeffs

            def forward_blocks(self, blocks):
                return blocks

            def inverse_blocks(self, coeffs):
                return coeffs

        with pytest.raises(CompressionError, match="non-empty name"):
            register_codec(Bad())
        bad = Bad()
        bad.name = "dup"
        bad.wire_id = 2  # already int-DCT-W's
        with pytest.raises(CompressionError, match="already taken"):
            register_codec(bad)
        bad.wire_id = 4096
        with pytest.raises(CompressionError, match="u8"):
            register_codec(bad)
        bad.name = "delta"
        bad.wire_id = 99
        with pytest.raises(CompressionError, match="already registered"):
            register_codec(bad)
        with pytest.raises(CompressionError, match="Codec instance"):
            register_codec("not-a-codec")
        with pytest.raises(CompressionError, match="not registered"):
            unregister_codec("never-was")


class _NegateCodec(Codec):
    """The README's worked example: store negated samples verbatim."""

    name = "negate"
    wire_id = 200
    windowed = True
    batchable = True
    lossless = True

    def forward(self, block):
        return -self._require_1d(block, "window")

    def inverse(self, coeffs):
        return -self._require_1d(coeffs, "coefficient window")

    def forward_blocks(self, blocks):
        return -self._require_2d(blocks, "blocks")

    def inverse_blocks(self, coeffs):
        return -self._require_2d(coeffs, "coefficients")


@pytest.fixture
def negate_codec():
    codec = register_codec(_NegateCodec())
    try:
        yield codec
    finally:
        unregister_codec(codec.name)


class TestThirdPartyRegistration:
    def test_reaches_every_layer(self, negate_codec):
        """One register_codec call plugs a codec into the pipeline, the
        batch engine, the wire format, the fused decoder and the
        compiler."""
        from repro.compression import (
            compress_batch,
            decode_records,
            decompress_waveform,
            parse_waveform,
            serialize_waveform,
        )
        from repro.core import CompaqtCompiler
        from repro.devices import ibm_device

        wf = Waveform(
            "w", 0.4 * np.hanning(40) * (1 - 0.5j), dt=1e-9, gate="x", qubits=(0,)
        )
        result = compress_waveform(wf, window_size=16, codec="negate", threshold=0)
        i_codes, _ = wf.to_fixed_point()
        np.testing.assert_array_equal(
            result.reconstructed.to_fixed_point()[0], i_codes
        )
        blob = serialize_waveform(result.compressed)
        assert blob[4] == 200
        parsed = parse_waveform(blob)
        assert parsed == result.compressed
        np.testing.assert_array_equal(
            decompress_waveform(parsed).samples, result.reconstructed.samples
        )
        batch = compress_batch([wf, wf], window_size=16, codec="negate", threshold=0)
        assert batch[0].compressed == result.compressed
        np.testing.assert_array_equal(
            decode_records([blob, blob])[0].samples, result.reconstructed.samples
        )
        compiled = CompaqtCompiler(codec=negate_codec).compile_library(
            ibm_device("bogota").pulse_library()
        )
        assert compiled.variant == "negate"

    def test_scalar_only_codec_falls_back_row_by_row(self):
        """A batchable=False codec that implements only the scalar pair
        still works through the batch engine and the fused decoder,
        bit-identical to the scalar pipeline, via the base class's
        default block kernels."""
        from repro.compression import (
            compress_batch,
            decode_records,
            serialize_waveform,
        )

        class ScalarOnly(Codec):
            name = "scalar-only"
            wire_id = 201
            windowed = True
            batchable = False
            lossless = True

            def forward(self, block):
                return -self._require_1d(block, "window")

            def inverse(self, coeffs):
                return -self._require_1d(coeffs, "coefficient window")

        codec = register_codec(ScalarOnly())
        try:
            wf = Waveform(
                "w", 0.4 * np.hanning(40) * (1 - 0.2j), dt=1e-9, gate="x",
                qubits=(0,),
            )
            scalar = compress_waveform(wf, window_size=16, codec=codec)
            batch = compress_batch([wf, wf], window_size=16, codec=codec)
            assert batch[0].compressed == scalar.compressed
            blobs = [serialize_waveform(r.compressed) for r in batch]
            np.testing.assert_array_equal(
                decode_records(blobs)[1].samples,
                scalar.reconstructed.samples,
            )
        finally:
            unregister_codec("scalar-only")

    def test_unregistering_breaks_serialization_cleanly(self):
        codec = register_codec(_NegateCodec())
        try:
            wf = Waveform("w", 0.4 * np.hanning(40) * (1 + 1j), dt=1e-9)
            compressed = compress_waveform(wf, codec=codec).compressed
        finally:
            unregister_codec("negate")
        from repro.compression import serialize_waveform

        with pytest.raises(CompressionError, match="unknown variant"):
            serialize_waveform(compressed)


class TestWrapInt16:
    def test_identity_in_range(self):
        values = np.array([-32768, -1, 0, 1, 32767])
        np.testing.assert_array_equal(wrap_int16(values), values)

    def test_wraps_out_of_range(self):
        assert wrap_int16(np.array([32768]))[0] == -32768
        assert wrap_int16(np.array([-32769]))[0] == 32767
        assert wrap_int16(np.array([65536]))[0] == 0

    @given(st.lists(int16s, min_size=1, max_size=8), st.lists(int16s, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_modular_addition_is_associative(self, a, b):
        """wrap(a + b) == wrap(wrap(a) + wrap(b)): the invariant the
        delta cumsum inverse relies on."""
        a, b = np.resize(a, 8), np.resize(b, 8)
        np.testing.assert_array_equal(
            wrap_int16(a + b), wrap_int16(wrap_int16(a) + wrap_int16(b))
        )


class TestDeltaKernels:
    @given(st.lists(st.lists(int16s, min_size=16, max_size=16), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_scalar_blocks_parity_and_roundtrip(self, rows):
        blocks = _blocks(rows)
        coeffs = DELTA.forward_blocks(blocks)
        assert coeffs.shape == blocks.shape
        assert np.all(coeffs >= -32768) and np.all(coeffs <= 32767)
        for row, out in zip(blocks, coeffs):
            np.testing.assert_array_equal(DELTA.forward(row), out)
        back = DELTA.inverse_blocks(coeffs)
        np.testing.assert_array_equal(back, blocks)
        for row, out in zip(coeffs, back):
            np.testing.assert_array_equal(DELTA.inverse(row), out)

    def test_wraps_across_large_jumps(self):
        """A full-range jump wraps on encode and un-wraps on decode."""
        block = np.array([-32768, 32767, -32768, 0])
        coeffs = DELTA.forward(block)
        assert np.all(coeffs <= 32767) and np.all(coeffs >= -32768)
        np.testing.assert_array_equal(DELTA.inverse(coeffs), block)

    def test_constant_window_is_one_word(self):
        coeffs = DELTA.forward(np.full(16, 123))
        assert coeffs[0] == 123
        assert np.count_nonzero(coeffs) == 1


class TestDictionaryKernels:
    @given(st.lists(st.lists(int16s, min_size=8, max_size=8), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_scalar_blocks_parity_and_roundtrip(self, rows):
        blocks = _blocks(rows)
        coeffs = DICTIONARY.forward_blocks(blocks)
        assert coeffs.shape == (blocks.shape[0], blocks.shape[1] + 1)
        assert np.all(coeffs >= -32768) and np.all(coeffs <= 32767)
        for row, out in zip(blocks, coeffs):
            np.testing.assert_array_equal(DICTIONARY.forward(row), out)
        back = DICTIONARY.inverse_blocks(coeffs)
        np.testing.assert_array_equal(back, blocks)
        for row, out in zip(coeffs, back):
            np.testing.assert_array_equal(DICTIONARY.inverse(row), out)

    def test_coeff_count_reserves_entry_slot(self):
        assert DICTIONARY.coeff_count(16) == 17
        assert DELTA.coeff_count(16) == 16

    def test_mode_is_most_frequent_value(self):
        modes = _row_modes(np.array([[5, 5, 5, 2, 2, 9, 9, 9]]))
        assert modes[0] == 5  # 5 and 9 tie at three; ties break smallest
        assert _row_modes(np.array([[7, 1, 7, 1, 7, 0, 0, 2]]))[0] == 7

    def test_tie_breaks_are_deterministic_and_smallest(self):
        modes = _row_modes(np.array([[4, 4, -3, -3, 10, 10, 2, 7]]))
        assert modes[0] == -3

    def test_mode_samples_become_zero_residuals(self):
        block = np.array([0, 0, 0, 0, 0, 0, 150, 0])
        coeffs = DICTIONARY.forward(block)
        assert coeffs[0] == 0  # the dictionary entry (mode)
        assert np.count_nonzero(coeffs) == 1  # only the 150 survives


class TestWrappedThresholding:
    """The threshold cut sees un-wrapped residuals, not the stored words."""

    def test_delta_large_jump_survives_threshold(self):
        """A -32768 -> 32760 jump stores wrapped -8; |−8| < 128 must NOT
        zero it, or the decoder holds full scale across the jump."""
        codes = np.array([-32768, 32760, 32760, 32760], dtype=np.int64)
        channel = compress_channel(codes, 4, "delta", threshold=128)
        from repro.compression.pipeline import decompress_channel

        np.testing.assert_array_equal(decompress_channel(channel), codes)

    def test_delta_small_true_step_still_dropped(self):
        codes = np.array([1000, 1005, 1005, 1005], dtype=np.int64)
        channel = compress_channel(codes, 4, "delta", threshold=128)
        assert channel.windows[0].n_words == 2  # base + codeword
        from repro.compression.pipeline import decompress_channel

        np.testing.assert_array_equal(
            decompress_channel(channel), [1000, 1000, 1000, 1000]
        )

    def test_dictionary_far_sample_survives_threshold(self):
        """A sample 40000 codes from the entry stores wrapped -25536;
        the cut on the true distance must keep it."""
        codes = np.array([-20000, -20000, -20000, 20000], dtype=np.int64)
        channel = compress_channel(codes, 4, "dictionary", threshold=128)
        from repro.compression.pipeline import decompress_channel

        np.testing.assert_array_equal(decompress_channel(channel), codes)

    def test_dictionary_entry_slot_never_thresholded(self):
        """Zeroing a small entry would re-base every wrapped residual;
        the entry must survive any threshold."""
        coeffs = DICTIONARY.forward(np.array([50, 50, 50, -32700]))
        kept = DICTIONARY.threshold_blocks(coeffs.reshape(1, -1), 128)[0]
        assert kept[0] == 50  # the entry
        from repro.compression.pipeline import decompress_channel

        codes = np.array([50, 50, 50, -32700], dtype=np.int64)
        channel = compress_channel(codes, 4, "dictionary", threshold=128)
        np.testing.assert_array_equal(decompress_channel(channel), codes)

    def test_delta_rail_ripple_never_wraps(self):
        """Sub-threshold dips at full scale followed by a kept recovery
        delta: open-loop coding would apply the recovery word to the
        drifted held value and wrap to ~-32269; closed-loop re-basing
        keeps every decoded sample near the rail."""
        codes = np.array(
            [32767] * 4 + [32667, 32567, 32467, 32367, 32267] + [32767] * 7,
            dtype=np.int64,
        )
        channel = compress_channel(codes, 16, "delta", threshold=128)
        from repro.compression.pipeline import decompress_channel

        decoded = decompress_channel(channel)
        assert decoded.min() > 30000  # no sign-flipped glitch
        assert np.all(np.abs(decoded - codes) <= 5 * 128)
        # samples after the recovery step decode exactly
        np.testing.assert_array_equal(decoded[9:], codes[9:])

    def test_delta_kept_samples_decode_exactly(self):
        codes = np.array([0, 5000, 5003, 10000, 10001, 10002, 0, 1], dtype=np.int64)
        channel = compress_channel(codes, 8, "delta", threshold=128)
        from repro.compression.pipeline import decompress_channel

        decoded = decompress_channel(channel)
        kept = np.abs(np.diff(np.concatenate(([0], codes)))) >= 128
        np.testing.assert_array_equal(decoded[kept], codes[kept])

    @given(
        st.lists(int16s, min_size=8, max_size=8),
        st.integers(min_value=0, max_value=4000),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_error_bounded_by_window_drift(self, row, threshold):
        """Dropping only sub-threshold true steps bounds the per-sample
        decode error by the accumulated window drift (ws * threshold),
        modulo the int16 range -- no full-scale aliasing from one word."""
        codes = np.asarray(row, dtype=np.int64)
        channel = compress_channel(codes, 8, "delta", threshold=threshold)
        from repro.compression.pipeline import decompress_channel

        decoded = decompress_channel(channel)
        error = np.abs(decoded - codes)
        wrapped_error = np.minimum(error, 65536 - error)
        assert np.all(wrapped_error <= 8 * max(threshold, 1))


class TestWrappedTopK:
    """The top-k cap must also rank by un-wrapped residuals."""

    def test_delta_top_k_keeps_full_range_jump(self):
        """The -65535 jump stores wrapped word +1; ranking by stored
        magnitude would drop it first and hold full scale."""
        codes = np.array(
            [32767, -32768, 1000, 1000, 1000, 1000, 2000, 3000], dtype=np.int64
        )
        channel = compress_channel(
            codes, 8, "delta", threshold=0, max_coefficients=3
        )
        from repro.compression.pipeline import decompress_channel

        decoded = decompress_channel(channel)
        np.testing.assert_array_equal(decoded[:2], codes[:2])  # jump survives
        error = np.abs(decoded - codes)
        assert np.all(np.minimum(error, 65536 - error) <= 2000)

    def test_dictionary_top_k_never_drops_entry(self):
        codes = np.array([-20000, -20000, -20000, 20000], dtype=np.int64)
        channel = compress_channel(
            codes, 4, "dictionary", threshold=0, max_coefficients=2
        )
        window = channel.windows[0]
        assert window.coeffs[0] == -20000  # the entry stays
        from repro.compression.pipeline import decompress_channel

        decoded = decompress_channel(channel)
        np.testing.assert_array_equal(decoded[:3], codes[:3])
        assert decoded[3] == 20000  # wrapped residual ranked by true 40000

    def test_negative_threshold_rejected_for_wrapped_codecs(self):
        from repro.compression import compress_waveform_overlapping

        wf = Waveform("w", 0.5 * np.hanning(32) * (1 + 1j), dt=1e-9)
        for variant in ("delta", "dictionary"):
            with pytest.raises(CompressionError, match=">= 0"):
                compress_channel(np.arange(8), 8, variant, threshold=-50)
            with pytest.raises(CompressionError, match=">= 0"):
                compress_waveform_overlapping(wf, 8, variant, threshold=-50)
        # Every codec shares the contract, DCT family included.
        for name in list_codecs():
            with pytest.raises(CompressionError, match=">= 0"):
                get_codec(name).threshold_blocks(np.zeros((1, 8)), -1)
        with pytest.raises(CompressionError, match="max_coefficients"):
            compress_waveform_overlapping(wf, 8, "int-DCT-W", max_coefficients=-1)


class TestUnregisteredCodecObjects:
    def test_compress_rejects_unregistered_codec_early(self):
        wf = Waveform("w", 0.5 * np.hanning(32) * (1 + 1j), dt=1e-9)
        stray = _NegateCodec()  # never registered
        with pytest.raises(CompressionError, match="not registered"):
            compress_waveform(wf, codec=stray)
        from repro.compression import compress_batch

        with pytest.raises(CompressionError, match="not registered"):
            compress_batch([wf], codec=stray)

    def test_stale_replaced_instance_rejected(self):
        first = register_codec(_NegateCodec())
        try:
            second = register_codec(_NegateCodec(), replace=True)
            wf = Waveform("w", 0.5 * np.hanning(32) * (1 + 1j), dt=1e-9)
            with pytest.raises(CompressionError, match="not registered"):
                compress_waveform(wf, codec=first)
            assert compress_waveform(wf, codec=second).compressed.variant == "negate"
        finally:
            unregister_codec("negate")


class TestWindowSizeValidation:
    def test_int_dct_rejects_odd_sizes(self):
        with pytest.raises(CompressionError, match="window"):
            INT_DCT_W.check_window_size(12)
        INT_DCT_W.check_window_size(16)

    def test_delta_accepts_any_positive_size(self):
        DELTA.check_window_size(3)
        with pytest.raises(CompressionError):
            DELTA.check_window_size(0)

    def test_full_frame_resolves_to_pulse_length(self):
        assert DCT_N.resolve_window_size(77, 16) == 77
        assert DCT_W.resolve_window_size(77, 16) == 16
