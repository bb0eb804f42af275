"""Cross-layer decode conformance: scalar, fused, and cycle-level.

COMPAQT's guarantees only hold if every decode path plays back exactly
what the compiler stored.  These tests hold the three implementations --
the scalar reference (`decompress_channel` / `decompress_waveform`), the
fused wire-bytes decoder (`decode_record_bytes` / `decode_records`),
and the cycle-level microarchitecture (`DecompressionPipeline`) --
bit-identical across random waveforms, thresholds, window sizes and all
registered codecs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.compression import (
    compress_batch,
    compress_waveform,
    decode_record_bytes,
    decode_records,
    serialize_waveform,
)
from repro.compression.pipeline import (
    decompress_channel,
    decompress_waveform,
)
from repro.core import CompaqtCompiler
from repro.devices import google_device, ibm_device
from repro.microarch import DecompressionPipeline
from repro.pulses import Waveform
from sample_identity import assert_same_samples

WINDOW_SIZES = (8, 16, 32)
#: Every registered codec: the Table II DCT family plus the promoted
#: delta and dictionary baselines.
VARIANTS = ("DCT-N", "DCT-W", "int-DCT-W", "delta", "dictionary")
#: Windowed codecs (everything but the full-frame DCT-N).
WINDOWED_VARIANTS = ("DCT-W", "int-DCT-W", "delta", "dictionary")
#: Variants the cycle-level hardware model supports (its RLE decoder
#: and IDCT engine are fixed-size DCT units; DCT-N has no fixed-size
#: engine and delta/dictionary have no IDCT at all).
MICROARCH_VARIANTS = ("DCT-W", "int-DCT-W")


@st.composite
def waveforms(draw, min_size=1, max_size=96):
    """Random I/Q envelopes with |samples| <= ~0.99."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    channel = st.lists(
        st.floats(
            min_value=-0.70, max_value=0.70, allow_nan=False, allow_infinity=False
        ),
        min_size=n,
        max_size=n,
    )
    i = np.asarray(draw(channel))
    q = np.asarray(draw(channel))
    return Waveform("fuzz", i + 1j * q, dt=1e-9, gate="x", qubits=(0,))


thresholds = st.integers(min_value=0, max_value=2000)


def _fused(entries):
    """Fused decode of compressed waveforms via their wire bytes."""
    return decode_records([serialize_waveform(entry) for entry in entries])


def _assert_library_matches_scalar(compiled) -> None:
    """One fused decode of a compiled library equals the scalar oracle,
    pulse by pulse, in samples (as bytes) and in fixed-point codes."""
    entries = [result.compressed for _key, result in compiled]
    decoded = _fused(entries)
    assert len(decoded) == len(entries)
    for entry, waveform in zip(entries, decoded):
        reference = decompress_waveform(entry)
        assert_same_samples(waveform, reference)
        i_codes, q_codes = waveform.to_fixed_point()
        np.testing.assert_array_equal(i_codes, reference.to_fixed_point()[0])
        np.testing.assert_array_equal(
            decompress_channel(entry.i_channel), i_codes.astype(np.int64)
        )


def _assert_three_way_identical(compressed, check_microarch: bool) -> None:
    """Scalar, fused, and (optionally) cycle-level decode all agree."""
    reference = decompress_waveform(compressed)
    fused = decode_record_bytes(serialize_waveform(compressed))
    assert fused.name == reference.name
    assert_same_samples(fused, reference)

    if check_microarch:
        scalar_i = decompress_channel(compressed.i_channel)
        scalar_q = decompress_channel(compressed.q_channel)
        report = DecompressionPipeline(16).stream(compressed)
        np.testing.assert_array_equal(report.i_samples, scalar_i)
        np.testing.assert_array_equal(report.q_samples, scalar_q)


class TestRandomWaveformConformance:
    @pytest.mark.parametrize("variant", WINDOWED_VARIANTS)
    @pytest.mark.parametrize("window_size", WINDOW_SIZES)
    @given(waveform=waveforms(), threshold=thresholds)
    @settings(max_examples=25, deadline=None)
    def test_windowed_variants_all_paths(self, variant, window_size, waveform, threshold):
        compressed = compress_waveform(
            waveform, window_size=window_size, codec=variant, threshold=threshold
        ).compressed
        _assert_three_way_identical(
            compressed, check_microarch=variant in MICROARCH_VARIANTS
        )

    @pytest.mark.parametrize("variant", ("delta", "dictionary"))
    @given(waveform=waveforms())
    @settings(max_examples=25, deadline=None)
    def test_promoted_codecs_lossless_at_zero_threshold(self, variant, waveform):
        """delta and dictionary are exact at threshold 0: the decoded
        sample codes equal the quantized input codes bit for bit."""
        result = compress_waveform(
            waveform, window_size=16, codec=variant, threshold=0
        )
        i_codes, q_codes = waveform.to_fixed_point()
        out_i, out_q = result.reconstructed.to_fixed_point()
        np.testing.assert_array_equal(out_i, i_codes)
        np.testing.assert_array_equal(out_q, q_codes)

    @given(waveform=waveforms(), threshold=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_dct_n_scalar_vs_batched(self, waveform, threshold):
        """Full-frame DCT-N: one window per pulse, any length."""
        compressed = compress_waveform(
            waveform, codec="DCT-N", threshold=threshold
        ).compressed
        _assert_three_way_identical(compressed, check_microarch=False)

    @given(waveform=waveforms(min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_single_window_pulses(self, waveform):
        """Pulses shorter than one window exercise the padded tail alone."""
        compressed = compress_waveform(
            waveform, window_size=8, codec="int-DCT-W"
        ).compressed
        assert compressed.n_windows == 1
        _assert_three_way_identical(compressed, check_microarch=True)


class TestLibraryConformance:
    @pytest.fixture(scope="class")
    def libraries(self):
        library = ibm_device("lima").pulse_library()
        return {
            variant: CompaqtCompiler(codec=variant).compile_library(library)
            for variant in VARIANTS
        }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_decode_matches_scalar_per_pulse(self, libraries, variant):
        _assert_library_matches_scalar(libraries[variant])

    @pytest.mark.parametrize("variant", MICROARCH_VARIANTS)
    def test_microarch_stream_matches_batch_decode(self, libraries, variant):
        compiled = libraries[variant]
        pipeline = DecompressionPipeline(16)
        entries = [result.compressed for _key, result in compiled]
        for entry, waveform in zip(entries, _fused(entries)):
            report = pipeline.stream(entry)
            i_codes, q_codes = waveform.to_fixed_point()
            np.testing.assert_array_equal(report.i_samples, i_codes.astype(np.int64))
            np.testing.assert_array_equal(report.q_samples, q_codes.astype(np.int64))

    def test_batch_result_input_roundtrip(self):
        """Fused decode of a compress_batch result reproduces per-pulse
        reconstructions across a heterogeneous library."""
        library = google_device(2, 3).pulse_library()
        pulses = [library.waveform(*key) for key in library.keys()]
        batch = compress_batch(pulses, window_size=8)
        decoded = _fused([result.compressed for result in batch])
        for result, waveform in zip(batch, decoded):
            assert_same_samples(waveform, result.reconstructed)

    def test_mixed_variants_in_one_batch(self):
        """One decode_records call may mix codecs and window sizes;
        grouping must route every channel through the right inverse."""
        wf = Waveform(
            "mix", 0.5 * np.hanning(50) * (1 + 0.3j), dt=1e-9, gate="x", qubits=(1,)
        )
        entries = [
            compress_waveform(wf, window_size=8, codec="int-DCT-W").compressed,
            compress_waveform(wf, window_size=32, codec="DCT-W").compressed,
            compress_waveform(wf, codec="DCT-N").compressed,
            compress_waveform(wf, window_size=16, codec="int-DCT-W").compressed,
            compress_waveform(wf, window_size=16, codec="delta").compressed,
            compress_waveform(wf, window_size=8, codec="dictionary").compressed,
        ]
        for entry, waveform in zip(entries, _fused(entries)):
            reference = decompress_waveform(entry)
            assert waveform.name == reference.name
            assert_same_samples(waveform, reference)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "library",
        [ibm_device("guadalupe").pulse_library, google_device(6, 9).pulse_library],
        ids=["guadalupe", "google-6x9"],
    )
    def test_whole_device_libraries_byte_identical(self, library, variant):
        """The lima check on a long-pulse and a short-pulse library, each
        decoded in one fused call (several gemm row blocks)."""
        _assert_library_matches_scalar(
            CompaqtCompiler(codec=variant).compile_library(library())
        )


class TestValidation:
    def test_empty_inputs_rejected(self):
        with pytest.raises(CompressionError):
            decode_records([])

    def test_wrong_entry_type_rejected(self):
        """One record that is not a CQW1 blob fails the whole batch."""
        wf = Waveform("w", 0.5 * np.hanning(32) * (1 + 1j), dt=1e-9)
        good = serialize_waveform(compress_waveform(wf).compressed)
        with pytest.raises(CompressionError):
            decode_records([b"not-a-compressed-waveform"])
        with pytest.raises(CompressionError):
            decode_records([good, b"not-a-compressed-waveform"])
