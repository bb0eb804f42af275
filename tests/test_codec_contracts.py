"""Property-based contracts of the full compression codec.

Hypothesis drives randomized waveform families through the complete
compress -> decompress path, asserting the invariants every COMPAQT
configuration must satisfy regardless of pulse shape, window size or
threshold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import compress_waveform, decompress_waveform
from repro.pulses import Waveform, drag, gaussian_square


@st.composite
def waveforms(draw):
    """Random realistic pulse: DRAG or flat-top, arbitrary scale/shape."""
    kind = draw(st.sampled_from(["drag", "flat"]))
    if kind == "drag":
        duration = draw(st.integers(32, 320))
        amp = draw(st.floats(0.02, 0.6))
        beta = draw(st.floats(-3.0, 3.0))
        samples = drag(duration, amp, duration / 4, beta)
    else:
        duration = draw(st.integers(64, 640))
        amp = draw(st.floats(0.05, 0.8))
        width = draw(st.integers(0, duration))
        sigma = draw(st.floats(4.0, duration / 4))
        samples = gaussian_square(duration, amp, sigma, width)
    return Waveform("w", samples, dt=1 / 4.54e9, gate="x", qubits=(0,))


@st.composite
def configs(draw):
    return {
        "window_size": draw(st.sampled_from([8, 16, 32])),
        "codec": draw(st.sampled_from(["DCT-W", "int-DCT-W"])),
        "threshold": draw(st.sampled_from([0, 32, 128, 512, 2048])),
        "max_coefficients": draw(st.sampled_from([0, 1, 2, 4])),
    }


class TestCodecContracts:
    @given(waveforms(), configs())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_preserves_geometry(self, waveform, config):
        """Length, dt, gate binding and amplitude bound always survive."""
        result = compress_waveform(waveform, **config)
        out = result.reconstructed
        assert out.n_samples == waveform.n_samples
        assert out.dt == waveform.dt
        assert out.gate == waveform.gate
        assert float(np.max(np.abs(out.samples))) <= 1.0 + 1e-9

    @given(waveforms(), configs())
    @settings(max_examples=60, deadline=None)
    def test_storage_bounds(self, waveform, config):
        """Stored words are bounded below by one codeword per window and
        above by the window size (plus codeword) -- never negative
        compression beyond the window structure."""
        result = compress_waveform(waveform, **config)
        compressed = result.compressed
        n = compressed.n_windows
        assert n >= waveform.n_samples // config["window_size"]
        assert compressed.stored_words("variable") >= n
        assert compressed.stored_words("uniform") <= n * (
            config["window_size"] + 0
        ) + n  # ws coeffs max, codeword never coexists with full window
        if config["max_coefficients"]:
            # Top-k bounds *non-zero* coefficients per window; interior
            # zeros ahead of a kept coefficient still occupy words
            # because RLE only folds the tail (hypothesis found this
            # corner -- DC-dominated library pulses never hit it).
            for channel in (compressed.i_channel, compressed.q_channel):
                for window in channel.windows:
                    nonzero = sum(1 for c in window.coeffs if c != 0)
                    assert nonzero <= config["max_coefficients"]

    @given(waveforms(), configs())
    @settings(max_examples=40, deadline=None)
    def test_decompress_is_deterministic(self, waveform, config):
        result = compress_waveform(waveform, **config)
        again = decompress_waveform(result.compressed)
        np.testing.assert_array_equal(
            result.reconstructed.samples, again.samples
        )

    @given(waveforms())
    @settings(max_examples=40, deadline=None)
    def test_zero_threshold_high_fidelity(self, waveform):
        """With no thresholding, MSE stays at the transform floor."""
        result = compress_waveform(
            waveform, window_size=16, codec="int-DCT-W", threshold=0
        )
        assert result.mse < 1e-4

    @given(waveforms(), st.sampled_from([8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_mse_monotone_in_threshold(self, waveform, ws):
        """Raising the threshold cannot improve fidelity -- up to the
        transform's own distortion floor, and only over *whole* windows.
        The integer DCT is only approximately orthogonal, so some of its
        rounding noise lives in small coefficients; zeroing those can
        *reduce* MSE by up to the zero-threshold floor (hypothesis found
        such a pulse), which is why the bound is floor-relative rather
        than strict.  A zero-padded tail window breaks the property
        entirely: MSE only counts the real samples, and thresholding can
        migrate reconstruction error into the discarded pad region
        (hypothesis found a 15-sample flat-top in a 16-window whose MSE
        *drops* from 2.8e-5 to 2.1e-5 between thresholds 128 and 1024),
        so the pulse is cropped to a whole number of windows first."""
        n = max(ws, (waveform.n_samples // ws) * ws)
        samples = np.resize(waveform.samples, n)
        waveform = Waveform(
            "w", samples, dt=waveform.dt, gate="x", qubits=(0,)
        )
        floor = compress_waveform(waveform, window_size=ws, threshold=0).mse
        previous = -1.0
        for threshold in (0, 128, 1024):
            mse = compress_waveform(
                waveform, window_size=ws, threshold=threshold
            ).mse
            assert mse >= previous - max(floor, 1e-12)
            previous = mse

    @given(waveforms(), st.sampled_from([8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_storage_monotone_in_threshold(self, waveform, ws):
        previous = None
        for threshold in (0, 128, 1024):
            words = compress_waveform(
                waveform, window_size=ws, threshold=threshold
            ).compressed.stored_words("variable")
            if previous is not None:
                assert words <= previous
            previous = words

    @given(waveforms())
    @settings(max_examples=30, deadline=None)
    def test_pipeline_stream_matches_codec(self, waveform):
        """The hardware model agrees with the functional codec for any
        pulse shape (not just library entries)."""
        from repro.microarch import DecompressionPipeline

        compressed = compress_waveform(waveform, window_size=16).compressed
        report = DecompressionPipeline(16).stream(compressed)
        reference = decompress_waveform(compressed)
        i_codes, q_codes = reference.to_fixed_point()
        np.testing.assert_array_equal(report.i_samples, i_codes.astype(np.int64))
        np.testing.assert_array_equal(report.q_samples, q_codes.astype(np.int64))
