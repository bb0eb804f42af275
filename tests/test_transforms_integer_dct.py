"""Tests for the HEVC-style integer DCT (int-DCT-W's transform)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CompressionError
from repro.transforms.integer_dct import (
    INVERSE_SHIFT,
    _GEMM_MACS,
    _rshift_round,
    _saturate16,
    int_dct_blocks,
    int_idct_blocks,
)
from repro.transforms import (
    LOEFFLER_OP_COUNTS,
    SUPPORTED_SIZES,
    dct_matrix,
    idct_adder_depth,
    idct_op_counts,
    int_dct,
    int_idct,
    int_idct_shift_add,
    integer_dct_matrix,
    scale_bits,
)

_HEVC_4 = np.array(
    [
        [64, 64, 64, 64],
        [83, 36, -36, -83],
        [64, -64, -64, 64],
        [36, -83, 83, -36],
    ]
)


def int16_blocks(n):
    return hnp.arrays(
        np.int64, st.just(n), elements=st.integers(-32767, 32767)
    )


class TestMatrixConstruction:
    def test_matches_published_hevc_4x4(self):
        np.testing.assert_array_equal(integer_dct_matrix(4), _HEVC_4)

    def test_hevc_8_point_odd_row(self):
        np.testing.assert_array_equal(
            integer_dct_matrix(8)[1], [89, 75, 50, 18, -18, -50, -75, -89]
        )

    def test_hevc_16_point_leading_entries(self):
        matrix = integer_dct_matrix(16)
        assert matrix[0, 0] == 64
        assert matrix[1, 0] == 90

    def test_hevc_32_point_leading_entries(self):
        matrix = integer_dct_matrix(32)
        assert matrix[0, 0] == 64
        assert matrix[1, 0] == 90

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_scale_formula(self, n):
        assert scale_bits(n) == 6 + np.log2(n) / 2

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_near_orthogonality(self, n):
        matrix = integer_dct_matrix(n).astype(float)
        gram = matrix @ matrix.T / 2 ** (2 * scale_bits(n))
        np.testing.assert_allclose(gram, np.eye(n), atol=0.02)

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_rows_subsample_double_size(self, n):
        """HEVC structure: even rows of H_2N are H_N (on half the cols)."""
        if n == 32:
            pytest.skip("largest size has no parent")
        parent = integer_dct_matrix(2 * n)
        np.testing.assert_array_equal(parent[::2, : n], integer_dct_matrix(n))

    def test_unsupported_size_rejected(self):
        with pytest.raises(CompressionError):
            integer_dct_matrix(12)


def _roundtrip_bound(x):
    """HEVC's integer matrices are *near*-orthogonal: matrix rounding
    contributes a relative error of ~1-2%, plus up to ~6 LSBs from the
    forward-shift coefficient quantization (dominant for tiny signals).
    Smooth signals (real waveforms) stay within a few LSBs because
    their energy sits in the accurate low-frequency rows."""
    return 6 + 0.02 * np.max(np.abs(x))


class TestRoundTrip:
    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_reconstruction_error_bounded(self, n):
        rng = np.random.default_rng(n)
        x = rng.integers(-20000, 20000, size=n)
        back = int_idct(int_dct(x))
        assert np.max(np.abs(back.astype(np.int64) - x)) <= _roundtrip_bound(x)

    @given(int16_blocks(16))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property_ws16(self, x):
        back = int_idct(int_dct(x))
        assert np.max(np.abs(back.astype(np.int64) - x)) <= _roundtrip_bound(x)

    @given(int16_blocks(8))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property_ws8(self, x):
        back = int_idct(int_dct(x))
        assert np.max(np.abs(back.astype(np.int64) - x)) <= _roundtrip_bound(x)

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_smooth_signal_roundtrip_sub_percent(self, n):
        """The case that matters for waveforms: band-limited content
        reconstructs to sub-0.5% accuracy (MSE ~1e-6 in float units,
        exactly Fig 7c's int-DCT-W band)."""
        t = np.arange(n)
        x = np.rint(25000 * np.exp(-0.5 * ((t - n / 2) / (n / 5)) ** 2)).astype(
            np.int64
        )
        back = int_idct(int_dct(x))
        assert np.max(np.abs(back.astype(np.int64) - x)) <= 4 + 0.005 * 25000

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_dc_only_input(self, n):
        x = np.full(n, 12345)
        y = int_dct(x)
        assert abs(int(y[0])) > 0
        np.testing.assert_array_equal(y[1:], 0)

    def test_forward_output_fits_int16(self):
        x = np.full(16, 32767)
        y = int_dct(x)
        assert y.dtype == np.int16

    def test_coefficients_approximate_scaled_float_dct(self):
        rng = np.random.default_rng(5)
        x = rng.integers(-30000, 30000, size=16)
        expected = dct_matrix(16) @ x / np.sqrt(16)
        # Matrix-entry rounding contributes up to ~0.5 * sum|x| / 2^10.
        np.testing.assert_allclose(int_dct(x), expected, atol=260)

    def test_wrong_size_rejected(self):
        with pytest.raises(CompressionError):
            int_dct(np.zeros(10))
        with pytest.raises(CompressionError):
            int_idct(np.zeros(10))


class TestShiftAddEquivalence:
    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_idct_matches_multiplierless_reference(self, n):
        """The hardware claim: shifts+adds compute the exact IDCT."""
        rng = np.random.default_rng(n + 1)
        for _ in range(5):
            y = rng.integers(-2000, 2000, size=n)
            np.testing.assert_array_equal(int_idct(y), int_idct_shift_add(y))


def _int64_inverse(spectra):
    """The int64 product the float kernel must reproduce bit for bit."""
    x = np.asarray(spectra, dtype=np.int64) @ integer_dct_matrix(spectra.shape[1])
    return _saturate16(_rshift_round(x, INVERSE_SHIFT))


def _assert_kernel_exact(spectra):
    got = int_idct_blocks(spectra)
    want = _int64_inverse(spectra)
    assert got.dtype == np.float64 and got.shape == spectra.shape
    np.testing.assert_array_equal(got, want)
    # Bytes, not values: an int converts to +0.0, so this also proves
    # the float round-shift never yields -0.0.
    assert got.tobytes() == want.astype(np.float64).tobytes()


class TestBlockKernel:
    """int_idct_blocks' float64 gemm equals the int64 product exactly."""

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    @pytest.mark.parametrize(
        "blocks, extra",
        [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
        ids=["one-row", "block-1", "block", "block+1", "two-blocks+3"],
    )
    def test_random_int16_coefficients(self, n, blocks, extra):
        rows = blocks * (_GEMM_MACS // (n * n)) + extra
        rng = np.random.default_rng(1000 * n + rows)
        spectra = rng.integers(-32768, 32768, size=(rows, n))
        # Random coefficients mostly saturate; every other row is instead
        # the forward transform of full-scale samples, whose large
        # partial sums cancel to in-range codes, where any rounding in
        # the gemm would show.
        samples = rng.integers(-32768, 32768, size=(rows // 2, n))
        spectra[1::2] = int_dct_blocks(samples)
        _assert_kernel_exact(spectra)

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_extremes_reach_the_largest_sums(self, n):
        """Full-scale rows, and rows signed like each column of H_N,
        which drive that output to the largest magnitude any 16-bit
        coefficients can reach."""
        matrix = integer_dct_matrix(n)
        positive = matrix.T > 0  # row j follows the signs of column j
        spectra = np.vstack(
            [
                np.full((1, n), 32767),
                np.full((1, n), -32768),
                np.where(positive, 32767, -32768),
                np.where(positive, -32768, 32767),
                np.zeros((1, n), dtype=np.int64),
            ]
        )
        assert np.array_equal(spectra.astype(np.int16), spectra)
        _assert_kernel_exact(spectra)
        pos = np.where(matrix > 0, matrix, 0).sum(axis=0)
        neg = np.where(matrix < 0, -matrix, 0).sum(axis=0)
        largest = np.maximum(32768 * pos + 32767 * neg, 32767 * pos + 32768 * neg)
        np.testing.assert_array_equal(
            np.abs(spectra @ matrix).max(axis=0), largest
        )

    def test_round_shift_to_zero_is_positive_zero(self):
        # 64 * -5 + 36 * 8 = -32: the HEVC offset lands exactly on 0.
        spectra = np.array([[-5, 0, 0, 8]])
        assert _int64_inverse(spectra)[0, 0] == 0
        _assert_kernel_exact(spectra)

    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_out_of_range_input_matches_the_int64_product(self, n):
        """Input no stored stream can carry, up to the documented
        exactness bound of 2**40, takes the same gemm and stays exact."""
        big = 2**40 - 1
        spectra = np.zeros((5, n), dtype=np.int64)
        spectra[0, 0] = 32768
        spectra[1, 0] = -32769
        spectra[2] = np.arange(n) - 40000
        spectra[3] = big
        spectra[4] = np.where(integer_dct_matrix(n)[:, 1] > 0, big, -big)
        _assert_kernel_exact(spectra)

    def test_empty_and_malformed_input(self):
        assert int_idct_blocks(np.empty((0, 16), dtype=np.int64)).shape == (0, 16)
        with pytest.raises(CompressionError):
            int_idct_blocks(np.zeros(16))
        with pytest.raises(CompressionError):
            int_idct_blocks(np.zeros((2, 12)))


class TestOpCounts:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_int_variant_has_no_multipliers(self, n):
        ops = idct_op_counts(n, "int-DCT-W")
        assert ops.multipliers == 0
        assert ops.adders > 0
        assert ops.shifters > 0

    def test_loeffler_counts_published(self):
        assert LOEFFLER_OP_COUNTS[8].multipliers == 11
        assert LOEFFLER_OP_COUNTS[8].adders == 29
        assert LOEFFLER_OP_COUNTS[16].multipliers == 26
        assert LOEFFLER_OP_COUNTS[16].adders == 81

    def test_dct_w_variant_uses_loeffler(self):
        assert idct_op_counts(8, "DCT-W") == LOEFFLER_OP_COUNTS[8]

    def test_adders_grow_with_window(self):
        a8 = idct_op_counts(8).adders
        a16 = idct_op_counts(16).adders
        a32 = idct_op_counts(32).adders
        assert a8 < a16 < a32

    def test_ws16_ops_in_table_iv_band(self):
        """Table IV: 186 adders / 128 shifters for WS=16; our greedy CSE
        should land within ~40% of the hand-optimized design."""
        ops = idct_op_counts(16)
        assert 110 <= ops.adders <= 270
        assert 30 <= ops.shifters <= 190

    def test_unknown_variant_rejected(self):
        with pytest.raises(CompressionError):
            idct_op_counts(8, "DCT-XYZ")


class TestAdderDepth:
    def test_depth_grows_with_window(self):
        assert idct_adder_depth(8) <= idct_adder_depth(16) <= idct_adder_depth(32)

    def test_multiplier_variant_deeper_than_int(self):
        assert idct_adder_depth(8, "DCT-W") > idct_adder_depth(8, "int-DCT-W")
