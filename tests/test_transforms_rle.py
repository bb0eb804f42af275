"""Tests for the tail run-length codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CompressionError
from repro.transforms import (
    TAG_COEFF,
    TAG_ZERO_RUN,
    EncodedWindow,
    MemoryWord,
    rle_decode_window,
    rle_encode_window,
)


def windows(size=16):
    return hnp.arrays(np.int64, st.just(size), elements=st.integers(-500, 500))


class TestRoundTrip:
    @given(windows())
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_identity(self, values):
        encoded = rle_encode_window(values)
        np.testing.assert_array_equal(rle_decode_window(encoded), values)

    def test_all_zero_window_is_one_codeword(self):
        encoded = rle_encode_window(np.zeros(16, dtype=int))
        assert encoded.coeffs == ()
        assert encoded.zero_run == 16
        assert encoded.n_words == 1

    def test_typical_window_two_coeffs(self):
        encoded = rle_encode_window([900, -35] + [0] * 14)
        assert encoded.coeffs == (900, -35)
        assert encoded.zero_run == 14
        assert encoded.n_words == 3  # 2 coefficients + codeword

    def test_no_trailing_zeros_no_codeword(self):
        values = list(range(1, 9))
        encoded = rle_encode_window(values)
        assert encoded.zero_run == 0
        assert encoded.n_words == 8

    def test_interior_zeros_stay_explicit(self):
        encoded = rle_encode_window([5, 0, 0, 7, 0, 0, 0, 0])
        assert encoded.coeffs == (5, 0, 0, 7)
        assert encoded.zero_run == 4
        assert encoded.n_words == 5

    def test_empty_window_rejected(self):
        with pytest.raises(CompressionError):
            rle_encode_window(np.array([]))


class TestEncodedWindowInvariants:
    def test_trailing_zero_coeff_rejected(self):
        with pytest.raises(CompressionError):
            EncodedWindow(coeffs=(5, 0), zero_run=3)

    def test_negative_run_rejected(self):
        with pytest.raises(CompressionError):
            EncodedWindow(coeffs=(5,), zero_run=-1)

    def test_window_size_accounting(self):
        window = EncodedWindow(coeffs=(1, 2, 3), zero_run=13)
        assert window.window_size == 16
        assert window.n_words == 4


class TestSerialization:
    def test_to_words_layout(self):
        window = EncodedWindow(coeffs=(7, -2), zero_run=6)
        words = window.to_words()
        assert [w.tag for w in words] == [TAG_COEFF, TAG_COEFF, TAG_ZERO_RUN]
        assert [w.value for w in words] == [7, -2, 6]

    def test_full_window_has_no_codeword(self):
        window = EncodedWindow(coeffs=(1, 2, 3, 4), zero_run=0)
        assert all(w.tag == TAG_COEFF for w in window.to_words())

    def test_memory_word_is_frozen(self):
        word = MemoryWord(TAG_COEFF, 5)
        with pytest.raises(AttributeError):
            word.value = 6
