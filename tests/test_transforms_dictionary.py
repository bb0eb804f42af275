"""Tests for the dictionary-compression baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CompressionError
from repro.pulses import drag, quantize
from repro.compression.codecs.dictionary import (
    dictionary_compress,
    dictionary_decompress,
)


def sample_arrays():
    return hnp.arrays(
        np.int64, st.integers(1, 300), elements=st.integers(-2000, 2000)
    )


class TestLossless:
    @given(sample_arrays(), st.sampled_from([4, 16, 64]))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, samples, dict_size):
        encoded = dictionary_compress(samples, dict_size=dict_size)
        np.testing.assert_array_equal(dictionary_decompress(encoded), samples)


class TestPaperBehaviour:
    def test_waveform_samples_rarely_repeat(self):
        """Section IV-B: dictionary schemes fail on pulse envelopes
        because sample values are essentially all distinct."""
        codes = quantize(drag(160, 0.9, 40, -1.5).real).astype(np.int64)
        encoded = dictionary_compress(codes, dict_size=16)
        assert encoded.hit_rate < 0.35
        assert encoded.compression_ratio < 1.4

    def test_flat_top_is_the_favourable_case(self):
        samples = np.concatenate([np.arange(20), np.full(300, 777)])
        encoded = dictionary_compress(samples, dict_size=8)
        assert encoded.hit_rate > 0.9
        assert encoded.compression_ratio > 1.5

    def test_hit_rate_bounds(self):
        encoded = dictionary_compress(np.arange(100), dict_size=100)
        assert encoded.hit_rate == 1.0


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(CompressionError):
            dictionary_compress(np.array([], dtype=int))

    def test_bad_dict_size_rejected(self):
        with pytest.raises(CompressionError):
            dictionary_compress(np.ones(4, dtype=int), dict_size=0)

    def test_encoded_bits_include_dictionary(self):
        samples = np.full(10, 5)
        encoded = dictionary_compress(samples, dict_size=4)
        assert encoded.encoded_bits >= len(encoded.dictionary) * 16
