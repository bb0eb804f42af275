"""Tests for BRAM packing arithmetic (Fig 12, Table V's inputs)."""

import pytest

from repro.errors import CompressionError
from repro.compression import (
    brams_per_stream_compaqt,
    brams_per_stream_uncompressed,
    compress_waveform,
    idct_engines_needed,
    pack_waveform,
)
from repro.pulses import Waveform, gaussian_square


class TestBankArithmetic:
    def test_baseline_equals_clock_ratio(self):
        assert brams_per_stream_uncompressed(16) == 16

    def test_qick_ws16_needs_three_brams(self):
        """Fig 12b: ratio 16, WS=16, 3-word windows -> 3 BRAMs."""
        assert brams_per_stream_compaqt(16, 16, 3) == 3

    def test_qick_ws8_needs_six_brams(self):
        """Section V-C: WS=8 needs two engines -> 6 BRAMs."""
        assert brams_per_stream_compaqt(16, 8, 3) == 6

    def test_engines(self):
        assert idct_engines_needed(16, 16) == 1
        assert idct_engines_needed(16, 8) == 2
        assert idct_engines_needed(6, 8) == 1  # non-multiple ratio
        assert idct_engines_needed(32, 8) == 4

    def test_non_multiple_ratio_gain_slightly_lower(self):
        """Section V-C's 6x-ratio example: gain 2x instead of 8/3."""
        baseline = brams_per_stream_uncompressed(6)
        compressed = brams_per_stream_compaqt(6, 8, 3)
        assert baseline / compressed == pytest.approx(2.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(CompressionError):
            brams_per_stream_uncompressed(0)
        with pytest.raises(CompressionError):
            idct_engines_needed(16, 0)
        with pytest.raises(CompressionError):
            brams_per_stream_compaqt(16, 16, 0)


class TestBankLayout:
    def _layout(self):
        wf = Waveform(
            "cr", gaussian_square(320, 0.3, 16, 256), dt=1e-9, gate="cx", qubits=(0, 1)
        )
        compressed = compress_waveform(wf, window_size=16).compressed
        return pack_waveform(compressed, clock_ratio=16), compressed

    def test_layout_dimensions(self):
        layout, compressed = self._layout()
        assert layout.width == compressed.worst_case_window_words
        assert layout.n_windows == compressed.n_windows
        assert layout.n_banks == layout.width  # single engine at ratio 16
        assert layout.words_per_bank == compressed.n_windows

    def test_addressing(self):
        layout, _ = self._layout()
        bank, addr = layout.address_of(window=3, slot=1)
        assert (bank, addr) == (1, 3)

    def test_addressing_bounds(self):
        layout, _ = self._layout()
        with pytest.raises(CompressionError):
            layout.address_of(window=layout.n_windows, slot=0)
        with pytest.raises(CompressionError):
            layout.address_of(window=0, slot=layout.width)
