"""Batched compression engine: one vectorized pass for many waveforms.

The scalar pipeline in :mod:`repro.compression.pipeline` compresses one
window at a time -- fine for a single pulse, but the compiler walks
whole device libraries (hundreds of pulses, tens of thousands of
windows) every calibration cycle.  This module stacks every window of
every channel of every pulse into a single ``(n_windows, window_size)``
matrix and runs each pipeline stage once:

1. quantize all envelopes to int16 I/Q codes;
2. one call into the codec's vectorized forward kernel (one matmul for
   the DCT family, one pass of integer arithmetic for delta/dictionary);
3. one vectorized hard-threshold (plus optional top-k cap);
4. one vectorized trailing-zero reduction feeding the RLE encoder;
5. one inverse block-kernel call to reconstruct the as-played samples.

The result is a :class:`BatchCompressionResult` whose per-pulse entries
are ordinary :class:`~repro.compression.pipeline.CompressionResult`
objects, bit-identical to what :func:`compress_waveform` produces pulse
by pulse (the scalar path remains the reference implementation; the
parity test suite holds the two paths equal window for window).

DCT-N has no fixed window -- its "window" is the full pulse -- so the
engine groups pulses by length and runs one matmul per distinct length,
which on real libraries (two or three distinct durations) is still a
handful of matmuls total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import CompressionError
from repro.compression.codecs import ensure_registered, resolve_codec
from repro.compression.metrics import mean_squared_error
from repro.compression.pipeline import (
    DEFAULT_THRESHOLD,
    CodecLike,
    CompressedChannel,
    CompressedWaveform,
    CompressionResult,
)
from repro.compression.window import merge_windows, split_windows
from repro.pulses.waveform import Waveform
from repro.transforms.rle import rle_encode_blocks

__all__ = ["BatchCompressionResult", "compress_batch"]


@dataclass(frozen=True)
class BatchCompressionResult:
    """Results of one batched compression pass over many waveforms.

    Per-pulse provenance is preserved: ``results[i]`` is the full
    :class:`CompressionResult` for ``waveforms[i]``, so any caller that
    consumed the scalar API can consume a batch entry unchanged.
    """

    results: Tuple[CompressionResult, ...]
    variant: str
    window_size: int
    threshold: float

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> CompressionResult:
        return self.results[index]

    def result_for(self, name: str) -> CompressionResult:
        """Look up one pulse's result by waveform name."""
        for result in self.results:
            if result.compressed.name == name:
                return result
        raise CompressionError(f"no batch entry named {name!r}")

    # -- aggregate metrics ---------------------------------------------------

    @property
    def n_pulses(self) -> int:
        return len(self.results)

    @property
    def total_samples(self) -> int:
        """Original complex samples across all pulses."""
        return sum(r.compressed.original_samples for r in self.results)

    def total_stored_words(self, packing: str = "uniform") -> int:
        return sum(r.compressed.stored_words(packing) for r in self.results)

    def overall_ratio(self, packing: str = "uniform") -> float:
        """Library-level R: total old size / total new size."""
        stored = self.total_stored_words(packing)
        if stored == 0:
            raise CompressionError("empty batch compression result")
        return self.total_samples / stored

    @property
    def mean_mse(self) -> float:
        return float(np.mean([r.mse for r in self.results]))

    @property
    def max_mse(self) -> float:
        return float(np.max([r.mse for r in self.results]))


def compress_batch(
    waveforms: Sequence[Waveform],
    window_size: int = 16,
    codec: CodecLike = "int-DCT-W",
    threshold: float = DEFAULT_THRESHOLD,
    max_coefficients: int = 0,
) -> BatchCompressionResult:
    """Compress many waveforms in one vectorized pass.

    Args:
        waveforms: The pulses to compress (e.g. a whole device library).
        window_size: Codec window (8/16/32 for the DCT family); ignored
            by full-frame codecs (DCT-N), which use each pulse's length.
        codec: A registered codec name or a
            :class:`~repro.compression.codecs.Codec` object.
        threshold: Hard threshold in integer coefficient units.
        max_coefficients: Optional per-window top-k cap.

    Returns:
        A :class:`BatchCompressionResult` whose entries are bit-identical
        to per-pulse :func:`~repro.compression.pipeline.compress_waveform`
        calls with the same configuration.
    """
    codec = ensure_registered(resolve_codec(codec))
    if not waveforms:
        raise CompressionError("cannot batch-compress an empty waveform list")
    if threshold < 0:
        raise CompressionError(f"threshold must be >= 0, got {threshold}")
    if max_coefficients < 0:
        raise CompressionError(
            f"max_coefficients must be >= 0, got {max_coefficients}"
        )
    if codec.windowed:
        codec.check_window_size(window_size)

    # Quantize every envelope and split each channel into windows.  A
    # "channel" here is one of the 2 * n_pulses int16 streams; channels
    # are concatenated in (pulse, I-then-Q) order so slices recover
    # per-pulse provenance.
    channels: List[np.ndarray] = []  # int64 codes, one entry per channel
    lengths: List[int] = []  # original sample count per channel
    pulse_window_sizes: List[int] = []
    for waveform in waveforms:
        ws = codec.resolve_window_size(waveform.n_samples, window_size)
        pulse_window_sizes.append(ws)
        i_codes, q_codes = waveform.to_fixed_point()
        channels.append(np.asarray(i_codes, dtype=np.int64))
        channels.append(np.asarray(q_codes, dtype=np.int64))
        lengths.extend([i_codes.size, q_codes.size])

    # Group channels by window size (one group for windowed codecs;
    # one group per distinct pulse length for full-frame codecs), then
    # run every pipeline stage once per group.
    groups: Dict[int, List[int]] = {}
    for index, codes in enumerate(channels):
        ws = pulse_window_sizes[index // 2]
        groups.setdefault(ws, []).append(index)

    encoded_by_channel: List[Tuple] = [None] * len(channels)
    recon_by_channel: List[np.ndarray] = [None] * len(channels)
    for ws, indices in groups.items():
        blocks_per_channel = [
            split_windows(channels[i], ws) for i in indices
        ]
        counts = [b.shape[0] for b in blocks_per_channel]
        stacked = np.vstack(blocks_per_channel)

        coeffs = codec.forward_blocks(stacked)
        kept = codec.threshold_blocks(coeffs, threshold)
        if max_coefficients:
            kept = codec.top_k_blocks(kept, max_coefficients)
        encoded = rle_encode_blocks(kept)
        recon = codec.inverse_blocks(kept)

        offset = 0
        for i, count in zip(indices, counts):
            encoded_by_channel[i] = tuple(encoded[offset : offset + count])
            recon_by_channel[i] = merge_windows(
                recon[offset : offset + count], lengths[i]
            )
            offset += count

    # Reassemble per-pulse results in the scalar pipeline's exact shape.
    results: List[CompressionResult] = []
    for p, waveform in enumerate(waveforms):
        ws = pulse_window_sizes[p]
        i_index, q_index = 2 * p, 2 * p + 1
        compressed = CompressedWaveform(
            name=waveform.name,
            gate=waveform.gate,
            qubits=waveform.qubits,
            dt=waveform.dt,
            i_channel=CompressedChannel(
                windows=encoded_by_channel[i_index],
                variant=codec.name,
                window_size=ws,
                original_length=lengths[i_index],
            ),
            q_channel=CompressedChannel(
                windows=encoded_by_channel[q_index],
                variant=codec.name,
                window_size=ws,
                original_length=lengths[q_index],
            ),
        )
        reconstructed = Waveform.from_fixed_point(
            np.clip(recon_by_channel[i_index], -32768, 32767).astype(np.int16),
            np.clip(recon_by_channel[q_index], -32768, 32767).astype(np.int16),
            dt=waveform.dt,
            name=f"{waveform.name}~{codec.name}",
            gate=waveform.gate,
            qubits=waveform.qubits,
        )
        results.append(
            CompressionResult(
                compressed=compressed,
                reconstructed=reconstructed,
                mse=mean_squared_error(waveform.samples, reconstructed.samples),
                threshold=threshold,
            )
        )
    return BatchCompressionResult(
        results=tuple(results),
        variant=codec.name,
        window_size=window_size,
        threshold=threshold,
    )
