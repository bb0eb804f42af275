"""Adaptive compression for flat-top waveforms (Section V-D, Fig 13).

Flat-top (GaussianSquare) pulses dominate two-qubit gates and readout.
Their plateau repeats one sample value for hundreds of samples; adaptive
compression encodes the whole plateau as a *single repeat codeword* that
the hardware feeds straight to the DAC buffer, bypassing both the memory
(no further reads) and the IDCT engine -- the extra power win of Fig 19.

The rise and fall ramps are compressed with the normal windowed pipeline.
Plateau boundaries are aligned to window edges so the ramp segments stay
whole windows.

This module also hosts the **drift / recalibration** model
(:class:`DriftModel`, :func:`recalibration_updates`): the seeded
amplitude-and-phase wander that makes a calibrated pulse library go
stale, and the selector for which pulses have drifted far enough to be
recompiled and republished through the writable store
(``examples/recalibration_loop.py`` drives the full loop).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import CompressionError
from repro.compression.codecs import resolve_codec
from repro.compression.metrics import mean_squared_error
from repro.compression.pipeline import (
    CodecLike,
    CompressedChannel,
    compress_channel,
    decompress_channel,
)
from repro.pulses.waveform import Waveform
from repro.transforms.rle import TAG_REPEAT, MemoryWord

__all__ = [
    "RepeatSegment",
    "WindowSegment",
    "AdaptiveCompressionResult",
    "adaptive_compress",
    "DriftModel",
    "recalibration_updates",
]


@dataclass(frozen=True)
class RepeatSegment:
    """A plateau encoded as one repeat codeword per channel.

    Attributes:
        i_value / q_value: The repeated I and Q sample codes.
        count: Plateau length in samples.
    """

    i_value: int
    q_value: int
    count: int

    @property
    def n_words(self) -> int:
        """One packed repeat codeword per channel."""
        return 1

    def to_words(self) -> List[MemoryWord]:
        return [
            MemoryWord(TAG_REPEAT, self.count, self.i_value),
            MemoryWord(TAG_REPEAT, self.count, self.q_value),
        ]


@dataclass(frozen=True)
class WindowSegment:
    """A ramp region compressed with the regular windowed pipeline."""

    i_channel: CompressedChannel
    q_channel: CompressedChannel

    @property
    def n_samples(self) -> int:
        return self.i_channel.original_length

    @property
    def stored_words(self) -> int:
        """Per-channel worst-case-uniform words (RFSoC accounting)."""
        width = max(self.i_channel.worst_case_words, self.q_channel.worst_case_words)
        return self.i_channel.n_windows * width


Segment = Union[RepeatSegment, WindowSegment]


@dataclass(frozen=True)
class AdaptiveCompressionResult:
    """Adaptive-compressed waveform: ramp windows + plateau repeats."""

    name: str
    dt: float
    segments: Tuple[Segment, ...]
    original: Waveform
    reconstructed: Waveform
    mse: float

    @property
    def stored_words(self) -> int:
        """Per-channel stored words across all segments."""
        return sum(s.stored_words if isinstance(s, WindowSegment) else s.n_words
                   for s in self.segments)

    @property
    def compression_ratio(self) -> float:
        return self.original.n_samples / max(1, self.stored_words)

    @property
    def idct_windows(self) -> int:
        """Windows that must flow through the IDCT engine at playback."""
        return sum(
            s.i_channel.n_windows for s in self.segments if isinstance(s, WindowSegment)
        )

    @property
    def bypass_samples(self) -> int:
        """Samples produced with the IDCT engine (and memory) idle."""
        return sum(s.count for s in self.segments if isinstance(s, RepeatSegment))

    @property
    def bypass_fraction(self) -> float:
        """Fraction of playback time spent in the low-power bypass."""
        return self.bypass_samples / self.original.n_samples


@dataclass(frozen=True)
class DriftModel:
    """Seeded amplitude/phase drift of a calibrated pulse library.

    Real control electronics wander: mixer gain and LO phase drift with
    temperature, so a pulse that was calibrated at step 0 slowly stops
    matching the device.  This model is the deterministic stand-in --
    each ``(waveform, step)`` pair maps to one drifted envelope, with
    the wander growing like a random walk (``sqrt(step)``) so later
    steps have drifted further.

    Attributes:
        seed: Root of every draw; two models with the same seed drift a
            library identically.
        amplitude_sigma: Per-step relative gain wander (std dev).
        phase_sigma: Per-step phase wander in radians (std dev).
    """

    seed: int = 0
    amplitude_sigma: float = 0.01
    phase_sigma: float = 0.005

    def __post_init__(self) -> None:
        if self.amplitude_sigma < 0 or self.phase_sigma < 0:
            raise CompressionError(
                "drift sigmas must be >= 0, got "
                f"amplitude={self.amplitude_sigma} phase={self.phase_sigma}"
            )

    def _rng(self, waveform: Waveform, step: int) -> random.Random:
        tag = zlib.crc32(waveform.name.encode("utf-8"))
        return random.Random((self.seed << 40) ^ (step << 20) ^ tag)

    def drifted(self, waveform: Waveform, step: int) -> Waveform:
        """The envelope ``waveform`` has wandered to by drift step ``step``.

        Step 0 is the calibrated original.  The drifted envelope is the
        original rotated by a phase error and scaled by a gain error,
        both drawn per ``(seed, waveform.name, step)``; a gain above
        full scale is clamped back to peak 1.0 the way the DAC would.
        """
        if step < 0:
            raise CompressionError(f"drift step must be >= 0, got {step}")
        if step == 0:
            return waveform
        rng = self._rng(waveform, step)
        scale = np.sqrt(step)
        gain = 1.0 + rng.gauss(0.0, self.amplitude_sigma) * scale
        phase = rng.gauss(0.0, self.phase_sigma) * scale
        samples = waveform.samples * (gain * np.exp(1j * phase))
        peak = float(np.max(np.abs(samples)))
        if peak > 1.0:
            samples = samples / peak
        return waveform.with_samples(samples)

    def drift_mse(self, waveform: Waveform, step: int) -> float:
        """MSE between the calibrated envelope and its drift at ``step``."""
        return float(
            mean_squared_error(
                waveform.samples, self.drifted(waveform, step).samples
            )
        )


def recalibration_updates(
    waveforms: Iterable[Waveform],
    model: DriftModel,
    step: int,
    mse_budget: float = 1e-6,
) -> List[Waveform]:
    """The pulses that need recompiling at drift step ``step``.

    Returns the *drifted* envelopes of every waveform whose drift MSE
    exceeds ``mse_budget`` -- exactly the set a control stack should
    recompile and republish through
    :class:`~repro.store.StoreWriter`, leaving the still-in-budget
    pulses untouched (and their cache entries valid).
    """
    if mse_budget < 0:
        raise CompressionError(f"mse_budget must be >= 0, got {mse_budget}")
    updates: List[Waveform] = []
    for waveform in waveforms:
        drifted = model.drifted(waveform, step)
        if mean_squared_error(waveform.samples, drifted.samples) > mse_budget:
            updates.append(drifted)
    return updates


def adaptive_compress(
    waveform: Waveform,
    window_size: int = 16,
    codec: CodecLike = "int-DCT-W",
    threshold: float = 128,
    min_plateau_windows: int = 2,
) -> AdaptiveCompressionResult:
    """Compress a (possibly flat-top) waveform with plateau bypass.

    The longest run of constant (I, Q) codes that is at least
    ``min_plateau_windows`` windows long becomes a repeat segment; the
    remainder goes through the regular windowed pipeline.  Waveforms
    without a long plateau degrade gracefully to one window segment.

    Args:
        waveform: Pulse to compress (flat-top pulses benefit most).
        window_size: Codec window for the ramp segments.
        codec: Codec (registry name or object) for the ramp segments;
            must be a windowed codec.
        threshold: Hard threshold for the ramp segments.
        min_plateau_windows: Minimum plateau length, in windows, worth a
            repeat codeword.
    """
    if min_plateau_windows < 1:
        raise CompressionError(
            f"min_plateau_windows must be >= 1, got {min_plateau_windows}"
        )
    codec = resolve_codec(codec)
    if not codec.windowed:
        raise CompressionError(
            f"adaptive compression needs a windowed codec, got {codec.name!r}"
        )
    i_codes, q_codes = waveform.to_fixed_point()
    plateau = _find_plateau(
        i_codes, q_codes, window_size, min_plateau_windows * window_size
    )
    segments: List[Segment] = []
    if plateau is None:
        segments.append(_window_segment(i_codes, q_codes, window_size, codec, threshold))
    else:
        start, stop = plateau
        if start > 0:
            segments.append(
                _window_segment(
                    i_codes[:start], q_codes[:start], window_size, codec, threshold
                )
            )
        segments.append(
            RepeatSegment(
                i_value=int(i_codes[start]),
                q_value=int(q_codes[start]),
                count=stop - start,
            )
        )
        if stop < i_codes.size:
            segments.append(
                _window_segment(
                    i_codes[stop:], q_codes[stop:], window_size, codec, threshold
                )
            )
    reconstructed = _reconstruct(segments, waveform)
    return AdaptiveCompressionResult(
        name=waveform.name,
        dt=waveform.dt,
        segments=tuple(segments),
        original=waveform,
        reconstructed=reconstructed,
        mse=mean_squared_error(waveform.samples, reconstructed.samples),
    )


def _find_plateau(
    i_codes: np.ndarray, q_codes: np.ndarray, window_size: int, min_len: int
) -> Optional[Tuple[int, int]]:
    """Longest window-aligned constant run of (I, Q), or None."""
    n = i_codes.size
    constant = np.flatnonzero(
        (np.diff(i_codes.astype(np.int64)) != 0)
        | (np.diff(q_codes.astype(np.int64)) != 0)
    )
    boundaries = [0] + (constant + 1).tolist() + [n]
    best: Optional[Tuple[int, int]] = None
    for run_start, run_stop in zip(boundaries, boundaries[1:]):
        # Align inward to window edges so ramps remain whole windows.
        start = -(-run_start // window_size) * window_size
        stop = (run_stop // window_size) * window_size
        if stop - start < max(min_len, 1):
            continue
        if best is None or (stop - start) > (best[1] - best[0]):
            best = (start, stop)
    return best


def _window_segment(
    i_codes: np.ndarray,
    q_codes: np.ndarray,
    window_size: int,
    codec: CodecLike,
    threshold: float,
) -> WindowSegment:
    return WindowSegment(
        i_channel=compress_channel(i_codes, window_size, codec, threshold),
        q_channel=compress_channel(q_codes, window_size, codec, threshold),
    )


def _reconstruct(segments: List[Segment], original: Waveform) -> Waveform:
    i_parts: List[np.ndarray] = []
    q_parts: List[np.ndarray] = []
    for segment in segments:
        if isinstance(segment, RepeatSegment):
            i_parts.append(np.full(segment.count, segment.i_value, dtype=np.int64))
            q_parts.append(np.full(segment.count, segment.q_value, dtype=np.int64))
        else:
            i_parts.append(decompress_channel(segment.i_channel))
            q_parts.append(decompress_channel(segment.q_channel))
    i_codes = np.concatenate(i_parts)
    q_codes = np.concatenate(q_parts)
    if i_codes.size != original.n_samples:
        raise CompressionError(
            f"adaptive reconstruction length {i_codes.size} != {original.n_samples}"
        )
    return Waveform.from_fixed_point(
        np.clip(i_codes, -32768, 32767).astype(np.int16),
        np.clip(q_codes, -32768, 32767).astype(np.int16),
        dt=original.dt,
        name=f"{original.name}~adaptive",
        gate=original.gate,
        qubits=original.qubits,
    )
