"""Run-length encoding of thresholded DCT windows (Section IV-C).

After the DCT and thresholding, each window's high-energy coefficients sit
at the front and the tail is (mostly) zeros.  The paper's RLE replaces the
*trailing* zero run with a single codeword carrying a signature and the
zero count: "RLE is started only when the transformed waveform after
thresholding is consistently zero".

A compressed window is therefore ``[c_0, ..., c_{m-1}, Z(r)]`` where the
``c_i`` are the coefficients up to and including the last non-zero one
(interior zeros stay explicit) and ``Z(r)`` encodes ``r`` trailing zeros.
The number of memory words for a window is ``m + (1 if r else 0)`` --
exactly the quantity histogrammed in Fig 11.

The module also defines the tagged memory-word format used by the banked
waveform memory and the cycle-level decompression pipeline, including the
repeat codeword used by adaptive decompression (Fig 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import CompressionError
from repro.transforms.threshold import trailing_zero_runs

__all__ = [
    "TAG_COEFF",
    "TAG_ZERO_RUN",
    "TAG_REPEAT",
    "MemoryWord",
    "EncodedWindow",
    "rle_encode_window",
    "rle_encode_blocks",
    "rle_decode_window",
]

#: Memory-word tags.  Real hardware reserves signature bits inside the
#: word; we model the tag out-of-band but charge every word one sample
#: slot of storage, matching the paper's accounting.
TAG_COEFF = 0
TAG_ZERO_RUN = 1
TAG_REPEAT = 2


@dataclass(frozen=True, slots=True)
class MemoryWord:
    """One word of compressed waveform memory.

    Attributes:
        tag: One of :data:`TAG_COEFF`, :data:`TAG_ZERO_RUN`,
            :data:`TAG_REPEAT`.
        value: Coefficient value, zero-run length, or repeat count.
        payload: For :data:`TAG_REPEAT` words, the sample value that is
            repeated ``value`` times (packed into the same word).
    """

    tag: int
    value: int
    payload: int = 0


@dataclass(frozen=True, slots=True)
class EncodedWindow:
    """An RLE-encoded DCT window.

    Attributes:
        coeffs: Coefficients up to and including the last non-zero one.
        zero_run: Number of trailing zeros folded into the codeword
            (zero means the window ended with a non-zero coefficient and
            no codeword is stored).
    """

    coeffs: Tuple[int, ...]
    zero_run: int

    def __post_init__(self) -> None:
        if self.zero_run < 0:
            raise CompressionError(f"negative zero run: {self.zero_run}")
        if self.coeffs and self.coeffs[-1] == 0 and self.zero_run > 0:
            raise CompressionError(
                "trailing zeros must be folded into the codeword"
            )

    @property
    def window_size(self) -> int:
        """Number of samples this window decodes to."""
        return len(self.coeffs) + self.zero_run

    @property
    def n_words(self) -> int:
        """Memory words occupied: coefficients plus one codeword if any.

        This is the per-window sample count of Fig 11 and the quantity
        that determines the uniform compressed-memory width (Section V-A).
        """
        return len(self.coeffs) + (1 if self.zero_run > 0 else 0)

    def to_words(self) -> List[MemoryWord]:
        """Serialize to tagged memory words (coefficients, then codeword)."""
        words = [MemoryWord(TAG_COEFF, int(c)) for c in self.coeffs]
        if self.zero_run > 0:
            words.append(MemoryWord(TAG_ZERO_RUN, self.zero_run))
        return words


def rle_encode_window(values: Sequence[int]) -> EncodedWindow:
    """Encode one thresholded coefficient window.

    Args:
        values: The full window of (already thresholded) coefficients.

    Returns:
        The :class:`EncodedWindow` with the trailing zero run folded into
        a codeword.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise CompressionError(f"expected a non-empty window, got {values.shape}")
    nonzero = np.flatnonzero(values)
    last = int(nonzero[-1]) + 1 if nonzero.size else 0
    coeffs = tuple(int(v) for v in values[:last])
    return EncodedWindow(coeffs=coeffs, zero_run=int(values.size - last))


def rle_encode_blocks(blocks: np.ndarray) -> Tuple[EncodedWindow, ...]:
    """Encode a whole ``(n_windows, window_size)`` matrix at once.

    The trailing-zero runs of every row are found with one vectorized
    reduction (:func:`repro.transforms.threshold.trailing_zero_runs`);
    only the (short) kept-coefficient prefixes are touched in Python.
    Output is element-wise identical to mapping
    :func:`rle_encode_window` over the rows.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 2 or blocks.shape[1] == 0:
        raise CompressionError(
            f"expected a non-empty (n_windows, ws) matrix, got {blocks.shape}"
        )
    window_size = blocks.shape[1]
    lasts = window_size - trailing_zero_runs(blocks)
    rows = blocks.tolist()
    return tuple(
        EncodedWindow(
            coeffs=tuple(row[:last]), zero_run=window_size - last
        )
        for row, last in zip(rows, lasts.tolist())
    )


def rle_decode_window(window: EncodedWindow) -> np.ndarray:
    """Expand an encoded window back to its full coefficient vector.

    This mirrors stage 1 of the decompression pipeline (Fig 10): the RLE
    decoder re-materializes the zeros before the IDCT stage.
    """
    out = np.zeros(window.window_size, dtype=np.int64)
    if window.coeffs:
        out[: len(window.coeffs)] = window.coeffs
    return out
