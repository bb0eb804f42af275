"""The delta codec and the paper's base-delta baseline (Section IV-B).

Two related pieces live here, both single-sourced in this module:

* :class:`DeltaCodec` promotes the paper's base-delta baseline to a
  first-class pipeline codec: each window stores its first sample code
  followed by sample-to-sample differences, all wrapped into the
  16-bit payload with modular (mod 2**16) arithmetic so the round trip
  is *exactly* lossless even across sign-magnitude-style jumps.
* :func:`delta_compress` / :func:`delta_decompress` mechanize the
  paper's bit-width accounting argument (Fig 7a): deltas are taken on
  integer *codes* in the chosen sample representation, and the encoded
  width is the width of the largest code delta -- in sign-magnitude
  form (what control-hardware DACs consume) any zero crossing flips
  the sign bit, the delta occupies the full bit-field, and the gain
  collapses.  ``representation="twos-complement"`` is the ablation
  showing delta would survive zero crossings under a different sample
  format.

Where the gain comes from: a smooth pulse quantized to int16 changes by
only a few codes per sample, so after thresholding most deltas are zero
and the trailing run folds into one RLE codeword -- while any window
with structure keeps full-width residuals, which is precisely why the
paper finds delta weak on real waveform memories.

Thresholding holds the previous decoded value through every zeroed
delta (a zero-order hold).  Because the stored residuals are wrapped, a
huge true delta can alias to a tiny stored word, so the threshold cut
is made on the **un-wrapped** delta recovered from the coefficient
stream (:meth:`DeltaCodec.threshold_blocks`) -- dropping a word always
means the true step was below the threshold.  Surviving words are then
**re-based on the decoder's held value** (closed-loop DPCM
quantization, :meth:`DeltaCodec._rebase_kept`): kept samples decode
exactly, so accumulated sub-threshold drift can never combine with a
kept delta to wrap a decoded sample across the +-32768 rail, and the
error at a dropped sample is bounded by its run of dropped steps
(< run length x threshold).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError
from repro.compression.codecs.base import Codec, wrap_int16
from repro.transforms.threshold import top_k_blocks

__all__ = [
    "DeltaCodec",
    "DeltaEncoded",
    "delta_compress",
    "delta_decompress",
]


class DeltaCodec(Codec):
    """First-sample base plus wrapped sequential deltas, per window."""

    name = "delta"
    wire_id = 3
    windowed = True
    batchable = True
    exact_rational_rows = False
    lossless = True
    supported_window_sizes = None  # any window length >= 1

    def forward(self, block: np.ndarray) -> np.ndarray:
        block = self._require_1d(block, "window")
        return self.forward_blocks(block.reshape(1, -1))[0]

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = self._require_1d(coeffs, "coefficient window")
        return self.inverse_blocks(coeffs.reshape(1, -1))[0]

    def forward_blocks(self, blocks: np.ndarray) -> np.ndarray:
        blocks = self._require_2d(blocks, "blocks")
        out = np.empty_like(blocks)
        out[:, 0] = blocks[:, 0]
        out[:, 1:] = blocks[:, 1:] - blocks[:, :-1]
        return wrap_int16(out)

    def inverse_blocks(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = self._require_2d(coeffs, "coefficients")
        # Addition mod 2**16 is associative, so wrapping the running sum
        # once equals wrapping after every step; int64 cannot overflow
        # for any practical window length.
        return wrap_int16(np.cumsum(coeffs, axis=1))

    @staticmethod
    def _true_steps(samples: np.ndarray) -> np.ndarray:
        """Un-wrapped per-slot steps of the reconstructed samples."""
        true = np.empty_like(samples)
        true[:, 0] = samples[:, 0]
        true[:, 1:] = samples[:, 1:] - samples[:, :-1]
        return true

    @staticmethod
    def _rebase_kept(samples: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Closed-loop requantization: re-base kept words on decode state.

        After deciding which steps to drop, every kept word is
        recomputed against the value the *decoder* will actually hold
        there (DPCM-style closed-loop quantization).  Kept samples then
        decode exactly -- ``wrap(held + wrap(x - held)) == x`` for any
        in-range ``x`` -- so sub-threshold drift can never combine with
        a kept delta to wrap a sample across the int16 rail.  The loop
        runs over window positions (<= 32) with all rows vectorized.
        """
        out = np.zeros_like(samples)
        held = np.zeros(samples.shape[0], dtype=np.int64)
        for j in range(samples.shape[1]):
            kept = keep[:, j]
            word = wrap_int16(samples[:, j] - held)
            out[kept, j] = word[kept]
            held = np.where(kept, samples[:, j], held)
        return out

    def threshold_blocks(
        self, coeffs: np.ndarray, threshold: float
    ) -> np.ndarray:
        """Threshold on the un-wrapped sample-to-sample delta.

        The stored word for a delta of 65528 is the wrapped value -8; a
        magnitude cut on the wrapped word would zero it and the decoder
        would hold the previous value across a full-range jump.  The
        true deltas are recoverable from the stream (reconstruct the
        samples, then difference them in plain arithmetic), so the cut
        happens there; surviving words are then re-based on the decoder
        state (:meth:`_rebase_kept`) so kept samples decode exactly and
        dropped ones err by at most the accumulated sub-threshold run.
        For streams with no dropped words this is the identity.
        """
        coeffs = self._require_2d(coeffs, "coefficients")
        self._check_threshold(threshold)
        samples = self.inverse_blocks(coeffs)
        keep = np.abs(self._true_steps(samples)) >= threshold
        if np.all(keep):
            return coeffs.copy()
        return self._rebase_kept(samples, keep)

    def top_k_blocks(
        self, coeffs: np.ndarray, max_coefficients: int
    ) -> np.ndarray:
        """Top-k by un-wrapped delta magnitude, not by stored word.

        Ranking the wrapped words would drop a full-range jump stored
        as a tiny word -- the same aliasing hazard as thresholding --
        and the survivors are re-based just like
        :meth:`threshold_blocks` (a kept zero word and a dropped slot
        decode identically, so the non-zero cap still holds).
        """
        coeffs = self._require_2d(coeffs, "coefficients")
        samples = self.inverse_blocks(coeffs)
        pruned = top_k_blocks(
            coeffs, max_coefficients, rank=np.abs(self._true_steps(samples))
        )
        if np.array_equal(pruned, coeffs):
            return pruned
        return self._rebase_kept(samples, pruned != 0)


# ---------------------------------------------------------------------------
# The paper's base-delta baseline (bit-width accounting, Fig 7a).
# ---------------------------------------------------------------------------

_REPRESENTATIONS = ("sign-magnitude", "twos-complement")


@dataclass(frozen=True)
class DeltaEncoded:
    """A delta-compressed sample stream.

    Attributes:
        base: First sample's code, stored at full width.
        deltas: Signed code differences (length ``n - 1``).
        delta_bits: Bit width allocated to each stored delta.
        sample_bits: Original sample width.
        representation: Code mapping used ("sign-magnitude" matches the
            paper's hardware model).
    """

    base: int
    deltas: np.ndarray
    delta_bits: int
    sample_bits: int
    representation: str

    @property
    def n_samples(self) -> int:
        return 1 + self.deltas.size

    @property
    def encoded_bits(self) -> int:
        """Total storage: one full-width base plus fixed-width deltas."""
        return self.sample_bits + self.deltas.size * self.delta_bits

    @property
    def original_bits(self) -> int:
        return self.n_samples * self.sample_bits

    @property
    def compression_ratio(self) -> float:
        """old size / new size, as defined in the paper (R)."""
        return self.original_bits / self.encoded_bits


def delta_compress(
    samples: np.ndarray,
    sample_bits: int = 16,
    representation: str = "sign-magnitude",
) -> DeltaEncoded:
    """Delta-compress integer samples.

    If the widest delta needs at least ``sample_bits`` bits the stream is
    effectively incompressible (R <= 1), which is what happens to
    zero-crossing waveforms in sign-magnitude form.

    Args:
        samples: 1-D array of signed integer samples.
        sample_bits: Width of one raw sample (16 for IBM I or Q).
        representation: "sign-magnitude" (paper model) or
            "twos-complement" (ablation).
    """
    if representation not in _REPRESENTATIONS:
        raise CompressionError(f"unknown representation: {representation!r}")
    samples = np.asarray(samples, dtype=np.int64)
    if samples.ndim != 1 or samples.size == 0:
        raise CompressionError(f"expected non-empty 1-D samples, got {samples.shape}")
    codes = _to_codes(samples, sample_bits, representation)
    deltas = np.diff(codes)
    delta_bits = _signed_width(deltas)
    delta_bits = min(max(delta_bits, 1), sample_bits)
    return DeltaEncoded(
        base=int(codes[0]),
        deltas=deltas,
        delta_bits=delta_bits,
        sample_bits=sample_bits,
        representation=representation,
    )


def delta_decompress(encoded: DeltaEncoded) -> np.ndarray:
    """Exact inverse of :func:`delta_compress`."""
    codes = np.concatenate(([encoded.base], encoded.deltas)).cumsum()
    return _from_codes(codes, encoded.sample_bits, encoded.representation)


def _to_codes(samples: np.ndarray, bits: int, representation: str) -> np.ndarray:
    limit = 1 << (bits - 1)
    if np.any(np.abs(samples) >= limit):
        raise CompressionError(f"samples exceed {bits}-bit signed range")
    if representation == "twos-complement":
        return samples.copy()
    # Sign-magnitude: sign bit at the top, magnitude below.  Crossing
    # zero jumps the code by ~2^(bits-1), which is the paper's point.
    sign = (samples < 0).astype(np.int64)
    return (sign << (bits - 1)) | np.abs(samples)


def _from_codes(codes: np.ndarray, bits: int, representation: str) -> np.ndarray:
    if representation == "twos-complement":
        return codes.copy()
    sign_bit = np.int64(1) << (bits - 1)
    magnitude = codes & (sign_bit - 1)
    negative = (codes & sign_bit) != 0
    return np.where(negative, -magnitude, magnitude)


def _signed_width(values: np.ndarray) -> int:
    """Minimum two's-complement width holding every value."""
    if values.size == 0:
        return 1
    lo, hi = int(values.min()), int(values.max())
    width = 1
    while not (-(1 << (width - 1)) <= lo and hi < (1 << (width - 1))):
        width += 1
    return width
