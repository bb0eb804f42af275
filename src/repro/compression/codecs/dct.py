"""The DCT codec family: DCT-N, DCT-W and int-DCT-W (Table II).

All three share the 16-bit fixed-point convention: stored coefficients
approximate ``DCT(x) / sqrt(N)``, which is bounded by ``max|x|``
(Cauchy-Schwarz), so every window fits 16-bit storage.  The integer
path realizes the same convention through the HEVC forward shift of
``6 + log2(N)`` bits.

The float codecs keep *separate* scalar and block kernels on purpose:
the scalar kernel is the per-window reference (one gemv per window),
the block kernel is one gemm for the whole matrix, and the exactly-
rational coefficient rows (DC and, for even N, Nyquist) are recomputed
in integer math so the two stay bit-identical on any BLAS -- see
:func:`_fix_rational_rows`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.errors import CompressionError
from repro.compression.codecs.base import Codec
from repro.transforms.dct import dct_matrix
from repro.transforms.integer_dct import (
    SUPPORTED_SIZES,
    int_dct,
    int_dct_blocks,
    int_idct,
    int_idct_blocks,
)

__all__ = ["FloatDctCodec", "IntDctCodec"]


def _rint_div_exact(s: np.ndarray, n: int) -> np.ndarray:
    """Round-half-even of ``s / n`` in exact integer arithmetic."""
    q, r = np.divmod(s, n)
    twice = 2 * r
    round_up = (twice > n) | ((twice == n) & (q % 2 != 0))
    return q + round_up


@lru_cache(maxsize=64)
def _nyquist_signs(n: int) -> np.ndarray:
    """Sign pattern of the DCT's Nyquist row: cos(pi*(2j+1)/4) signs."""
    j = np.arange(n) % 4
    signs = np.where((j == 0) | (j == 3), 1, -1).astype(np.int64)
    signs.setflags(write=False)
    return signs


def _fix_rational_rows(blocks: np.ndarray, out: np.ndarray) -> None:
    """Recompute the exactly-rational coefficient rows in integer math.

    In the stored convention ``DCT(x) / sqrt(N)``, the DC coefficient is
    exactly ``sum(x) / N`` and (for even N) the Nyquist coefficient is
    exactly ``sum(+-x) / N`` -- both can land exactly on a rounding
    half-point, where the float matmul's last-ulp error (which differs
    between BLAS gemv and gemm kernels) would flip ``rint``.  Computing
    the two rows exactly keeps scalar and batched streams bit-identical
    on any BLAS.  ``out`` is modified in place; rows are coefficient
    columns of the ``(n_windows, N)`` layout.
    """
    n = blocks.shape[1]
    out[:, 0] = _rint_div_exact(blocks.sum(axis=1), n)
    if n % 2 == 0:
        out[:, n // 2] = _rint_div_exact(blocks @ _nyquist_signs(n), n)


class FloatDctCodec(Codec):
    """Float64 orthonormal DCT-II, rounded to integer coefficients.

    One class serves both Table II float variants: ``DCT-N`` treats the
    whole waveform as a single window (``windowed=False``), ``DCT-W``
    uses fixed windows.
    """

    batchable = True
    exact_rational_rows = True
    lossless = False

    def __init__(self, name: str, wire_id: int, windowed: bool) -> None:
        self.name = name
        self.wire_id = wire_id
        self.windowed = windowed
        self.supported_window_sizes = SUPPORTED_SIZES if windowed else None

    def forward(self, block: np.ndarray) -> np.ndarray:
        block = self._require_1d(block, "window")
        n = block.size
        matrix = dct_matrix(n)
        coeffs = (matrix @ block.astype(np.float64)) / math.sqrt(n)
        out = np.rint(coeffs).astype(np.int64)
        _fix_rational_rows(block.reshape(1, -1), out.reshape(1, -1))
        return out

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = self._require_1d(coeffs, "coefficient window")
        n = coeffs.size
        matrix = dct_matrix(n)
        samples = matrix.T @ (coeffs.astype(np.float64) * math.sqrt(n))
        return np.rint(samples).astype(np.int64)

    def forward_blocks(self, blocks: np.ndarray) -> np.ndarray:
        blocks = self._require_2d(blocks, "blocks")
        n = blocks.shape[1]
        matrix = dct_matrix(n)
        coeffs = (blocks.astype(np.float64) @ matrix.T) / math.sqrt(n)
        out = np.rint(coeffs).astype(np.int64)
        _fix_rational_rows(blocks, out)
        return out

    def inverse_blocks(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = self._require_2d(coeffs, "coefficients")
        n = coeffs.shape[1]
        matrix = dct_matrix(n)
        samples = (coeffs.astype(np.float64) * math.sqrt(n)) @ matrix
        return np.rint(samples).astype(np.int64)


class IntDctCodec(Codec):
    """HEVC-style integer DCT (``int-DCT-W``) -- the paper's hardware pick.

    Exact arithmetic end to end, so the block kernels are bit-identical
    to the scalar ones by construction and no rational-row fixup is
    needed.  :meth:`inverse_blocks` returns its codes as integer-valued
    float64, straight from the exact gemm of
    :func:`~repro.transforms.integer_dct.int_idct_blocks`.
    """

    name = "int-DCT-W"
    wire_id = 2
    windowed = True
    batchable = True
    exact_rational_rows = False
    lossless = False
    supported_window_sizes = SUPPORTED_SIZES

    def _check_transform_size(self, n: int) -> None:
        if n not in SUPPORTED_SIZES:
            raise CompressionError(
                f"{self.name} needs a window in {SUPPORTED_SIZES}, got {n}"
            )

    def forward(self, block: np.ndarray) -> np.ndarray:
        block = self._require_1d(block, "window")
        self._check_transform_size(block.size)
        return int_dct(block).astype(np.int64)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = self._require_1d(coeffs, "coefficient window")
        self._check_transform_size(coeffs.size)
        return int_idct(coeffs).astype(np.int64)

    def forward_blocks(self, blocks: np.ndarray) -> np.ndarray:
        blocks = self._require_2d(blocks, "blocks")
        self._check_transform_size(blocks.shape[1])
        return int_dct_blocks(blocks).astype(np.int64)

    def inverse_blocks(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = self._require_2d(coeffs, "coefficients")
        self._check_transform_size(coeffs.shape[1])
        return int_idct_blocks(coeffs)
