"""The :class:`Waveform` type: a named, timed complex envelope.

A waveform is the paper's unit of storage: the I/Q envelope of one gate
pulse on one qubit (or qubit pair), sampled at the DAC rate.  Sizes and
bandwidth are always derived from ``n_samples`` and the per-sample bit
width, mirroring Section III's memory model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.pulses.quantization import SAMPLE_BITS, dequantize, quantize_iq

__all__ = ["Waveform"]


@dataclass(frozen=True)
class Waveform:
    """An I/Q pulse envelope bound to a gate and qubit(s).

    Attributes:
        name: Human-readable identifier, e.g. ``"x_q3"`` or ``"cx_q1_q4"``.
        samples: Complex envelope, |samples| <= 1 (I = real, Q = imag);
            no sample may be NaN.
        dt: Sample period in seconds (1 / DAC sampling rate); positive,
            so not NaN.
        gate: Gate this waveform implements ("x", "sx", "cx", "measure",
            ...).
        qubits: Qubit indices the pulse acts on.
        metadata: Free-form extra calibration data.
    """

    name: str
    samples: np.ndarray
    dt: float
    gate: str = ""
    qubits: Tuple[int, ...] = ()
    metadata: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError(f"waveform needs 1-D non-empty samples, got {samples.shape}")
        # Both checks are written so that NaN fails them.
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        peak = np.abs(samples).max()
        if not peak <= 1.0 + 1e-9:
            raise ValueError(
                f"waveform amplitude must be <= 1.0 and not NaN, got {peak:.4f}"
            )

    # -- basic geometry ----------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Number of complex samples."""
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        """Pulse length in seconds."""
        return self.n_samples * self.dt

    @property
    def duration_ns(self) -> float:
        """Pulse length in nanoseconds."""
        return self.duration * 1e9

    # -- memory accounting (Section III) ------------------------------------

    @property
    def sample_bits(self) -> int:
        """Bits per complex sample (16-bit I + 16-bit Q)."""
        return 2 * SAMPLE_BITS

    @property
    def memory_bits(self) -> int:
        """Uncompressed storage footprint in bits (fs * Ns * tau)."""
        return self.n_samples * self.sample_bits

    @property
    def memory_bytes(self) -> float:
        return self.memory_bits / 8

    # -- channels ------------------------------------------------------------

    @property
    def i_channel(self) -> np.ndarray:
        """In-phase (X-rotation) component."""
        return self.samples.real

    @property
    def q_channel(self) -> np.ndarray:
        """Quadrature (Y-rotation) component."""
        return self.samples.imag

    def to_fixed_point(self) -> Tuple[np.ndarray, np.ndarray]:
        """Quantized (I, Q) int16 channel pair -- what memory stores."""
        return quantize_iq(self.samples)

    def with_samples(self, samples: np.ndarray, name: Optional[str] = None) -> "Waveform":
        """Copy of this waveform with new samples (same timing/binding)."""
        return Waveform(
            name=name or self.name,
            samples=samples,
            dt=self.dt,
            gate=self.gate,
            qubits=self.qubits,
            metadata=dict(self.metadata),
        )

    @staticmethod
    def from_fixed_point(
        i_codes: np.ndarray,
        q_codes: np.ndarray,
        dt: float,
        name: str = "reconstructed",
        gate: str = "",
        qubits: Tuple[int, ...] = (),
    ) -> "Waveform":
        """Rebuild a float waveform from quantized channels."""
        samples = dequantize(i_codes) + 1j * dequantize(q_codes)
        # Saturation during decompression can push codes past full scale
        # by a fraction of an LSB; clamp so the invariant holds.
        magnitude = np.abs(samples)
        over = magnitude > 1.0
        if np.any(over):
            samples = samples.copy()
            samples[over] /= magnitude[over]
        return Waveform(name=name, samples=samples, dt=dt, gate=gate, qubits=qubits)

    # -- comparison ----------------------------------------------------------

    def mse(self, other: "Waveform") -> float:
        """Mean squared error between two waveforms (I and Q combined).

        This is the distortion metric Fig 7(c) reports and Algorithm 1
        drives to a target.
        """
        if other.n_samples != self.n_samples:
            raise ValueError(
                f"length mismatch: {self.n_samples} vs {other.n_samples}"
            )
        diff = self.samples - other.samples
        return float(np.mean(diff.real**2 + diff.imag**2))
