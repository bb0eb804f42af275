"""Frequency-division multiplexing of qubit streams (Section III-B).

QICK-style controllers can drive 100+ qubits per board by mixing
several qubits' waveforms onto one high-bandwidth DAC at different
intermediate frequencies.  The paper's point: FDM does not relieve the
waveform memory -- "the waveforms for all the multiplexed qubits must
be stored and then individually generated, which means that the
waveform memory must have sufficient capacity and bandwidth for all
qubits".  COMPAQT multiplies exactly that per-DAC memory bandwidth.

This module models the digital upconversion chain: per-qubit complex
envelopes are mixed to their carriers and summed, with amplitude
headroom shared across channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ReproError

__all__ = ["FdmPlan", "max_fdm_channels", "plan_fdm", "FdmMixer"]


def max_fdm_channels(
    dac_rate_hz: float,
    channel_bandwidth_hz: float = 300e6,
    guard_band_hz: float = 100e6,
) -> int:
    """Qubit channels that fit in one DAC's first Nyquist zone.

    Each qubit needs its pulse bandwidth plus a guard band to bound
    inter-channel crosstalk.
    """
    if dac_rate_hz <= 0 or channel_bandwidth_hz <= 0:
        raise ReproError("rates must be positive")
    usable = dac_rate_hz / 2
    per_channel = channel_bandwidth_hz + guard_band_hz
    return max(0, int(usable // per_channel))


@dataclass(frozen=True)
class FdmPlan:
    """Carrier assignment for a group of multiplexed qubits."""

    dac_rate_hz: float
    carriers_hz: Tuple[float, ...]
    qubits: Tuple[int, ...]

    @property
    def n_channels(self) -> int:
        return len(self.qubits)

    @property
    def amplitude_headroom(self) -> float:
        """Per-channel amplitude scale so the sum never clips."""
        return 1.0 / max(1, self.n_channels)


def plan_fdm(
    qubits: Sequence[int],
    dac_rate_hz: float = 6.0e9,
    channel_bandwidth_hz: float = 300e6,
    guard_band_hz: float = 100e6,
) -> FdmPlan:
    """Assign evenly spaced carriers to a qubit group.

    Raises:
        ReproError: If the group exceeds the DAC's Nyquist capacity.
    """
    capacity = max_fdm_channels(dac_rate_hz, channel_bandwidth_hz, guard_band_hz)
    if len(qubits) > capacity:
        raise ReproError(
            f"{len(qubits)} channels exceed the DAC's FDM capacity of {capacity}"
        )
    if not qubits:
        raise ReproError("need at least one qubit to multiplex")
    spacing = channel_bandwidth_hz + guard_band_hz
    first = spacing  # keep a guard band from DC
    carriers = tuple(first + i * spacing for i in range(len(qubits)))
    return FdmPlan(
        dac_rate_hz=dac_rate_hz, carriers_hz=carriers, qubits=tuple(qubits)
    )


class FdmMixer:
    """Digital upconversion: mix each envelope to its carrier and sum."""

    def __init__(self, plan: FdmPlan) -> None:
        self.plan = plan

    def combine(self, envelopes: Dict[int, np.ndarray]) -> np.ndarray:
        """Mix per-qubit complex envelopes into one real DAC stream.

        Args:
            envelopes: qubit -> complex baseband samples (all equal
                length; pad shorter pulses with zeros upstream).

        Returns:
            Real passband samples at the DAC rate, |amplitude| <= 1.
        """
        missing = set(self.plan.qubits) - set(envelopes)
        if missing:
            raise ReproError(f"missing envelopes for qubits {sorted(missing)}")
        lengths = {np.asarray(envelopes[q]).size for q in self.plan.qubits}
        if len(lengths) != 1:
            raise ReproError(f"envelope lengths differ: {sorted(lengths)}")
        n = lengths.pop()
        t = np.arange(n) / self.plan.dac_rate_hz
        headroom = self.plan.amplitude_headroom
        total = np.zeros(n, dtype=np.float64)
        for qubit, carrier in zip(self.plan.qubits, self.plan.carriers_hz):
            envelope = np.asarray(envelopes[qubit], dtype=np.complex128)
            mixed = np.real(envelope * np.exp(2j * math.pi * carrier * t))
            total += headroom * mixed
        peak = np.max(np.abs(total))
        if peak > 1.0 + 1e-9:
            raise ReproError(f"combined stream clips: peak {peak:.3f}")
        return total

    def memory_streams_required(self) -> int:
        """Waveform streams the memory must sustain for this DAC.

        The paper's FDM point: one DAC channel still needs every
        multiplexed qubit's waveform generated individually.
        """
        return self.plan.n_channels
