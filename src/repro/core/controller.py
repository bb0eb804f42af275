"""End-to-end controller model (Fig 6's hardware half).

A :class:`QubitController` owns a device's compressed pulse library and
a decompression pipeline, and plays gates by streaming their compressed
waveforms cycle by cycle.  It is the integration point the examples and
the scalability benches drive.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.compression.packing import brams_per_stream_compaqt, pack_waveform
from repro.core.compiler import CompaqtCompiler, CompressedPulseLibrary
from repro.core.scalability import QICK_CLOCK_RATIO
from repro.devices.backend import DeviceModel
from repro.microarch.pipeline_sim import (
    BaselineStreamer,
    DecompressionPipeline,
    StreamReport,
)
from repro.pulses.waveform import Waveform

__all__ = ["QubitController"]


class QubitController:
    """A COMPAQT-equipped control slice for one device.

    Args:
        device: The device whose library is loaded.
        compiler: Compression configuration; defaults to int-DCT-W,
            WS=16, fixed threshold.
        clock_ratio: DAC-to-fabric clock ratio.
    """

    def __init__(
        self,
        device: DeviceModel,
        compiler: Optional[CompaqtCompiler] = None,
        clock_ratio: int = QICK_CLOCK_RATIO,
    ) -> None:
        self.device = device
        self.compiler = compiler or CompaqtCompiler()
        self.clock_ratio = clock_ratio
        self.library: CompressedPulseLibrary = self.compiler.compile_library(
            device.pulse_library()
        )
        self.pipeline = DecompressionPipeline(clock_ratio)
        self._baseline = BaselineStreamer(clock_ratio)

    # -- playback -------------------------------------------------------------

    def play(self, gate: str, qubits: Tuple[int, ...]) -> StreamReport:
        """Stream one gate's waveform through the decompression pipeline."""
        result = self.library.result(gate, tuple(qubits))
        return self.pipeline.stream(result.compressed)

    def play_uncompressed(self, gate: str, qubits: Tuple[int, ...]) -> StreamReport:
        """Stream the same gate from uncompressed memory (baseline)."""
        waveform = self.device.pulse_library().waveform(gate, tuple(qubits))
        i_codes, q_codes = waveform.to_fixed_point()
        return self._baseline.stream(
            i_codes.astype(np.int64), q_codes.astype(np.int64), name=waveform.name
        )

    def played_waveform(self, gate: str, qubits: Tuple[int, ...]) -> Waveform:
        """The waveform the qubit actually sees (decompressed)."""
        return self.library.waveform(gate, tuple(qubits))

    # -- scalability summary ----------------------------------------------------

    @property
    def brams_per_stream(self) -> int:
        """BRAM banks per waveform stream with this configuration."""
        return brams_per_stream_compaqt(
            self.clock_ratio,
            self.compiler.window_size,
            self.library.worst_case_window_words,
        )

    @property
    def bandwidth_gain(self) -> float:
        """Effective memory-bandwidth multiplier vs the baseline."""
        return self.clock_ratio / self.brams_per_stream

    def bank_layouts(self) -> Dict[Tuple[str, Tuple[int, ...]], "object"]:
        """Bank placement of every compressed waveform (Fig 12)."""
        return {
            key: pack_waveform(result.compressed, self.clock_ratio)
            for key, result in self.library
        }
