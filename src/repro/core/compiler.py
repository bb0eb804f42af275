"""The COMPAQT compiler module (Fig 6's software half).

At the end of every calibration cycle the compiler walks the device's
pulse library, compresses each waveform (optionally with the
fidelity-aware threshold search of Algorithm 1), and emits a
:class:`CompressedPulseLibrary` -- the image that gets loaded into the
controller's compressed waveform memory.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.errors import CompressionError, DeviceError
from repro.compression.batch import compress_batch
from repro.compression.codecs import resolve_codec
from repro.compression.bitstream import (
    LibraryBitstream,
    LibraryEntry,
    parse_library,
    serialize_library,
)
from repro.compression.fastpath import decode_library_bytes
from repro.compression.pipeline import (
    CodecLike,
    CompressionResult,
    DEFAULT_THRESHOLD,
)
from repro.core.fidelity_aware import DEFAULT_TARGET_MSE, fidelity_aware_compress
from repro.pulses.library import PulseLibrary
from repro.pulses.waveform import Waveform

__all__ = ["CompaqtCompiler", "CompressedPulseLibrary", "GateCompressionStats"]

_Key = Tuple[str, Tuple[int, ...]]


@dataclass(frozen=True)
class GateCompressionStats:
    """Aggregate compression statistics for one gate type."""

    gate: str
    count: int
    min_ratio: float
    max_ratio: float
    mean_ratio: float
    mean_mse: float


@dataclass
class CompressedPulseLibrary:
    """The compressed waveform-memory image for one device.

    Produced by :class:`CompaqtCompiler`; consumed by the controller
    model and the microarchitecture simulator.
    """

    device_name: str
    window_size: int
    variant: str
    _entries: Dict[_Key, CompressionResult] = field(default_factory=dict)

    def add(self, key: _Key, result: CompressionResult) -> None:
        self._entries[(key[0], tuple(key[1]))] = result

    def result(self, gate: str, qubits: Tuple[int, ...]) -> CompressionResult:
        try:
            return self._entries[(gate, tuple(qubits))]
        except KeyError:
            raise DeviceError(
                f"no compressed waveform for {gate!r} on {tuple(qubits)}"
            ) from None

    def waveform(self, gate: str, qubits: Tuple[int, ...]) -> Waveform:
        """The decompressed (as-played) waveform for a gate."""
        return self.result(gate, qubits).reconstructed

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[_Key, CompressionResult]]:
        return iter(self._entries.items())

    def keys(self) -> List[_Key]:
        return list(self._entries.keys())

    # -- aggregate metrics ---------------------------------------------------

    @property
    def ratios(self) -> np.ndarray:
        """Per-waveform uniform-packing compression ratios."""
        return np.array([r.compression_ratio for _k, r in self], dtype=float)

    @property
    def overall_ratio(self) -> float:
        """Library-level R: total old size / total new size (Fig 7b)."""
        original = sum(r.compressed.original_samples for _k, r in self)
        stored = sum(r.compressed.stored_words("uniform") for _k, r in self)
        if stored == 0:
            raise CompressionError("empty compressed library")
        return original / stored

    @property
    def overall_ratio_variable(self) -> float:
        """Library-level R under variable (ASIC) packing."""
        original = sum(r.compressed.original_samples for _k, r in self)
        stored = sum(r.compressed.stored_words("variable") for _k, r in self)
        return original / max(1, stored)

    @property
    def mean_mse(self) -> float:
        return float(np.mean([r.mse for _k, r in self]))

    @property
    def max_mse(self) -> float:
        return float(np.max([r.mse for _k, r in self]))

    @property
    def worst_case_window_words(self) -> int:
        """Worst per-window occupancy across the library (Fig 11's cap)."""
        return max(r.compressed.worst_case_window_words for _k, r in self)

    def gate_stats(self, gate: str) -> GateCompressionStats:
        ratios = [
            r.compression_ratio for (g, _q), r in self if g == gate
        ]
        mses = [r.mse for (g, _q), r in self if g == gate]
        if not ratios:
            raise DeviceError(f"no compressed waveforms for gate {gate!r}")
        return GateCompressionStats(
            gate=gate,
            count=len(ratios),
            min_ratio=min(ratios),
            max_ratio=max(ratios),
            mean_ratio=float(np.mean(ratios)),
            mean_mse=float(np.mean(mses)),
        )

    # -- wire-format persistence ---------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the library image to its canonical bitstream.

        The bytes carry everything the runtime needs -- the tagged-word
        window streams plus per-entry bindings, MSE and threshold -- so
        a compiled library can be persisted and shipped to a controller
        (or :mod:`repro.microarch.pipeline_sim`) without Python objects.
        """
        entries = tuple(
            LibraryEntry(
                gate=gate,
                qubits=qubits,
                mse=result.mse,
                threshold=result.threshold,
                compressed=result.compressed,
            )
            for (gate, qubits), result in self
        )
        return serialize_library(
            LibraryBitstream(
                device_name=self.device_name,
                window_size=self.window_size,
                variant=self.variant,
                entries=entries,
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedPulseLibrary":
        """Rebuild a library from its bitstream.

        The compressed streams round-trip losslessly; the as-played
        waveforms are regenerated through the fused decoder
        (:func:`~repro.compression.fastpath.decode_library_bytes`),
        which is bit-identical to the scalar decompressor, so a loaded
        library is interchangeable with a freshly compiled one.
        """
        parsed = parse_library(data)
        library = cls(
            device_name=parsed.device_name,
            window_size=parsed.window_size,
            variant=parsed.variant,
        )
        decoded = decode_library_bytes(data)
        for entry, (_gate, _qubits, waveform) in zip(parsed.entries, decoded):
            library.add(
                (entry.gate, entry.qubits),
                CompressionResult(
                    compressed=entry.compressed,
                    reconstructed=waveform,
                    mse=entry.mse,
                    threshold=entry.threshold,
                ),
            )
        return library

    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the bitstream to disk; returns the resolved path."""
        out = pathlib.Path(path)
        out.write_bytes(self.to_bytes())
        return out.resolve()

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "CompressedPulseLibrary":
        """Read a library bitstream back from disk."""
        return cls.from_bytes(pathlib.Path(path).read_bytes())

    def qubit_gate_ratio(self, gate: str, qubit: int) -> float:
        """Mean ratio of ``gate`` pulses touching ``qubit`` (Fig 14 bars).

        For two-qubit gates this averages over every directed pair the
        qubit participates in, matching the paper's per-qubit CNOT bars.
        """
        ratios = [
            r.compression_ratio
            for (g, qubits), r in self
            if g == gate and qubit in qubits
        ]
        if not ratios:
            raise DeviceError(f"qubit {qubit} has no {gate!r} waveforms")
        return float(np.mean(ratios))


class CompaqtCompiler:
    """Compile-time waveform compressor (one configuration, many pulses).

    Args:
        window_size: Codec window (8/16/32 for the DCT family; ignored
            by full-frame codecs such as DCT-N).
        codec: A registered codec name (``"int-DCT-W"``, ``"delta"``,
            ...) or a first-class
            :class:`~repro.compression.codecs.Codec` object.
        threshold: Fixed hard threshold (coefficient codes) when
            fidelity-aware search is off.
        fidelity_aware: Enable Algorithm 1's per-pulse threshold search.
        target_mse: Algorithm 1's ε.
        max_coefficients: Optional per-window top-k cap.

    Attributes:
        codec: The resolved :class:`~repro.compression.codecs.Codec`.
        variant: Its canonical name (the library metadata field).
    """

    def __init__(
        self,
        window_size: int = 16,
        codec: CodecLike = "int-DCT-W",
        threshold: float = DEFAULT_THRESHOLD,
        fidelity_aware: bool = False,
        target_mse: float = DEFAULT_TARGET_MSE,
        max_coefficients: int = 0,
    ) -> None:
        self.window_size = window_size
        self.codec = resolve_codec(codec)
        self.variant = self.codec.name
        self.threshold = threshold
        self.fidelity_aware = fidelity_aware
        self.target_mse = target_mse
        self.max_coefficients = max_coefficients

    def compile_waveform(self, waveform: Waveform) -> CompressionResult:
        """Compress a single pulse under this configuration.

        Encodes through the batched engine
        (:func:`repro.compression.batch.compress_batch`) as a batch of
        one -- the recalibration loop's per-pulse path -- whose record
        bytes, reconstructed samples and MSE are identical to the
        scalar oracle
        :func:`~repro.compression.pipeline.compress_waveform`.
        Fidelity-aware mode needs a per-pulse threshold search and
        stays scalar.
        """
        if self.fidelity_aware:
            return fidelity_aware_compress(
                waveform,
                target_mse=self.target_mse,
                window_size=self.window_size,
                codec=self.codec,
            )
        return compress_batch(
            [waveform],
            window_size=self.window_size,
            codec=self.codec,
            threshold=self.threshold,
            max_coefficients=self.max_coefficients,
        )[0]

    def compile_library(self, library: PulseLibrary) -> CompressedPulseLibrary:
        """Compress every entry of a device's pulse library.

        The whole library is stacked into one window matrix and
        compressed in a single vectorized pass (see
        :func:`repro.compression.batch.compress_batch`), bit-identical
        to the scalar oracle
        :func:`~repro.compression.pipeline.compress_waveform` pulse by
        pulse; fidelity-aware mode needs a per-pulse threshold search
        and stays scalar.
        """
        if len(library) == 0:
            raise CompressionError("cannot compile an empty pulse library")
        compressed = CompressedPulseLibrary(
            device_name=library.device_name,
            window_size=self.window_size,
            variant=self.variant,
        )
        keys = library.keys()
        if not self.fidelity_aware:
            batch = compress_batch(
                [library.waveform(*key) for key in keys],
                window_size=self.window_size,
                codec=self.codec,
                threshold=self.threshold,
                max_coefficients=self.max_coefficients,
            )
            for key, result in zip(keys, batch):
                compressed.add(key, result)
        else:
            for key in keys:
                compressed.add(key, self.compile_waveform(library.waveform(*key)))
        return compressed

    def save_library(
        self,
        compiled: CompressedPulseLibrary,
        path: Union[str, pathlib.Path],
    ) -> pathlib.Path:
        """Persist a compiled library as a wire-format bitstream."""
        return compiled.save(path)

    @staticmethod
    def load_library(path: Union[str, pathlib.Path]) -> CompressedPulseLibrary:
        """Load a previously saved library bitstream."""
        return CompressedPulseLibrary.load(path)

    def save_store(
        self,
        compiled: CompressedPulseLibrary,
        path: Union[str, pathlib.Path],
        n_shards: int = 4,
    ):
        """Persist a compiled library as a sharded store directory.

        The sharded layout (see :mod:`repro.store`) is the serving-side
        twin of :meth:`save_library`: same compressed records, but split
        into hash-routed shard files with a byte-offset index so single
        pulses are demand-readable.  The store is published as
        generation 1, ready for :class:`~repro.store.StoreWriter`
        commits.  Returns the opened :class:`~repro.store.ShardedStore`.
        """
        from repro.store import save_store

        return save_store(compiled, path, n_shards=n_shards)

    @staticmethod
    def load_store(path: Union[str, pathlib.Path]):
        """Open a store directory written by :meth:`save_store`."""
        from repro.store import open_store

        return open_store(path)
