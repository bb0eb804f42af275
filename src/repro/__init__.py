"""COMPAQT: Compressed Waveform Memory Architecture for Scalable Qubit Control.

A full Python reproduction of the MICRO 2022 paper by Maurya and Tannu.

The package is organized bottom-up:

- :mod:`repro.transforms` -- DCT / integer-DCT / RLE / baseline codecs.
- :mod:`repro.pulses` -- waveform envelopes and pulse libraries.
- :mod:`repro.devices` -- synthetic superconducting device models.
- :mod:`repro.compression` -- the compression pipelines (DCT-N, DCT-W,
  int-DCT-W) and memory packing.
- :mod:`repro.core` -- the COMPAQT compiler module, adaptive compression,
  fidelity-aware thresholding, controller and scalability models.
- :mod:`repro.store` -- the sharded pulse store and its writer, decoded
  LRU cache, and concurrent serving front end.
- :mod:`repro.microarch` -- cycle-level decompression pipeline, banked
  memory, resource / timing / power models.
- :mod:`repro.quantum` -- statevector and pulse-level simulation,
  randomized benchmarking.
- :mod:`repro.circuits` -- circuit IR, transpiler, scheduler, benchmark
  circuits.
- :mod:`repro.qec` -- surface-code patches and syndrome-extraction
  circuits.
- :mod:`repro.analysis` -- capacity/bandwidth scaling models and report
  helpers.

The stable import surface is :mod:`repro.api` -- one namespace holding
the whole compile -> store -> serve -> client -> measure chain.

Quickstart::

    from repro.api import compile_library, compress_waveform, ibm_device

    device = ibm_device("guadalupe")
    waveform = device.pulse_library().waveform("sx", (0,))
    result = compress_waveform(waveform, window_size=16)
    print(result.compression_ratio, result.mse)

    compiled = compile_library("guadalupe")  # whole library in one call
"""

from repro.version import __version__
from repro.errors import (
    ReproError,
    CompressionError,
    DeviceError,
    ScheduleError,
    SimulationError,
    StoreError,
)
from repro.pulses import Waveform
from repro.devices import ibm_device, google_device, fluxonium_device
from repro.compression import (
    CompressionResult,
    compress_waveform,
    decompress_waveform,
)
from repro.core import (
    CompaqtCompiler,
    CompressedPulseLibrary,
    fidelity_aware_compress,
    adaptive_compress,
    RfsocModel,
    qubits_supported,
)
from repro.store import (
    PulseCache,
    PulseServer,
    ShardedStore,
    open_store,
    save_store,
)

# The blessed façade (late import: repro.api re-exports from the
# subpackages above, so it must come after they are importable).
from repro import api
from repro.api import (
    NetPulseServer,
    PulseClient,
    compile_library,
    serve_in_thread,
)

__all__ = [
    "api",
    "compile_library",
    "PulseClient",
    "NetPulseServer",
    "serve_in_thread",
    "__version__",
    "ReproError",
    "CompressionError",
    "DeviceError",
    "ScheduleError",
    "SimulationError",
    "StoreError",
    "Waveform",
    "ibm_device",
    "google_device",
    "fluxonium_device",
    "CompressionResult",
    "compress_waveform",
    "decompress_waveform",
    "CompaqtCompiler",
    "CompressedPulseLibrary",
    "fidelity_aware_compress",
    "adaptive_compress",
    "RfsocModel",
    "qubits_supported",
    "ShardedStore",
    "PulseCache",
    "PulseServer",
    "save_store",
    "open_store",
]
