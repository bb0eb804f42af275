"""Serving quickstart: pack a device library into a sharded store
(generation 1) and serve decoded pulses through the concurrent LRU
front end.

Run:  python examples/serving_quickstart.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import CompaqtCompiler, ibm_device
from repro.analysis import print_table
from repro.compression.pipeline import decompress_waveform
from repro.store import PulseServer, save_store, synthetic_trace


def main() -> None:
    # Compile Guadalupe's library once (the calibration-cycle step).
    device = ibm_device("guadalupe")
    compiler = CompaqtCompiler(window_size=16, codec="int-DCT-W")
    compiled = compiler.compile_library(device.pulse_library())
    print(
        f"{device}: compiled {len(compiled)} waveforms, "
        f"R(var)={compiled.overall_ratio_variable:.2f}"
    )

    with tempfile.TemporaryDirectory() as tmp:
        # Pack as a sharded store: generation 1's manifest plus
        # hash-routed CQL1 shard files with a byte-offset index per
        # pulse.  On the command line: `repro pack guadalupe --shards 4`.
        store = save_store(compiled, Path(tmp) / "guadalupe.cqs", n_shards=4)
        print(
            f"packed -> generation {store.generation}, {store.n_shards} "
            f"shards, {store.total_shard_bytes / 1e3:.1f} KB compressed "
            "on disk"
        )

        # Serve a skewed request trace (what gate issue looks like:
        # a few hot calibrated pulses, a long cold tail).
        trace = synthetic_trace(store.keys(), n_requests=2000, seed=11)
        with PulseServer(store, cache_capacity=24) as server:
            start = time.perf_counter()
            for begin in range(0, len(trace), 32):
                server.fetch_batch(trace[begin : begin + 32])
            elapsed = time.perf_counter() - start
            stats = server.stats()

            # Every served pulse is bit-identical to the scalar decoder.
            gate, qubits = trace[0]
            served = server.fetch(gate, qubits)
            reference = decompress_waveform(store.read_record(gate, qubits))
            assert np.array_equal(served.samples, reference.samples)

        cache = stats["cache"]
        print_table(
            "pulse serving (cache 24 of "
            f"{len(store)} pulses, {store.n_shards} shards)",
            ["requests", "pulses/s", "hit rate", "evictions", "shard fills"],
            [
                [
                    stats["requests"],
                    f"{len(trace) / elapsed:.0f}",
                    f"{cache['hit_rate']:.0%}",
                    cache["evictions"],
                    stats["shard_fills"],
                ]
            ],
        )
        print(
            "served samples verified bit-identical to the scalar "
            "decompress_channel path"
        )


if __name__ == "__main__":
    main()
