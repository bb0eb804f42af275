"""Network serving quickstart: put a CQN1 socket in front of a store.

Compile a device library, pack it into a sharded store, host it behind
the asyncio network tier, and fetch pulses back over a real TCP socket
with the blocking client -- verifying that every byte served over the
wire is bit-identical to the local decode path, then pushing a short
closed-loop load run through it for latency percentiles.

Run:  python examples/network_quickstart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.analysis import print_table
from repro.api import (
    PulseClient,
    PulseServer,
    compile_library,
    save_store,
    serve_in_thread,
    synthetic_trace,
)
from repro.serve_net import run_closed_loop


def main() -> None:
    # Calibration-cycle step: compile and pack (the façade one-liners;
    # on the command line, `repro pack guadalupe --shards 4`).
    compiled = compile_library("guadalupe", window_size=16, codec="int-DCT-W")
    with tempfile.TemporaryDirectory() as tmp:
        store = save_store(compiled, Path(tmp) / "guadalupe.cqs", n_shards=4)

        # Cold misses decode in-process under the server's single-flight
        # fill lock; warm hits are a cache lookup.
        with PulseServer(store, cache_capacity=len(store)) as serving:
            # CLI twin: `repro serve-net guadalupe.cqs --port 7401`.
            with serve_in_thread(serving, max_inflight=16) as handle:
                host, port = handle.address
                print(f"serving {len(store)} pulses on {host}:{port} (CQN1)")

                with PulseClient(host, port) as client:
                    print(f"ping: {client.ping() * 1e3:.2f} ms")

                    # One decoded pulse over the wire, checked
                    # bit-for-bit against the in-process serving layer.
                    gate, qubits = client.keys()[0]
                    over_wire = client.fetch(gate, qubits)
                    local = serving.fetch(gate, qubits)
                    assert np.array_equal(over_wire.samples, local.samples)
                    print(f"{gate}{qubits}: {over_wire.samples.size} samples, "
                          "wire == local decode, bit-identical")

                    # Raw CQW1 record bytes skip the decode entirely.
                    (record,) = client.fetch_records([(gate, qubits)])
                    assert record == store.read_record_bytes(gate, qubits)

                # Closed-loop load: 4 connections replaying a Zipf
                # trace in lockstep (`repro loadgen HOST:PORT ...`).
                trace = synthetic_trace(store.keys(), n_requests=2000, seed=11)
                report = run_closed_loop(
                    (host, port), trace, batch_size=32, connections=4
                )
                latency = report.latency_ms
                print_table(
                    "closed-loop load (4 connections, batch 32)",
                    ["requests", "pulses/s", "p50 ms", "p99 ms", "overloads"],
                    [[
                        report.requests_ok,
                        f"{report.pulses_per_s:,.0f}",
                        f"{latency['p50']:.2f}",
                        f"{latency['p99']:.2f}",
                        report.overloads,
                    ]],
                )

                stats = handle.stats()
                print(
                    f"server counters: {stats['requests']} requests, "
                    f"{stats['pulses_served']} pulses, "
                    f"{stats['serving']['coalesced_fills']} coalesced fills, "
                    f"{stats['overloads']} overloads"
                )


if __name__ == "__main__":
    main()
