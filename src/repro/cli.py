"""Command-line interface: inspect devices, codecs, reports, perf.

Usage::

    python -m repro devices
    python -m repro codecs
    python -m repro report --device guadalupe --window-size 16
    python -m repro report --device bogota --codec delta
    python -m repro scalability --window-size 16
    python -m repro bench --quick --codecs int-DCT-W,delta
    python -m repro bench --serving --quick
    python -m repro bench --network --quick
    python -m repro bench --network --check
    python -m repro pack guadalupe --shards 4 --codec int-DCT-W
    python -m repro serve guadalupe.cqs --requests trace.json
    python -m repro serve-net guadalupe.cqs --port 7711 --prewarm
    python -m repro serve-net guadalupe.cqs --metrics-port 9200 --trace-sample-rate 0.01
    python -m repro loadgen 127.0.0.1:7711 --synthetic 4096 --open --rate 500
    python -m repro loadgen 127.0.0.1:7711 --open --rate 2000 --retries 3
    python -m repro metrics 127.0.0.1:7711
    python -m repro traces 127.0.0.1:7711 --limit 4
    python -m repro chaos --quick
    python -m repro chaos --devices bogota,guadalupe --seed 7 --ops 400
    python -m repro chaos --quick --trace-sample-rate 1.0
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.analysis import render_table
from repro.compression.codecs import get_codec, list_codecs
from repro.core import CompaqtCompiler, qubit_gain, qubits_supported
from repro.devices import IBM_DEVICE_NAMES, ibm_device

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMPAQT reproduction: compressed waveform memory tools",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("devices", help="list available synthetic devices")

    subparsers.add_parser(
        "codecs", help="list registered codecs and their capability flags"
    )

    report = subparsers.add_parser(
        "report", help="compression report for one device's pulse library"
    )
    report.add_argument("--device", default="guadalupe", help="IBM device name")
    report.add_argument(
        "--window-size", type=int, default=16, choices=(8, 16, 32)
    )
    report.add_argument(
        "--codec",
        default="int-DCT-W",
        choices=list_codecs(),
        help="codec name (see `repro codecs`)",
    )
    report.add_argument(
        "--threshold", type=float, default=128, help="coefficient threshold"
    )
    report.add_argument(
        "--fidelity-aware",
        action="store_true",
        help="tune the threshold per pulse (Algorithm 1)",
    )
    report.add_argument(
        "--target-mse", type=float, default=1e-6, help="Algorithm 1 epsilon"
    )

    scal = subparsers.add_parser(
        "scalability", help="qubits supported per QICK-class controller"
    )
    scal.add_argument("--window-size", type=int, default=16, choices=(8, 16, 32))
    scal.add_argument("--clock-ratio", type=int, default=16)

    bench = subparsers.add_parser(
        "bench",
        help="codec benchmark: scalar vs batched encode, scalar vs fused "
        "decode (JSON + table)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small device set and a single repeat (the CI smoke profile)",
    )
    bench.add_argument(
        "--decode",
        action="store_true",
        help="decode-side profile: skip the scalar compile timing and "
        "measure fused playback and the wire format only",
    )
    bench.add_argument(
        "--serving",
        action="store_true",
        help="serving profile: sharded-store fetch_batch throughput vs "
        "the naive per-pulse decode loop (writes BENCH_serving.json)",
    )
    bench.add_argument(
        "--network",
        action="store_true",
        help="network profile: CQN1 socket throughput, tail latency and "
        "overload behaviour (writes BENCH_network.json)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="evaluate the gates but do not rewrite the default JSON "
        "artifact (no dirty CI trees); an explicit --output still writes",
    )
    bench.add_argument(
        "--seed", type=int, default=7, help="serving-trace RNG seed"
    )
    bench.add_argument(
        "--devices",
        default=None,
        help="comma-separated device specs (IBM name, google-RxC, "
        "fluxonium-N); defaults to the full catalog, or the quick set "
        "with --quick",
    )
    bench.add_argument(
        "--codecs",
        default=None,
        help="comma-separated codec names (see `repro codecs`); defaults "
        "to every registered codec",
    )
    bench.add_argument(
        "--window-size", type=int, default=16, choices=(8, 16, 32)
    )
    bench.add_argument("--repeats", type=int, default=None)
    bench.add_argument("--warmup", type=int, default=1)
    bench.add_argument(
        "--output",
        default=None,
        help="JSON output path (default BENCH_compression.json)",
    )

    pack = subparsers.add_parser(
        "pack",
        help="compile a device library and write its wire-format bitstream",
    )
    pack.add_argument(
        "device", help="device spec (IBM name, google-RxC, fluxonium-N)"
    )
    pack.add_argument(
        "--window-size", type=int, default=16, choices=(8, 16, 32)
    )
    pack.add_argument(
        "--codec",
        default="int-DCT-W",
        choices=list_codecs(),
        help="codec to pack with, validated against the registry "
        "(see `repro codecs`)",
    )
    pack.add_argument(
        "--threshold", type=float, default=128, help="coefficient threshold"
    )
    pack.add_argument(
        "--shards",
        type=int,
        default=0,
        help="write a sharded store directory (generation 1) with this "
        "many shard files instead of a single CQL1 container "
        "(0 = single file)",
    )
    pack.add_argument(
        "--output",
        default=None,
        help="output path (default <device>.cqt, or <device>.cqs with --shards)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve decoded pulses from a store directory through the LRU "
        "cache",
    )
    serve.add_argument(
        "store", help="store directory (see `repro pack --shards`)"
    )
    serve.add_argument(
        "--requests",
        default=None,
        help="JSON request trace; omitted: a synthetic Zipf trace over "
        "the store's keys",
    )
    serve.add_argument(
        "--synthetic",
        type=int,
        default=1024,
        help="synthetic trace length when --requests is omitted",
    )
    serve.add_argument("--seed", type=int, default=0, help="synthetic trace seed")
    serve.add_argument(
        "--cache-size", type=int, default=64, help="decoded LRU capacity (pulses)"
    )
    serve.add_argument(
        "--batch-size", type=int, default=32, help="fetch_batch request size"
    )
    serve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the bit-identity check against the scalar decoder",
    )
    serve.add_argument(
        "--prewarm",
        action="store_true",
        help="fill the cache one shard at a time through the fused "
        "decoder before replaying the trace",
    )

    serve_net = subparsers.add_parser(
        "serve-net",
        help="serve a store directory over TCP with the CQN1 binary protocol",
    )
    serve_net.add_argument(
        "store", help="store directory (see `repro pack --shards`)"
    )
    serve_net.add_argument("--host", default="127.0.0.1")
    serve_net.add_argument(
        "--port", type=int, default=0, help="listen port (0 = OS-assigned)"
    )
    serve_net.add_argument(
        "--cache-size",
        type=int,
        default=0,
        help="decoded LRU capacity in pulses (0 = the whole library)",
    )
    serve_net.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="admission-control bound: fetches beyond this get an "
        "explicit overload reply instead of queueing",
    )
    serve_net.add_argument(
        "--prewarm",
        action="store_true",
        help="fill the cache before accepting connections",
    )
    serve_net.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    serve_net.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="also serve Prometheus-style text metrics over HTTP on "
        "this port (GET /metrics; /metrics.json for the raw snapshot)",
    )
    serve_net.add_argument(
        "--trace-sample-rate",
        type=float,
        default=None,
        help="fraction of fetches that record a server-side trace "
        "(default 0.01; client-traced fetches always record)",
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive a CQN1 server and report throughput and p50/p95/p99",
    )
    loadgen.add_argument("address", help="server address, host:port")
    loadgen.add_argument(
        "--trace",
        default=None,
        help="JSON request trace; omitted: a synthetic Zipf trace over "
        "the server's keys",
    )
    loadgen.add_argument(
        "--synthetic",
        type=int,
        default=4096,
        help="synthetic trace length when --trace is omitted",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--open",
        action="store_true",
        help="open-loop mode: fire on a Poisson schedule at --rate "
        "instead of waiting for responses (the overload probe)",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="open-loop arrival rate, requests/second",
    )
    loadgen.add_argument("--batch-size", type=int, default=None)
    loadgen.add_argument("--connections", type=int, default=None)
    loadgen.add_argument(
        "--max-outstanding",
        type=int,
        default=64,
        help="open-loop bound on in-flight requests (excess arrivals "
        "are shed client-side)",
    )
    loadgen.add_argument(
        "--records",
        action="store_true",
        help="fetch raw CQW1 record bytes instead of decoded samples",
    )
    loadgen.add_argument(
        "--retries",
        type=int,
        default=0,
        help="client retries per request on an overload reply, with "
        "seeded exponential backoff (0 = count overloads, don't retry)",
    )
    loadgen.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="base retry backoff in seconds (doubles per attempt, "
        "jittered)",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="fault-injection chaos/soak harness over the serving stack",
    )
    chaos.add_argument(
        "--devices",
        default="bogota",
        help="comma-separated device specs to soak (default: bogota)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke profile: one small device, short seeded workload",
    )
    chaos.add_argument("--threads", type=int, default=4)
    chaos.add_argument(
        "--ops",
        type=int,
        default=150,
        help="operations per worker thread (the soak length knob)",
    )
    chaos.add_argument("--clients", type=int, default=3)
    chaos.add_argument("--shards", type=int, default=4)
    chaos.add_argument(
        "--fault-period",
        type=int,
        default=7,
        help="inject one fault per N batch decodes",
    )
    chaos.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        help="request-trace sampling rate for the networked phase "
        "(1.0 soaks the tracing path itself under faults)",
    )
    chaos.add_argument(
        "--write-commits",
        type=int,
        default=12,
        help="commits in the write-storm phase, with crash_commit / "
        "torn_write faults injected into the commit protocol "
        "(0 skips the phase)",
    )
    chaos.add_argument(
        "--store-dir",
        default=None,
        help="keep the soak's store directories here instead of a "
        "temp dir (the surviving write-storm store can then be "
        "scrubbed with `repro store verify`)",
    )
    chaos.add_argument(
        "--json",
        default=None,
        help="also write the full soak report to this path",
    )

    store = subparsers.add_parser(
        "store",
        help="inspect and scrub store directories",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify",
        help="scrub a store directory: manifest chain, shard sizes, "
        "span bounds, per-record parseability (fused vs scalar)",
    )
    store_verify.add_argument("dir", help="store directory to scrub")

    metrics = subparsers.add_parser(
        "metrics",
        help="scrape a CQN1 server's metrics registry over the wire",
    )
    metrics.add_argument("address", help="server address, host:port")
    metrics.add_argument(
        "--json",
        action="store_true",
        help="print the raw snapshot as JSON instead of Prometheus text",
    )

    traces = subparsers.add_parser(
        "traces",
        help="fetch a CQN1 server's recent request traces",
    )
    traces.add_argument("address", help="server address, host:port")
    traces.add_argument(
        "--limit",
        type=int,
        default=16,
        help="most recent traces to fetch (1-1024)",
    )
    traces.add_argument(
        "--json",
        action="store_true",
        help="print raw trace dicts as JSON instead of span trees",
    )
    return parser


def _cmd_devices() -> str:
    rows = []
    for name in IBM_DEVICE_NAMES:
        device = ibm_device(name)
        rows.append(
            [
                device.name,
                device.n_qubits,
                len(device.topology.edges),
                len(device.pulse_library()),
                f"{device.memory_per_qubit_bytes() / 1e3:.1f} KB",
            ]
        )
    return render_table(
        "Synthetic IBM devices",
        ["device", "qubits", "couplings", "waveforms", "memory/qubit"],
        rows,
    )


def _cmd_codecs() -> str:
    rows = []
    for name in list_codecs():
        codec = get_codec(name)
        sizes = codec.supported_window_sizes
        rows.append(
            [
                codec.wire_id,
                codec.name,
                "yes" if codec.windowed else "full-frame",
                "yes" if codec.batchable else "no",
                "yes" if codec.exact_rational_rows else "no",
                "yes" if codec.lossless else "no",
                "any" if sizes is None else "/".join(str(s) for s in sizes),
            ]
        )
    return render_table(
        "Registered codecs",
        [
            "id",
            "codec",
            "windowed",
            "batchable",
            "exact rows",
            "lossless",
            "windows",
        ],
        rows,
        note="register new codecs via repro.compression.codecs.register_codec",
    )


def _cmd_report(args: argparse.Namespace) -> str:
    device = ibm_device(args.device)
    compiler = CompaqtCompiler(
        window_size=args.window_size,
        codec=args.codec,
        threshold=args.threshold,
        fidelity_aware=args.fidelity_aware,
        target_mse=args.target_mse,
    )
    compiled = compiler.compile_library(device.pulse_library())
    rows = []
    for gate in ("x", "sx", "cx", "measure"):
        stats = compiled.gate_stats(gate)
        rows.append(
            [
                gate,
                stats.count,
                f"{stats.min_ratio:.2f}",
                f"{stats.mean_ratio:.2f}",
                f"{stats.max_ratio:.2f}",
                f"{stats.mean_mse:.1e}",
            ]
        )
    rows.append(
        [
            "overall",
            len(compiled),
            "-",
            f"{compiled.overall_ratio_variable:.2f}",
            "-",
            f"{compiled.mean_mse:.1e}",
        ]
    )
    return render_table(
        f"{device.name}: {args.codec} WS={args.window_size}"
        + (" (fidelity-aware)" if args.fidelity_aware else ""),
        ["gate", "count", "min R", "mean R", "max R", "mean MSE"],
        rows,
        note=f"worst window: {compiled.worst_case_window_words} words",
    )


def _cmd_scalability(args: argparse.Namespace) -> str:
    rows = [["uncompressed", "1.00x", qubits_supported(0, args.clock_ratio)]]
    for ws in (8, 16):
        rows.append(
            [
                f"int-DCT-W WS={ws}",
                f"{qubit_gain(ws, args.clock_ratio):.2f}x",
                qubits_supported(ws, args.clock_ratio),
            ]
        )
    return render_table(
        f"Concurrent qubits (DAC/fabric clock ratio {args.clock_ratio}x)",
        ["design", "gain", "qubits"],
        rows,
    )


def _single_codec_arg(args: argparse.Namespace, profile: str) -> Optional[str]:
    """The one codec a single-codec bench profile runs; None on error."""
    if args.codecs is None:
        return "int-DCT-W"
    named = tuple(
        dict.fromkeys(v.strip() for v in args.codecs.split(",") if v.strip())
    )
    if len(named) != 1:
        print(
            f"error: the {profile} bench measures one codec per run; "
            f"--codecs named {list(named)}"
        )
        return None
    if named[0] not in list_codecs():
        print(
            f"error: unknown codec {named[0]!r}; registered: "
            f"{', '.join(list_codecs())}"
        )
        return None
    return named[0]


def _cmd_bench_network(args: argparse.Namespace) -> int:
    from repro.perf import (
        DEFAULT_NETWORK_OUTPUT,
        NETWORK_FULL_DEVICE_SPECS,
        NETWORK_QUICK_DEVICE_SPECS,
        network_gates_ok,
        render_network_table,
        run_network_bench,
        write_network_json,
    )

    if args.decode or args.serving:
        print("error: --network is its own bench profile")
        return 2
    if args.devices:
        specs = tuple(s.strip() for s in args.devices.split(",") if s.strip())
        if not specs:
            print(f"error: --devices {args.devices!r} names no devices")
            return 2
    else:
        specs = (
            NETWORK_QUICK_DEVICE_SPECS if args.quick else NETWORK_FULL_DEVICE_SPECS
        )
    codec = _single_codec_arg(args, "network")
    if codec is None:
        return 2
    # Best-of-2 even in quick mode: a single replay on a noisy CI
    # runner can dip under the throughput gate.
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 3)
    payload = run_network_bench(
        device_specs=specs,
        n_requests=1024 if args.quick else 4096,
        repeats=repeats,
        seed=args.seed,
        window_size=args.window_size,
        codec=codec,
    )
    print(render_network_table(payload))
    if args.check and not args.output:
        print("   check mode: gates evaluated, JSON not written")
    else:
        path = write_network_json(payload, args.output or DEFAULT_NETWORK_OUTPUT)
        print(f"   wrote: {path}")
    ok, failures = network_gates_ok(payload)
    for failure in failures:
        print(f"ERROR: {failure}")
    return 0 if ok else 1


def _cmd_bench_serving(args: argparse.Namespace) -> int:
    from repro.perf import (
        DEFAULT_SERVING_OUTPUT,
        SERVING_FULL_DEVICE_SPECS,
        SERVING_QUICK_DEVICE_SPECS,
        render_serving_table,
        run_serving_bench,
        serving_gates_ok,
        write_serving_json,
    )

    if args.decode:
        print("error: --decode and --serving are different bench profiles")
        return 2
    if args.devices:
        specs = tuple(s.strip() for s in args.devices.split(",") if s.strip())
        if not specs:
            print(f"error: --devices {args.devices!r} names no devices")
            return 2
    else:
        specs = (
            SERVING_QUICK_DEVICE_SPECS if args.quick else SERVING_FULL_DEVICE_SPECS
        )
    codec = _single_codec_arg(args, "serving")
    if codec is None:
        return 2
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)
    payload = run_serving_bench(
        device_specs=specs,
        n_requests=512 if args.quick else 2048,
        repeats=repeats,
        warmup=args.warmup,
        seed=args.seed,
        window_size=args.window_size,
        variant=codec,
    )
    print(render_serving_table(payload))
    if args.check and not args.output:
        print("   check mode: gates evaluated, JSON not written")
    else:
        path = write_serving_json(payload, args.output or DEFAULT_SERVING_OUTPUT)
        print(f"   wrote: {path}")
    ok, failures = serving_gates_ok(payload)
    for failure in failures:
        print(f"ERROR: {failure}")
    return 0 if ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        DEFAULT_OUTPUT,
        FULL_DEVICE_SPECS,
        QUICK_DEVICE_SPECS,
        render_bench_table,
        run_compression_bench,
        write_bench_json,
    )

    if args.network:
        return _cmd_bench_network(args)
    if args.serving:
        return _cmd_bench_serving(args)
    if args.devices:
        specs = tuple(s.strip() for s in args.devices.split(",") if s.strip())
        if not specs:
            print(f"error: --devices {args.devices!r} names no devices")
            return 2
    else:
        specs = QUICK_DEVICE_SPECS if args.quick else FULL_DEVICE_SPECS
    if args.codecs is not None:
        variants = tuple(
            dict.fromkeys(
                v.strip() for v in args.codecs.split(",") if v.strip()
            )
        )
        if not variants:
            print(f"error: --codecs {args.codecs!r} names no codecs")
            return 2
        unknown = [v for v in variants if v not in list_codecs()]
        if unknown:
            print(
                f"error: unknown codecs {unknown}; registered: "
                f"{', '.join(list_codecs())}"
            )
            return 2
    else:
        variants = list_codecs()
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)
    payload = run_compression_bench(
        device_specs=specs,
        variants=variants,
        window_size=args.window_size,
        repeats=repeats,
        warmup=args.warmup,
        mode="decode" if args.decode else "all",
    )
    print(render_bench_table(payload))
    if args.check and not args.output:
        print("   check mode: gates evaluated, JSON not written")
    else:
        path = write_bench_json(payload, args.output or DEFAULT_OUTPUT)
        print(f"   wrote: {path}")
    summary = payload["summary"]
    failures = []
    if not summary["all_parity_ok"]:
        failures.append("batched compression mismatches the scalar reference")
    if not summary["all_roundtrip_ok"]:
        failures.append("bitstream round-trip is not lossless")
    if not summary["all_fused_parity_ok"]:
        failures.append("fused parse+decode mismatches the scalar reader path")
    if not summary["all_parse_parity_ok"]:
        failures.append("vectorized parse mismatches the scalar reader")
    if not summary["fused_speedup_gate_ok"]:
        failures.append(
            "fused cold-miss decode is under the "
            f"{summary['fused_speedup_gate']:.0f}x gate on a windowed codec "
            f"(min {summary['min_fused_speedup_windowed']:.1f}x)"
        )
    for failure in failures:
        print(f"ERROR: {failure}")
    return 1 if failures else 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.perf import resolve_device
    from repro.store import generation_manifest_name

    if args.shards < 0:
        print(f"error: --shards must be >= 0, got {args.shards}")
        return 2
    device = resolve_device(args.device)
    compiler = CompaqtCompiler(
        window_size=args.window_size,
        codec=args.codec,
        threshold=args.threshold,
    )
    compiled = compiler.compile_library(device.pulse_library())
    uncompressed = sum(
        r.compressed.original_samples * 4 for _k, r in compiled
    )  # 16-bit I + 16-bit Q per sample

    if args.shards:
        store = compiler.save_store(
            compiled, args.output or f"{device.name}.cqs", n_shards=args.shards
        )
        loaded = store.load_library()
        identical = len(loaded) == len(compiled) and all(
            loaded.result(*key).compressed == compiled.result(*key).compressed
            for key in compiled.keys()
        )
        if not identical:
            print("ERROR: packed store failed its round-trip check")
            return 1
        wire_bytes = store.total_shard_bytes
        path = store.path.resolve()
        rows = [
            [
                shard,
                store.shard_path(shard).name,
                sum(1 for k in store.keys() if store.shard_of(*k) == shard),
                store.shard_path(shard).stat().st_size,
            ]
            for shard in range(store.n_shards)
        ]
        print(
            render_table(
                f"{device.name}: store generation {store.generation}, "
                f"{args.codec} WS={args.window_size}, {args.shards} shards",
                ["shard", "file", "waveforms", "bytes"],
                rows,
                note=f"manifest: {path}/"
                f"{generation_manifest_name(store.generation)} "
                "(round-trip verified)",
            )
        )
    else:
        path = compiler.save_library(compiled, args.output or f"{device.name}.cqt")
        blob = path.read_bytes()
        loaded = compiler.load_library(path)
        if len(loaded) != len(compiled) or loaded.to_bytes() != blob:
            print("ERROR: packed bitstream failed its round-trip check")
            return 1
        wire_bytes = len(blob)
        print(
            render_table(
                f"{device.name}: packed {args.codec} WS={args.window_size}",
                ["waveforms", "wire bytes", "raw bytes", "wire ratio", "R(var)"],
                [
                    [
                        len(compiled),
                        wire_bytes,
                        uncompressed,
                        f"{uncompressed / wire_bytes:.2f}",
                        f"{compiled.overall_ratio_variable:.2f}",
                    ]
                ],
                note=f"wrote: {path} (round-trip verified)",
            )
        )
    print(
        f"packed {len(compiled)} waveforms -> {path} "
        f"({wire_bytes} wire bytes, {uncompressed / wire_bytes:.2f}x over raw, "
        f"R(var)={compiled.overall_ratio_variable:.2f})"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.compression.pipeline import decompress_waveform
    from repro.store import PulseServer, load_trace, open_store, synthetic_trace

    store = open_store(args.store)
    if args.requests:
        trace = load_trace(args.requests)
        source = args.requests
    else:
        trace = synthetic_trace(store.keys(), args.synthetic, seed=args.seed)
        source = f"synthetic (seed {args.seed})"

    with PulseServer(store, cache_capacity=args.cache_size) as server:
        prewarmed = server.cache.prewarm() if args.prewarm else 0
        start = time.perf_counter()
        for begin in range(0, len(trace), args.batch_size):
            server.fetch_batch(trace[begin : begin + args.batch_size])
        elapsed = time.perf_counter() - start
        # Snapshot before the verify pass so the printed counters
        # describe the trace replay, not the verification traffic.
        stats = server.stats()
        identity_ok = True
        if not args.no_verify:
            keys = store.keys()
            served = server.fetch_batch(keys)
            for key, waveform in zip(keys, served):
                reference = decompress_waveform(store.read_record(*key))
                if not np.array_equal(waveform.samples, reference.samples):
                    identity_ok = False
                    break

    cache = stats["cache"]
    print(
        render_table(
            f"{store.device_name}: served {len(trace)} requests "
            f"({store.n_shards} shards, cache {args.cache_size})",
            ["requests", "pulses/s", "hits", "misses", "evictions", "hit rate"],
            [
                [
                    stats["requests"],
                    f"{len(trace) / elapsed:.0f}" if elapsed > 0 else "inf",
                    cache["hits"],
                    cache["misses"],
                    cache["evictions"],
                    f"{cache['hit_rate']:.0%}",
                ]
            ],
            note=f"trace: {source}, shard fills: {stats['shard_fills']}"
            + (f", prewarmed: {prewarmed} pulses" if args.prewarm else "")
            + (
                ""
                if args.no_verify
                else (
                    ", bit-identity vs scalar decode: "
                    + ("ok" if identity_ok else "FAILED")
                )
            ),
        )
    )
    if not identity_ok:
        print("ERROR: served samples diverge from the scalar reference")
        return 1
    return 0


def _cmd_serve_net(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve_net import NetPulseServer
    from repro.store import PulseServer, open_store

    store = open_store(args.store)
    cache_size = args.cache_size or len(store.keys())

    async def _run() -> None:
        with PulseServer(store, cache_capacity=cache_size) as serving:
            if args.prewarm:
                serving.cache.prewarm()
            server = NetPulseServer(
                serving,
                host=args.host,
                port=args.port,
                max_inflight=args.max_inflight,
                trace_sample_rate=args.trace_sample_rate,
            )
            await server.start()
            host, port = server.address
            print(
                f"serving {store.device_name} ({len(store.keys())} pulses, "
                f"{store.n_shards} shards) on {host}:{port} -- CQN1, "
                f"max inflight {args.max_inflight}; "
                f"Ctrl-C drains and exits"
            )
            metrics_http = None
            if args.metrics_port is not None:
                from repro.obs import start_metrics_server

                metrics_http = start_metrics_server(
                    server.metrics_snapshot,
                    host=args.host,
                    port=args.metrics_port,
                )
                metrics_host, metrics_port = metrics_http.address
                print(
                    f"metrics on http://{metrics_host}:{metrics_port}/metrics"
                )
            try:
                await server.serve_forever()
            finally:
                if metrics_http is not None:
                    metrics_http.close()
                await server.aclose(drain_timeout=args.drain_timeout)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("drained and stopped")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve_net import (
        PulseClient,
        parse_address,
        run_closed_loop,
        run_open_loop,
    )
    from repro.store import load_trace, synthetic_trace

    address = parse_address(args.address)
    if args.trace:
        trace = load_trace(args.trace)
        source = args.trace
    else:
        with PulseClient(address) as client:
            keys = client.keys()
        trace = synthetic_trace(keys, args.synthetic, seed=args.seed)
        source = f"synthetic over {len(keys)} server keys (seed {args.seed})"

    mode = "records" if args.records else "samples"
    if args.retries < 0 or args.backoff < 0:
        print("error: --retries and --backoff must be >= 0")
        return 2
    if args.open:
        report = run_open_loop(
            address,
            trace,
            rate=args.rate,
            batch_size=args.batch_size or 16,
            connections=args.connections or 8,
            max_outstanding=args.max_outstanding,
            seed=args.seed,
            mode=mode,
            retries=args.retries,
            backoff=args.backoff,
        )
    else:
        report = run_closed_loop(
            address,
            trace,
            batch_size=args.batch_size or 64,
            connections=args.connections or 4,
            mode=mode,
            retries=args.retries,
            backoff=args.backoff,
            seed=args.seed,
        )
    latency = report.latency_ms

    def fmt(value: Optional[float]) -> str:
        return f"{value:.2f}" if value is not None else "-"

    print(
        render_table(
            f"{args.address}: {report.mode}-loop load ({mode}), "
            f"{report.connections} connections, batch {report.batch_size}",
            [
                "requests ok",
                "overloads",
                "errors",
                "skipped",
                "pulses/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
            ],
            [
                [
                    f"{report.requests_ok}/{report.requests_sent}",
                    report.overloads,
                    report.errors,
                    report.skipped,
                    f"{report.pulses_per_s:.0f}",
                    fmt(latency["p50"]),
                    fmt(latency["p95"]),
                    fmt(latency["p99"]),
                ]
            ],
            note=f"trace: {source}"
            + (
                f", retries: {report.retries}" if args.retries else ""
            )
            + (
                f", target rate {report.target_rate:.0f} req/s, peak "
                f"outstanding {report.peak_outstanding}/{report.max_outstanding}"
                f", late p99 {fmt(report.late_ms['p99'])} ms"
                if report.mode == "open"
                else ""
            ),
        )
    )
    return 0 if report.errors == 0 else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.perf.serving_bench import (
        render_soak_table,
        run_serving_soak,
        soak_gates_ok,
    )

    if args.quick:
        # The CI smoke profile: one small device, short seeded storm --
        # still every fault kind, both workloads, and the recovery pass.
        devices = ["bogota"]
        threads, ops, clients = 3, 80, 2
    else:
        devices = [d.strip() for d in args.devices.split(",") if d.strip()]
        threads, ops, clients = args.threads, args.ops, args.clients
    store_dir = None
    if args.store_dir:
        store_dir = pathlib.Path(args.store_dir)
        store_dir.mkdir(parents=True, exist_ok=True)
    payload = run_serving_soak(
        device_specs=devices,
        seed=args.seed,
        threads=threads,
        ops_per_thread=ops,
        net_clients=clients,
        n_shards=args.shards,
        fault_period=args.fault_period,
        trace_sample_rate=args.trace_sample_rate,
        write_commits=args.write_commits,
        store_dir=store_dir,
    )
    print(render_soak_table(payload))
    if args.json:
        from repro.store import atomic_write

        out = pathlib.Path(args.json)
        atomic_write(out, json.dumps(payload, indent=2) + "\n")
        print(f"   wrote: {out.resolve()}")
    ok, failures = soak_gates_ok(payload)
    for failure in failures:
        print(f"ERROR: {failure}")
    return 0 if ok else 1


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store.verify import format_report, verify_store

    report = verify_store(args.dir)
    print(format_report(report))
    return 0 if report.ok else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs import render_prometheus
    from repro.serve_net import PulseClient

    with PulseClient(args.address) as client:
        snapshot = client.metrics()
    if args.json:
        print(json.dumps(snapshot, indent=2))
    else:
        print(render_prometheus(snapshot), end="")
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    import json

    from repro.obs import format_trace_tree
    from repro.serve_net import PulseClient

    with PulseClient(args.address) as client:
        traces = client.traces(limit=args.limit)
    if args.json:
        print(json.dumps(traces, indent=2))
        return 0
    if not traces:
        print(
            "no traces recorded -- raise the server's sampling "
            "(serve-net --trace-sample-rate) or trace client-side"
        )
        return 0
    for trace_dict in traces:
        print(format_trace_tree(trace_dict))
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "devices":
        print(_cmd_devices())
    elif args.command == "codecs":
        print(_cmd_codecs())
    elif args.command == "report":
        print(_cmd_report(args))
    elif args.command == "scalability":
        print(_cmd_scalability(args))
    elif args.command == "bench":
        return _cmd_bench(args)
    elif args.command == "pack":
        return _cmd_pack(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "serve-net":
        return _cmd_serve_net(args)
    elif args.command == "loadgen":
        return _cmd_loadgen(args)
    elif args.command == "chaos":
        return _cmd_chaos(args)
    elif args.command == "store":
        return _cmd_store(args)
    elif args.command == "metrics":
        return _cmd_metrics(args)
    elif args.command == "traces":
        return _cmd_traces(args)
    return 0
