"""Serving benchmark: pulse throughput of the sharded store front end.

The compression bench (PR 1-3) measures compile- and decode-side
*engine* speed; this bench measures the thing the north star actually
cares about -- sustained pulses/second at the serving interface -- and
how it moves with the two knobs the store exposes:

* **cache size** (decoded hot set, as a fraction of the library), and
* **shard count** (the store's file layout and prewarm granularity).

For every device it compiles the library once, writes a store
(generation 1) per shard count, and replays the same Zipf-skewed
request trace three ways:

* **naive** -- the pre-subsystem baseline: one offset-indexed record
  read plus one scalar ``decompress_waveform`` per request, no cache;
* **cold**  -- ``fetch_batch`` through a fresh :class:`PulseServer`
  (mmap span views + the fused parse→decode fast path + cache fill);
* **warm**  -- the same server replaying the trace with the cache
  already populated.

Schema v2 additionally reports ``record_bytes_per_pulse`` -- the deep
Python-object footprint of one parsed compressed record
(:func:`measure_record_memory`), tracking the ``__slots__`` savings on
the high-volume record types.

Every measured config also runs a **bit-identity gate**: each unique
pulse served by ``fetch_batch`` must equal the scalar reference
(``decompress_waveform`` over the store record, i.e. the
``decompress_channel`` path) sample for sample.  The JSON summary
exposes ``all_identity_ok`` -- CI fails on it -- plus the headline
``warm_speedup_full_cache_min``, the smallest warm-over-naive speedup
among full-cache configs (the repo gates this at >= 5x for the
committed ``BENCH_serving.json``).

Schema v3 adds a **mixed read/write** section (one entry per device):
a :class:`~repro.store.StoreWriter` commits generations against a
writable copy of the store while reader threads keep fetching and
adopting snapshots via :meth:`~repro.store.PulseServer.refresh`.  Two
gates ride on it: every waveform served mid-storm must equal *some*
durably committed version of its key (``mixed_identity_ok``), and
reads must complete while a commit is held paused at its pre-publish
hook point -- the deterministic proof that readers never block on
writer commits (``readers_nonblocking_ok``).
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
import tempfile
import threading
import time
from dataclasses import fields, is_dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import DeviceError
from repro.analysis.report import render_table
from repro.compression.pipeline import decompress_waveform
from repro.core.compiler import CompaqtCompiler
from repro.devices import IBM_DEVICE_NAMES
from repro.perf.compression_bench import resolve_device
from repro.perf.runner import time_callable
from repro.pulses.waveform import Waveform
from repro.store import (
    PulseServer,
    ShardedStore,
    StoreWriter,
    atomic_write,
    open_store,
    save_store,
    synthetic_trace,
)
from repro.store.hooks import set_preempt_hook
from repro.version import __version__

__all__ = [
    "SERVING_BENCH_SCHEMA",
    "DEFAULT_SERVING_OUTPUT",
    "SERVING_QUICK_DEVICE_SPECS",
    "SERVING_FULL_DEVICE_SPECS",
    "DEFAULT_SHARD_COUNTS",
    "DEFAULT_CACHE_FRACTIONS",
    "WARM_SPEEDUP_GATE",
    "measure_record_memory",
    "run_serving_bench",
    "render_serving_table",
    "write_serving_json",
    "serving_gates_ok",
    "run_serving_soak",
    "render_soak_table",
    "soak_gates_ok",
]

SERVING_BENCH_SCHEMA = "compaqt-bench-serving/v3"

DEFAULT_SERVING_OUTPUT = "BENCH_serving.json"

#: Quick (CI smoke) profile: two library sizes, still every code path.
SERVING_QUICK_DEVICE_SPECS = ("bogota", "guadalupe")

#: The standard 11-device set: the full IBM catalog plus the default
#: Google grid and fluxonium processor (matches the compression bench).
SERVING_FULL_DEVICE_SPECS = tuple(IBM_DEVICE_NAMES) + (
    "google-6x9",
    "fluxonium-5",
)

DEFAULT_SHARD_COUNTS = (1, 4, 8)

#: Cache capacity as a fraction of the library's pulse count; 1.0 is
#: the fully resident hot set the headline warm gate is measured at.
DEFAULT_CACHE_FRACTIONS = (0.125, 0.5, 1.0)

#: Committed-baseline gate: warm full-cache ``fetch_batch`` must beat
#: the naive per-pulse decode loop by at least this factor.
WARM_SPEEDUP_GATE = 5.0


def _deep_sizeof(obj, seen: set) -> int:
    """Recursive ``sys.getsizeof`` over a record object graph.

    Counts every distinct Python object once (shared small ints and
    interned strings are deduplicated by id), descending through
    dataclasses (slots or not), containers and numpy arrays -- the
    measure behind the serving summary's per-pulse record-memory
    number, which tracks the ``__slots__`` savings on the high-volume
    record types.
    """
    oid = id(obj)
    if oid in seen:
        return 0
    seen.add(oid)
    size = sys.getsizeof(obj)
    if isinstance(obj, np.ndarray):
        return size
    if is_dataclass(obj) and not isinstance(obj, type):
        for field in fields(obj):
            size += _deep_sizeof(getattr(obj, field.name), seen)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for item in obj:
            size += _deep_sizeof(item, seen)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            size += _deep_sizeof(key, seen) + _deep_sizeof(value, seen)
    return size


def measure_record_memory(store: ShardedStore) -> float:
    """Mean deep size (bytes) of one parsed compressed record.

    Reads every record through the store's fast parse path and walks
    the resulting object graphs -- the in-memory footprint a resident
    compressed library costs per pulse (``CompressedWaveform`` down to
    its ``EncodedWindow`` coefficient tuples).
    """
    records = store.read_many(store.keys())
    seen: set = set()
    total = sum(_deep_sizeof(record, seen) for record in records)
    return total / max(1, len(records))


def _serve_trace(
    server: PulseServer,
    trace: Sequence[Tuple[str, Tuple[int, ...]]],
    batch_size: int,
) -> int:
    """Replay a trace through ``fetch_batch``; returns pulses served."""
    served = 0
    for start in range(0, len(trace), batch_size):
        served += len(server.fetch_batch(trace[start : start + batch_size]))
    return served


def _identity_ok(
    server: PulseServer,
    store: ShardedStore,
    reference: Dict[Tuple[str, Tuple[int, ...]], np.ndarray],
) -> bool:
    """Every pulse served batch-wise must match the scalar reference."""
    keys = store.keys()
    served = server.fetch_batch(keys)
    for key, waveform in zip(keys, served):
        if not np.array_equal(waveform.samples, reference[key]):
            return False
    return True


def _recalibrated(waveform: Waveform, rng: random.Random) -> Waveform:
    """A cheap, deterministic stand-in for a device recalibration."""
    samples = np.roll(waveform.samples, 1 + rng.randrange(5))
    samples = samples * (0.75 + 0.2 * rng.random())
    return Waveform(
        name=waveform.name,
        samples=samples,
        dt=waveform.dt,
        gate=waveform.gate,
        qubits=waveform.qubits,
    )


def _paused_commit_reads(
    server: PulseServer, rw_dir: pathlib.Path, rng: random.Random
) -> Tuple[int, bool]:
    """Readers-never-blocked, deterministically.

    Stage one update, start its commit on a thread, and *hold* it at
    ``writer.manifest.tmp_written`` -- the last instant before the
    atomic publish, with the staged shard and temp manifest already on
    disk.  While the commit is frozen there, a full catalog read (cache
    cleared, so every fetch goes to the store) must complete.  Returns
    ``(reads completed during the pause, completed without timing
    out)``; a reader blocked on the writer would leave the read thread
    alive at the join timeout.
    """
    writer = StoreWriter(rw_dir)
    keys = writer.store.keys()
    key = keys[rng.randrange(len(keys))]
    waveform = writer.store.decode_many([key])[0]
    compiler = CompaqtCompiler(
        window_size=writer.store.window_size, codec=writer.store.variant
    )
    writer.put(
        key[0], key[1],
        compiler.compile_waveform(_recalibrated(waveform, rng)),
    )

    reached = threading.Event()
    release = threading.Event()
    previous = set_preempt_hook(None)

    def hook(point: str) -> None:
        if previous is not None:
            previous(point)
        if point == "writer.manifest.tmp_written":
            reached.set()
            release.wait(timeout=30.0)

    set_preempt_hook(hook)
    commit_error: List[BaseException] = []

    def do_commit() -> None:
        try:
            writer.commit()
        except BaseException as exc:  # surfaced after the proof
            commit_error.append(exc)

    committer = threading.Thread(target=do_commit, name="bench-rw-commit")
    reads_done = [0]

    def read_storm() -> None:
        for read_key in keys:
            server.fetch(*read_key)
            reads_done[0] += 1

    try:
        committer.start()
        if not reached.wait(timeout=30.0):
            return 0, False
        server.cache.clear()
        reader = threading.Thread(target=read_storm, name="bench-rw-reads")
        reader.start()
        reader.join(timeout=30.0)
        blocked = reader.is_alive()
    finally:
        release.set()
        committer.join()
        set_preempt_hook(previous)
        writer.close()
    if commit_error:
        raise commit_error[0]
    return reads_done[0], not blocked and reads_done[0] == len(keys)


def _run_mixed_rw(
    compiled,
    device_name: str,
    tmp: str,
    n_shards: int,
    batch_size: int,
    seed: int,
    commits: int,
    reader_threads: int = 2,
) -> Dict:
    """One device's mixed read/write measurement (schema v3 ``mixed``).

    Reader threads fetch continuously (refreshing every few batches to
    adopt the writer's generations) while the main thread commits
    ``commits`` seeded recalibration batches.  Every served waveform is
    checked against the key's committed-version history; reader
    throughput under write load is the reported rate.
    """
    rw_dir = pathlib.Path(tmp) / f"{device_name}-rw.cqs"
    base = save_store(compiled, rw_dir, n_shards=n_shards)
    keys = base.keys()
    current = dict(zip(keys, base.decode_many(keys)))
    history_lock = threading.Lock()
    history = {
        key: [decompress_waveform(base.read_record(*key)).samples]
        for key in keys
    }
    base.close()

    compiler = CompaqtCompiler(
        window_size=compiled.window_size, codec=compiled.variant
    )
    rng = random.Random(seed ^ 0xB177E)
    stop = threading.Event()
    served = [0] * reader_threads
    mismatches = [0]
    refreshes = [0]

    with PulseServer(open_store(rw_dir), cache_capacity=len(keys)) as server:

        def reader(worker_id: int) -> None:
            local = random.Random((seed << 10) ^ worker_id)
            ops = 0
            while not stop.is_set():
                ops += 1
                if ops % 4 == 0:
                    if server.refresh():
                        refreshes[0] += 1
                batch = [
                    keys[local.randrange(len(keys))]
                    for _ in range(batch_size)
                ]
                waveforms = server.fetch_batch(batch)
                served[worker_id] += len(waveforms)
                for key, waveform in zip(batch, waveforms):
                    with history_lock:
                        committed = list(history[key])
                    if not any(
                        np.array_equal(waveform.samples, want)
                        for want in committed
                    ):
                        mismatches[0] += 1

        threads = [
            threading.Thread(target=reader, args=(i,), name=f"bench-rw-{i}")
            for i in range(reader_threads)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()

        writer = StoreWriter(rw_dir)
        try:
            for _ in range(commits):
                for _ in range(1 + rng.randrange(3)):
                    key = keys[rng.randrange(len(keys))]
                    result = compiler.compile_waveform(
                        _recalibrated(current[key], rng)
                    )
                    writer.put(key[0], key[1], result)
                    current[key] = result.reconstructed
                    # Record the candidate *before* the publish: a
                    # reader may adopt the new generation the instant
                    # the manifest lands, ahead of this thread.
                    with history_lock:
                        history[key].append(result.reconstructed.samples)
                writer.commit()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            writer.close()
        elapsed = time.perf_counter() - start
        server.refresh()
        generation = server.store.generation

        paused_reads, nonblocking = _paused_commit_reads(
            server, rw_dir, rng
        )

    return {
        "device": device_name,
        "n_shards": n_shards,
        "reader_threads": reader_threads,
        "commits": commits,
        "generation": generation,
        "refresh_adoptions": refreshes[0],
        "reads_served": sum(served),
        "mixed_pulses_per_s": sum(served) / elapsed if elapsed else 0.0,
        "identity_ok": mismatches[0] == 0,
        "reads_during_paused_commit": paused_reads,
        "readers_nonblocking_ok": bool(nonblocking),
    }


def run_serving_bench(
    device_specs: Sequence[str] = SERVING_QUICK_DEVICE_SPECS,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    n_requests: int = 2048,
    batch_size: int = 32,
    repeats: int = 3,
    warmup: int = 1,
    seed: int = 7,
    window_size: int = 16,
    variant: str = "int-DCT-W",
    mixed_commits: int = 4,
) -> Dict:
    """Run the serving benchmark; returns the JSON-serializable payload.

    One entry per ``device x shard count x cache fraction``.  The trace
    (Zipf over the device's keys, fixed seed) and the naive baseline
    are shared across a device's configs so speedups are comparable.
    ``mixed_commits`` sizes the per-device mixed read/write section
    (0 skips it, dropping the v3 gates).
    """
    if not device_specs:
        raise DeviceError("serving bench needs at least one device spec")
    if min(shard_counts, default=0) < 1:
        raise DeviceError(f"shard counts must be >= 1, got {tuple(shard_counts)}")
    if min(cache_fractions, default=0.0) <= 0:
        raise DeviceError(
            f"cache fractions must be > 0, got {tuple(cache_fractions)}"
        )
    if n_requests < 1 or batch_size < 1:
        raise DeviceError("n_requests and batch_size must be >= 1")

    entries: List[Dict] = []
    mixed_entries: List[Dict] = []
    for spec in device_specs:
        device = resolve_device(spec)
        library = device.pulse_library()
        compiled = CompaqtCompiler(
            window_size=window_size, codec=variant
        ).compile_library(library)
        n_pulses = len(compiled)
        with tempfile.TemporaryDirectory(prefix="cqs1-bench-") as tmp:
            stores = {
                n_shards: save_store(
                    compiled,
                    pathlib.Path(tmp) / f"{device.name}-{n_shards}.cqs",
                    n_shards=n_shards,
                )
                for n_shards in shard_counts
            }
            record_bytes = measure_record_memory(stores[shard_counts[0]])
            trace = synthetic_trace(stores[shard_counts[0]].keys(), n_requests, seed)
            reference = {
                key: decompress_waveform(
                    compiled.result(*key).compressed
                ).samples
                for key in stores[shard_counts[0]].keys()
            }

            # The naive baseline: per-request record read + scalar
            # decode, straight off the first store layout.
            naive_store = stores[shard_counts[0]]
            naive_stats, _ = time_callable(
                lambda: [
                    decompress_waveform(naive_store.read_record(*key))
                    for key in trace
                ],
                repeats,
                warmup,
            )
            naive_pps = naive_stats.throughput(len(trace))

            for n_shards in shard_counts:
                store = stores[n_shards]
                for fraction in cache_fractions:
                    cache_size = max(1, round(fraction * n_pulses))

                    # Cold: fresh server per repetition, best-of-N.
                    cold_samples = []
                    for _ in range(max(1, repeats)):
                        with PulseServer(
                            store, cache_capacity=cache_size
                        ) as cold_server:
                            start = time.perf_counter()
                            _serve_trace(cold_server, trace, batch_size)
                            cold_samples.append(time.perf_counter() - start)
                    cold_pps = len(trace) / min(cold_samples)

                    # Warm: one server, cache populated by a first
                    # pass, then timed replays.
                    with PulseServer(store, cache_capacity=cache_size) as server:
                        _serve_trace(server, trace, batch_size)
                        before = server.stats()["cache"]
                        warm_stats, _ = time_callable(
                            lambda: _serve_trace(server, trace, batch_size),
                            repeats,
                            warmup,
                        )
                        after = server.stats()["cache"]
                        warm_hits = after["hits"] - before["hits"]
                        warm_lookups = warm_hits + after["misses"] - before["misses"]
                        identity = _identity_ok(server, store, reference)
                    warm_pps = warm_stats.throughput(len(trace))

                    entries.append(
                        {
                            "device": device.name,
                            "spec": spec,
                            "variant": variant,
                            "window_size": window_size,
                            "n_pulses": n_pulses,
                            "n_requests": len(trace),
                            "batch_size": batch_size,
                            "n_shards": n_shards,
                            "cache_fraction": fraction,
                            "cache_size": cache_size,
                            "store_bytes": store.total_shard_bytes,
                            "record_bytes_per_pulse": record_bytes,
                            "naive_pulses_per_s": naive_pps,
                            "cold_pulses_per_s": cold_pps,
                            "warm_pulses_per_s": warm_pps,
                            "cold_speedup_vs_naive": cold_pps / naive_pps,
                            "warm_speedup_vs_naive": warm_pps / naive_pps,
                            "warm_hit_rate": (
                                warm_hits / warm_lookups if warm_lookups else 0.0
                            ),
                            "identity_ok": bool(identity),
                        }
                    )

            if mixed_commits:
                mixed_entries.append(
                    _run_mixed_rw(
                        compiled, device.name, tmp, shard_counts[0],
                        batch_size, seed, mixed_commits,
                    )
                )

    full_cache = [e for e in entries if e["cache_size"] >= e["n_pulses"]]
    warm_full = [e["warm_speedup_vs_naive"] for e in full_cache]
    warm_all = [e["warm_speedup_vs_naive"] for e in entries]
    summary = {
        "all_identity_ok": all(e["identity_ok"] for e in entries),
        "warm_speedup_full_cache_min": min(warm_full) if warm_full else None,
        "warm_speedup_full_cache_max": max(warm_full) if warm_full else None,
        "warm_speedup_gate": WARM_SPEEDUP_GATE,
        "warm_speedup_gate_ok": (
            min(warm_full) >= WARM_SPEEDUP_GATE if warm_full else False
        ),
        "min_warm_speedup": min(warm_all),
        "max_warm_speedup": max(warm_all),
        "record_bytes_per_pulse_mean": float(
            np.mean([e["record_bytes_per_pulse"] for e in entries])
        ),
        "n_entries": len(entries),
        "mixed_identity_ok": all(e["identity_ok"] for e in mixed_entries),
        "readers_nonblocking_ok": all(
            e["readers_nonblocking_ok"] for e in mixed_entries
        ),
    }
    return {
        "schema": SERVING_BENCH_SCHEMA,
        "version": __version__,
        "created_unix": time.time(),
        "config": {
            "devices": list(device_specs),
            "shard_counts": list(shard_counts),
            "cache_fractions": list(cache_fractions),
            "n_requests": n_requests,
            "batch_size": batch_size,
            "repeats": repeats,
            "warmup": warmup,
            "seed": seed,
            "window_size": window_size,
            "variant": variant,
            "mixed_commits": mixed_commits,
        },
        "entries": entries,
        "mixed": mixed_entries,
        "summary": summary,
    }


def render_serving_table(payload: Dict) -> str:
    """Render a serving-bench payload as the repo's standard table."""
    rows = []
    for e in payload["entries"]:
        rows.append(
            [
                e["device"],
                e["n_shards"],
                f"{e['cache_size']} ({e['cache_fraction']:.0%})",
                f"{e['naive_pulses_per_s']:.0f}",
                f"{e['cold_pulses_per_s']:.0f}",
                f"{e['warm_pulses_per_s']:.0f}",
                f"{e['warm_speedup_vs_naive']:.1f}x",
                f"{e['warm_hit_rate']:.0%}",
                "ok" if e["identity_ok"] else "MISMATCH",
            ]
        )
    summary = payload["summary"]
    notes = [
        f"identity {'ok' if summary['all_identity_ok'] else 'FAILED'}",
    ]
    if summary["warm_speedup_full_cache_min"] is not None:
        notes.append(
            "warm full-cache >= "
            f"{summary['warm_speedup_full_cache_min']:.1f}x naive "
            f"(gate {summary['warm_speedup_gate']:.0f}x: "
            f"{'ok' if summary['warm_speedup_gate_ok'] else 'FAILED'})"
        )
    if payload.get("mixed"):
        mixed_pps = min(e["mixed_pulses_per_s"] for e in payload["mixed"])
        notes.append(
            f"mixed r/w >= {mixed_pps:.0f} p/s, versioned identity "
            f"{'ok' if summary.get('mixed_identity_ok') else 'FAILED'}, "
            "readers non-blocking "
            f"{'ok' if summary.get('readers_nonblocking_ok') else 'FAILED'}"
        )
    return render_table(
        "Pulse serving: store + cache + server vs naive decode loop "
        f"(WS={payload['config']['window_size']}, "
        f"{payload['config']['variant']})",
        [
            "device",
            "shards",
            "cache",
            "naive p/s",
            "cold p/s",
            "warm p/s",
            "warm speedup",
            "warm hits",
            "identity",
        ],
        rows,
        note=", ".join(notes),
    )


def write_serving_json(
    payload: Dict, path: str = DEFAULT_SERVING_OUTPUT
) -> pathlib.Path:
    """Write the payload to disk; returns the resolved path."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(out, (json.dumps(payload, indent=2) + "\n").encode("ascii"))
    return out.resolve()


def serving_gates_ok(payload: Dict) -> Tuple[bool, List[str]]:
    """CI verdict: (ok, failure messages).  Identity is the hard gate.

    Payloads carrying the schema-v3 ``mixed`` section additionally gate
    on versioned identity under live writes and on the paused-commit
    readers-never-blocked proof.
    """
    failures: List[str] = []
    if not payload["summary"]["all_identity_ok"]:
        failures.append(
            "served waveforms are not bit-identical to decompress_channel"
        )
    if payload.get("mixed"):
        if not payload["summary"].get("mixed_identity_ok"):
            failures.append(
                "mixed r/w: a served waveform matched no committed version"
            )
        if not payload["summary"].get("readers_nonblocking_ok"):
            failures.append(
                "mixed r/w: reads did not complete while a commit was "
                "paused pre-publish"
            )
    return (not failures, failures)


# ---------------------------------------------------------------------------
# Soak mode: the chaos harness over the bench's device sweep.
# ---------------------------------------------------------------------------


def run_serving_soak(
    device_specs: Sequence[str] = SERVING_QUICK_DEVICE_SPECS,
    seed: int = 0,
    threads: int = 4,
    ops_per_thread: int = 150,
    net_clients: int = 3,
    n_shards: int = 4,
    fault_period: int = 7,
    trace_sample_rate: float = 0.0,
    write_commits: int = 12,
    store_dir=None,
) -> Dict:
    """Run the fault-injection soak over each bench device.

    Where :func:`run_serving_bench` measures the healthy stack's
    throughput, this runs the same store/cache/server/net stack under
    the seeded fault plan of :func:`repro.chaos.run_chaos` -- one run
    per device spec, including the commit-protocol write storm when
    ``write_commits > 0`` -- and returns a JSON-able payload whose
    ``all_ok`` is the CI gate (see :func:`soak_gates_ok`).
    """
    from repro.chaos import CHAOS_SCHEMA, FaultPlan, run_chaos

    if not device_specs:
        raise DeviceError("serving soak needs at least one device spec")
    reports = [
        run_chaos(
            device_spec=spec,
            seed=seed,
            threads=threads,
            ops_per_thread=ops_per_thread,
            net_clients=net_clients,
            n_shards=n_shards,
            plan=FaultPlan(seed=seed, period=fault_period),
            trace_sample_rate=trace_sample_rate,
            write_commits=write_commits,
            store_dir=store_dir,
        )
        for spec in device_specs
    ]
    return {
        "schema": CHAOS_SCHEMA,
        "version": __version__,
        "created_unix": time.time(),
        "config": {
            "devices": list(device_specs),
            "seed": seed,
            "threads": threads,
            "ops_per_thread": ops_per_thread,
            "net_clients": net_clients,
            "n_shards": n_shards,
            "fault_period": fault_period,
            "trace_sample_rate": trace_sample_rate,
            "write_commits": write_commits,
        },
        "entries": [report.as_dict() for report in reports],
        "all_ok": all(report.ok for report in reports),
    }


def render_soak_table(payload: Dict) -> str:
    """Render a soak payload as the repo's standard table."""
    rows = []
    for e in payload["entries"]:
        faults = e["faults_injected"]
        rows.append(
            [
                e["device"],
                e["requests_threaded"] + e["requests_net"],
                sum(faults.values()),
                "/".join(str(faults.get(k, 0)) for k in sorted(faults)) or "-",
                e["typed_errors"],
                e["overloads"],
                e["untyped_errors"],
                e["identity_checks"],
                e["recovery_reads"],
                "ok" if e["ok"] else f"{len(e['violations'])} VIOLATIONS",
            ]
        )
    return render_table(
        f"Chaos soak: seeded faults over the serving stack "
        f"(seed {payload['config']['seed']}, "
        f"period {payload['config']['fault_period']})",
        [
            "device",
            "requests",
            "faults",
            "by kind",
            "typed err",
            "shed",
            "untyped",
            "identity",
            "recovered",
            "verdict",
        ],
        rows,
        note="by kind: " + "/".join(
            sorted(
                {
                    k
                    for e in payload["entries"]
                    for k in e["faults_injected"]
                }
            )
        ),
    )


def soak_gates_ok(payload: Dict) -> Tuple[bool, List[str]]:
    """CI verdict for a soak payload: every run clean, every fault typed."""
    failures: List[str] = []
    for e in payload["entries"]:
        if e["violations"]:
            failures.append(
                f"{e['device']}: {len(e['violations'])} invariant "
                f"violation(s): {e['violations'][0]}"
            )
        if e["untyped_errors"]:
            failures.append(
                f"{e['device']}: {e['untyped_errors']} untyped exception(s) "
                "escaped the stack"
            )
    return (not failures, failures)
