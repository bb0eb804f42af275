"""One benchmark run: one workload, one seed, traced or not.

See ``perfbench/README.md`` for the workloads, the metric definitions
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import signal
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import PulseClient, compile_library, open_store, resolve_device, save_store
from repro.core import DriftModel
from repro.obs import Tracer
from repro.serve_net import protocol

from cqbench import config, metrics, spans as spanlib, stats
from cqbench.config import BATCH, WORKLOADS
from cqbench.control import BenchError, ServerProcess, WriterProcess
from cqbench.inputs import Key, batch_trace, poisson_offsets, popularity_order
from cqbench.load import Ledger, LoopResult, closed_loop, fetch_once, open_loop
from cqbench.oracle import Oracle, sweep
from cqbench.stamp import stamp

#: Longest a writer may take past its window: a compaction, the probe
#: checks and the hand-off file.
WRITER_GRACE_S = 120.0


def _encode_trace_id(args: tuple, kwargs: dict) -> int:
    trace = kwargs.get("trace")
    return trace[0] if trace else 0


class ClientTracing:
    """Client-side spans for the traced window (benchmark process)."""

    def __init__(self, clients: Sequence[PulseClient]) -> None:
        self.clients = clients
        self.recorder = spanlib.SpanRecorder()
        self.patches = spanlib.Patches()

    def fetchers(self) -> List:
        if not self.patches.active:
            return [c.fetch_batch for c in self.clients]
        root = self.recorder.wrapper("client.fetch_batch", items=spanlib.count_arg(0))
        return [root(c.fetch_batch) for c in self.clients]

    def set(self, on: bool) -> None:
        self.patches.restore()
        tracer = Tracer(sample_rate=1.0) if on else None
        for client in self.clients:
            client.tracer = tracer  # traced frames carry the CQN1 trace id
        if not on:
            return
        rec, wrap = self.recorder, self.patches.wrap
        wrap(protocol, "encode_fetch", rec.wrapper("client.encode_fetch", trace_id=_encode_trace_id))
        wrap(protocol, "decode_reply", rec.wrapper("client.decode_reply", items=spanlib.count_arg(0)))
        wrap(protocol, "decode_samples_item", rec.wrapper("client.decode_samples_item"))


def _set_up(
    root: pathlib.Path, work: pathlib.Path, library, cache_size: int, prewarm: bool
) -> Tuple[ServerProcess, pathlib.Path, Dict[str, List[float]]]:
    """Compile, write the store, start the server: ``SETUP_REPEATS`` times.

    Every repeat is complete; the last one is kept for the run and the
    others are stopped between repeats, off the clock.
    """
    timings: Dict[str, List[float]] = {
        name: []
        for name in (
            "setup_s",
            "compile.library_s",
            "setup.store_write_s",
            "setup.server_start_s",
            "setup.prewarm_s",
        )
    }
    server: Optional[ServerProcess] = None
    try:
        for repeat in range(config.SETUP_REPEATS):
            if server is not None:
                server.stop()
            path = work / f"setup{repeat}" / f"{config.DEVICE}.cqs"
            t0 = time.perf_counter()
            compiled = compile_library(
                library, window_size=config.WINDOW_SIZE, codec=config.CODEC
            )
            t1 = time.perf_counter()
            save_store(compiled, path, n_shards=config.N_SHARDS).close()
            t2 = time.perf_counter()
            server = ServerProcess(root, path, cache_size, prewarm)
            timings["setup_s"].append(server.ready - t0)
            timings["compile.library_s"].append(t1 - t0)
            timings["setup.store_write_s"].append(t2 - t1)
            timings["setup.server_start_s"].append(server.ready - t2 - server.prewarm_s)
            timings["setup.prewarm_s"].append(server.prewarm_s)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    assert server is not None
    return server, path, timings


def run(name: str, seed: int, seconds: float, traced: bool, root: pathlib.Path) -> Dict:
    workload = WORKLOADS[name]
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = root / ".perfbench" / f"work-{os.getpid()}"
    tag = f"{name}-seed{seed}-trace{int(traced)}"

    # Inputs, drawn before anything is timed; only the hot-key ranking
    # ignores the seed (see config.POPULARITY_SEED).
    library = resolve_device(config.DEVICE).pulse_library()
    originals = {(w.gate, tuple(w.qubits)): w for w in library}
    keys: List[Key] = list(originals)
    ranked = popularity_order(keys, config.POPULARITY_SEED)

    def trace(n: int, stream: int) -> List[List[Key]]:
        return batch_trace(ranked, n, BATCH, seed, stream, workload.zipf_s)

    warmups = [trace(workload.warmup_batches, 100 + i) for i in range(workload.connections)]
    cache_size = len(keys) // workload.cache_share if workload.cache_share > 1 else 0
    ledger = Ledger()
    oracle = Oracle()

    with contextlib.ExitStack() as cleanup:
        cleanup.callback(shutil.rmtree, work, True)
        server, store_path, setup = _set_up(
            root, work, library, cache_size, prewarm=workload.cache_share == 1
        )
        cleanup.callback(server.stop)
        with open_store(store_path) as store:
            records = {key: [store.read_record_bytes(*key)] for key in keys}
        readers = [
            PulseClient(server.address, timeout=config.CLIENT_TIMEOUT_S)
            for _ in range(workload.connections)
        ]
        for client in readers:
            cleanup.callback(client.close)
        tracing = ClientTracing(readers)
        cleanup.callback(tracing.set, False)

        # Spawned now so that its start-up overlaps the untimed warm-up.
        writer = WriterProcess(root, store_path, server, seed, work / "writer.pickle")
        cleanup.callback(writer.stop)

        warm_seen: Dict = {}
        for client, batches in zip(readers, warmups):
            for batch in batches:
                fetch_once(client.fetch_batch, batch, "warmup", ledger, warm_seen)
        writer.wait_ready()

        seen: Dict = {}

        def reads(duration: float, phase: int) -> LoopResult:
            fetchers = tracing.fetchers()
            if workload.read_rate:
                offsets = poisson_offsets(workload.read_rate, duration, seed, phase)
                batches = trace(len(offsets), phase * 10)
                return open_loop(fetchers[0], batches, offsets, ledger, seen)
            batches = [trace(config.TRACE_BATCHES, phase * 10 + i) for i in range(len(readers))]
            return closed_loop(fetchers, batches, duration, ledger, seen)

        # The writer's untimed warm-up steps run just before the window;
        # in recalibrate the writer then goes on beside the reads.
        if workload.writer_period_s:
            warmup_s = config.WRITER_WARMUP_STEPS * workload.writer_period_s
            writer.start(workload.writer_period_s, warmup_s + seconds, config.MAX_STEPS)
            time.sleep(warmup_s)
        else:
            writer.steps(config.WRITER_WARMUP_STEPS)
        if traced:
            # Untraced and traced rounds alternate (ABBA), so drift in
            # machine speed cancels out of the overhead ratio.
            order = [on for pair in range(config.TRACE_PAIRS)
                     for on in ((False, True) if pair % 2 == 0 else (True, False))]
        else:
            order = [False] * max(1, round(seconds / config.ROUND_S))
        round_s = seconds / len(order)
        # Registry deltas over the traced rounds, and over the whole run
        # from the first read on (the writer's invalidations).
        window_counters = metrics.CounterDelta()
        run_counters = metrics.CounterDelta()
        run_start_snapshot = readers[0].metrics()
        run_start = time.perf_counter()
        rounds: List[LoopResult] = []
        traced_result = LoopResult() if traced else None
        traced_intervals: List[Tuple[float, float]] = []
        for phase, on in enumerate(order):
            if not on:
                rounds.append(reads(round_s, phase))
            else:
                server.call("trace", on=True)
                tracing.set(True)
                before = readers[0].metrics()
                start = time.perf_counter()
                traced_result.extend(reads(round_s, phase))
                traced_intervals.append((start, time.perf_counter()))
                window_counters.add(before, readers[0].metrics())
                server.call("trace", on=False)
                tracing.set(False)
            if not workload.writer_period_s:
                if traced:
                    server.call("trace", on=True)  # adoption spans (store.open)
                writer.steps(config.STEPS_PER_ROUND)
                if traced:
                    server.call("trace", on=False)
        done = writer.finish(WRITER_GRACE_S)
        run_counters.add(run_start_snapshot, readers[0].metrics())
        ledger.merge(done["attempted"], done["failed"])
        all_steps = done["steps"]
        steps = all_steps[config.WRITER_WARMUP_STEPS :]
        for step in all_steps:
            for key, record in step.committed.items():
                records[key].append(record)

        # Every distinct key served in the window against the oracle: any
        # version of it that was committed during the run.
        bad = oracle.mismatches(seen, records)
        if bad:
            ledger.fail("fetch", "mismatch", len(bad))

        server_spans: List = []
        if traced:
            handoff = work / "server-spans.json"
            server.call("spans", path=str(handoff))
            server_spans = spanlib.load(str(handoff))["server"]
            spanlib.dump(
                str(results_dir / f"{name}-trace-spans.json.gz"),
                client=tracing.recorder.spans,
                server=server_spans,
            )

        model = DriftModel(seed=seed)
        sources = dict(originals)
        for step in all_steps:
            for key in step.keys:
                sources[key] = model.drifted(originals[key], step.number)
        with open_store(store_path) as final:
            stored = {key: final.read_record_bytes(*key) for key in keys}
            lengths = [final.record_info(*key).length for key in keys]
        swept = sweep(readers[0].fetch_batch, keys, stored, sources, oracle, BATCH, ledger)
        rss_kib = server.call("rss")["vm_hwm_kib"]
        store_stamp = stamp(root, store_path.parent, seed)

    data = metrics.RunData(
        setup=setup,
        rounds=rounds,
        steps=steps,
        compactions=done["compactions"],
        server_refreshes=done["server_refreshes"],
        rss_kib=rss_kib,
        raw_bytes=sum(w.n_samples for w in library) * 4,
        record_lengths=lengths,
        served_mse=swept.mean_mse,
        window_counters=window_counters,
        run_counters=run_counters,
        run_commits=sum(1 for step in all_steps if step.started >= run_start),
        traced=traced_result,
        traced_intervals=traced_intervals,
        client_spans=tracing.recorder.spans,
        server_spans=server_spans,
    )
    try:
        e2e = metrics.end_to_end(data)
    except ValueError:
        raise BenchError(
            f"nothing to time: {ledger.as_dict()}"
        ) from None
    layers = metrics.per_layer(data) if traced else {}
    correct = (
        ledger.failures("mismatch") == 0
        and swept.checked == len(keys)
        and len(seen) > 0
        and len(steps) > 0
    )
    table = metrics.PER_LAYER if traced else metrics.END_TO_END
    units = {row[0]: row[1] for row in table}
    selected = layers if traced else e2e
    report = {
        "workload": name,
        "why": workload.why,
        "seconds": seconds,
        "traced": traced,
        "stamp": store_stamp,
        "requests": len(data.window.latencies),
        # Samples beyond each reported tail percentile (fetch: per round).
        "tail_samples": {
            "fetch_p90": [stats.tail_count(len(r.latencies), 90) for r in rounds],
            "commit_p90": stats.tail_count(len(metrics.samples(data)["commit"]), 90),
            "recal_p90": stats.tail_count(len(metrics.samples(data)["recal"]), 90),
        },
        "rounds": metrics.round_table(rounds),
        "window_pulses": data.window.pulses,
        "recal_steps": len(steps),
        "writer_steps": {
            "fields": ["number", "late_s", "compile_s", "put_s", "commit_s", "adopt_s",
                       "server_refresh_s", "recal_s", "commit_bytes", "shard_files"],
            "rows": [
                [s.number, s.late_s, s.compile_s, s.put_s, s.commit_s, s.adopt_s,
                 s.server_refresh_s, s.recal_s, s.commit_bytes, s.shard_files]
                for s in steps
            ],
            "compactions_s": done["compactions"],
        },
        "mismatched_keys": [list(k) for k in list(bad) + swept.mismatched],
        "ledger": ledger.as_dict(),
        "end_to_end": e2e,
        "per_layer": layers,
        "result": {
            "correct": correct,
            "attempted": ledger.total_attempted,
            "failed": ledger.total_failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in selected.items()},
        },
    }
    if traced:
        # Client encode + wait + decode should cover the client-observed
        # fetch time up to what tracing itself costs.
        unaccounted = 1.0 - layers["client.accounted_share"]
        report["accounting"] = {
            "unaccounted_share": unaccounted,
            "tracing_cost_share": 1.0 - layers["trace.overhead_x"],
            "within_overhead": unaccounted <= max(0.0, 1.0 - layers["trace.overhead_x"]),
        }
        report["self_time"] = {
            "client": metrics.span_summary(tracing.recorder.spans),
            "server": metrics.span_summary(server_spans),
        }
    with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return report


def main(argv: Optional[Sequence[str]] = None, root: Optional[pathlib.Path] = None) -> int:
    parser = argparse.ArgumentParser(description="COMPAQT pulse-serving benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = root or pathlib.Path.cwd()
    # A terminated run still stops its children and removes its store.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = report["result"]
    print(
        f"{report['workload']} seed={args.seed} trace={args.trace} "
        f"requests={report['requests']} recal_steps={report['recal_steps']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0
