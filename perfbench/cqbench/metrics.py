"""The metric tables and the arithmetic that fills them.

``END_TO_END`` is what a controller sees; ``PER_LAYER`` says where the
time goes.  Both tables must agree with ``BENCHMARK.json`` (a test
checks it).  The layer each per-layer metric belongs to is the fourth
field; which end-to-end metric it should move is in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from cqbench import stats
from cqbench.load import LoopResult
from cqbench.spans import Span, children_by_parent, self_time

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "CounterDelta",
    "RunData",
    "round_table",
    "samples",
    "end_to_end",
    "per_layer",
    "span_summary",
]

#: (name, unit, better, bound)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("pulses_per_s", "pulses/s", "higher", 0.25),
    ("fetch_p50_ms", "ms", "lower", 0.25),
    ("fetch_p90_ms", "ms", "lower", 0.25),
    ("server_rss_mb", "MiB", "lower", 0.1),
    ("compression_ratio", "x", "higher", 0.02),
    ("served_mse", "-", "lower", 0.2),
    ("commit_p50_ms", "ms", "lower", 0.25),
    ("recal_p50_ms", "ms", "lower", 0.25),
)

#: (name, unit, better, layer)
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("client.encode_us_per_req", "us", "lower", "serve_net.client"),
    ("client.decode_us_per_pulse", "us", "lower", "serve_net.client"),
    ("client.wait_ms_per_req", "ms", "lower", "serve_net.client"),
    ("client.reply_bytes_per_pulse", "B", "lower", "serve_net.client"),
    ("client.accounted_share", "ratio", "higher", "serve_net.client"),
    ("net.request_ms_per_req", "ms", "lower", "serve_net.server"),
    ("net.transport_ms_per_req", "ms", "lower", "serve_net.server"),
    ("net.self_us_per_req", "us", "lower", "serve_net.server"),
    ("net.reply_encode_us_per_pulse", "us", "lower", "serve_net.server"),
    ("net.overloads", "count", "lower", "serve_net.server"),
    ("net.coalesced_keys", "count", "higher", "serve_net.server"),
    ("serving.fetch_batch_us_per_pulse", "us", "lower", "store.server"),
    ("serving.fills_per_batch", "count", "lower", "store.server"),
    ("serving.coalesced_fills", "count", "higher", "store.server"),
    ("serving.fill_ms_per_fill", "ms", "lower", "store.server"),
    ("serving.refresh_ms", "ms", "lower", "store.server"),
    ("cache.hit_rate", "ratio", "higher", "store.cache"),
    ("cache.lookup_us_per_key", "us", "lower", "store.cache"),
    ("cache.evictions_per_insert", "ratio", "lower", "store.cache"),
    ("cache.invalidations_per_commit", "count", "lower", "store.cache"),
    ("store.decode_us_per_pulse", "us", "lower", "store.sharded"),
    ("store.pulses_per_decode_batch", "count", "higher", "store.sharded"),
    ("store.mmap_opens", "count", "lower", "store.sharded"),
    ("store.open_ms", "ms", "lower", "store.sharded"),
    ("store.record_bytes_per_pulse", "B", "lower", "store.sharded"),
    ("writer.put_us_per_pulse", "us", "lower", "store.writable"),
    ("writer.bytes_per_commit", "B", "lower", "store.writable"),
    ("writer.shard_files", "count", "lower", "store.writable"),
    ("writer.compact_ms", "ms", "lower", "store.writable"),
    ("writer.commit_p90_ms", "ms", "lower", "store.writable"),
    ("writer.recal_p90_ms", "ms", "lower", "store.writable"),
    ("compile.library_s", "s", "lower", "core.compiler"),
    ("compile.waveform_ms_per_pulse", "ms", "lower", "core.compiler"),
    ("setup.store_write_s", "s", "lower", "set-up"),
    ("setup.server_start_s", "s", "lower", "set-up"),
    ("setup.prewarm_s", "s", "lower", "set-up"),
    ("gen.late_ms_p99", "ms", "lower", "load generator"),
    ("trace.overhead_x", "x", "higher", "tracing"),
)

Snapshot = Mapping[str, Mapping[str, object]]


class CounterDelta:
    """Registry counter and histogram (count, sum) deltas, summed over windows.

    Fed with ``PulseClient.metrics()`` snapshots taken before and after
    each measured window.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}

    def add(self, before: Snapshot, after: Snapshot) -> None:
        old = before.get("counters", {})
        for name, value in after.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0.0) + value - old.get(name, 0)
        old_h = before.get("histograms", {})
        for name, hist in after.get("histograms", {}).items():
            prev = old_h.get(name, {"count": 0, "sum": 0.0})
            acc = self.histograms.setdefault(name, [0.0, 0.0])
            acc[0] += hist["count"] - prev["count"]
            acc[1] += hist["sum"] - prev["sum"]

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def histogram(self, name: str) -> Tuple[float, float]:
        """(count, sum) of a registry histogram."""
        count, total = self.histograms.get(name, (0.0, 0.0))
        return count, total


@dataclass
class RunData:
    """Everything one run measured, as the metric arithmetic needs it."""

    setup: Dict[str, List[float]]
    #: The untraced read rounds, in order.
    rounds: Sequence[LoopResult]
    steps: Sequence  # measured cqbench.recal.Step records
    compactions: Sequence[float]
    server_refreshes: Sequence[float]
    rss_kib: int
    raw_bytes: int
    record_lengths: Sequence[int]
    served_mse: float
    #: Registry deltas over the (traced) read windows.
    window_counters: CounterDelta = field(default_factory=CounterDelta)
    #: Registry deltas from the first read to after the last write.
    run_counters: CounterDelta = field(default_factory=CounterDelta)
    #: Commits made in the span ``run_counters`` covers.
    run_commits: int = 0
    # Traced runs only.
    traced: Optional[LoopResult] = None
    traced_intervals: Sequence[Tuple[float, float]] = ()
    client_spans: Sequence[Span] = ()
    server_spans: Sequence[Span] = ()

    @property
    def window(self) -> LoopResult:
        """The untraced rounds pooled into one."""
        pooled = LoopResult()
        for result in self.rounds:
            pooled.extend(result)
        return pooled


def _ms(seconds: float) -> float:
    return seconds * 1e3


def round_table(rounds: Sequence[LoopResult]) -> List[Dict[str, float]]:
    """Throughput and fetch percentiles of each round that served a fetch."""
    return [
        {
            "requests": len(r.latencies),
            "pulses_per_s": r.pulses_per_s,
            "p50_ms": _ms(stats.percentile(r.latencies, 50)),
            "p90_ms": _ms(stats.percentile(r.latencies, 90)),
            "p99_ms": _ms(stats.percentile(r.latencies, 99)),
        }
        for r in rounds
        if r.latencies
    ]


def samples(data: RunData) -> Dict[str, List[float]]:
    """The writer-step samples behind each step percentile, in seconds."""
    return {
        "commit": [s.commit_s for s in data.steps],
        "recal": [s.recal_s for s in data.steps if s.recal_s is not None],
    }


def end_to_end(data: RunData) -> Dict[str, float]:
    """Raises ``ValueError`` when a run has no successful fetch or step.

    Throughput and fetch percentiles are medians over the rounds (see
    ``config.ROUND_S``); commit and recalibration percentiles are taken
    over all measured writer steps.
    """
    timed = samples(data)
    commits, recals = timed["commit"], timed["recal"]
    per_round = round_table(data.rounds)

    def over_rounds(column: str) -> float:
        return stats.median([row[column] for row in per_round])

    return {
        "setup_s": stats.median(data.setup["setup_s"]),
        "pulses_per_s": over_rounds("pulses_per_s"),
        "fetch_p50_ms": over_rounds("p50_ms"),
        "fetch_p90_ms": over_rounds("p90_ms"),
        "server_rss_mb": data.rss_kib / 1024.0,
        "compression_ratio": data.raw_bytes / sum(data.record_lengths),
        "served_mse": data.served_mse,
        "commit_p50_ms": _ms(stats.percentile(commits, 50)),
        "recal_p50_ms": _ms(stats.percentile(recals, 50)),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _duration(span: Span) -> float:
    return span[5] - span[4]


def _client_side(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-request client costs from ``client.fetch_batch`` roots.

    Wait is the gap between the end of ``encode_fetch`` and the start of
    ``decode_reply``: the send, the server and both socket hops.
    """
    kids = children_by_parent(spans)
    n = pulses = 0
    encode = decode = wait = reply_bytes = fetch = 0.0
    for root in spans:
        if root[3] != "client.fetch_batch":
            continue
        children = kids.get(root[0], [])
        enc = [c for c in children if c[3] == "client.encode_fetch"]
        rep = [c for c in children if c[3] == "client.decode_reply"]
        if len(enc) != 1 or len(rep) != 1:
            continue  # failed request: no reply to decode
        items = [c for c in children if c[3] == "client.decode_samples_item"]
        n += 1
        pulses += len(items)
        encode += _duration(enc[0])
        decode += _duration(rep[0]) + sum(_duration(c) for c in items)
        wait += rep[0][4] - enc[0][5]
        reply_bytes += rep[0][6]
        fetch += _duration(root)
    return {
        "requests": n,
        "pulses": pulses,
        "encode_s": encode,
        "decode_s": decode,
        "wait_s": wait,
        "reply_bytes": reply_bytes,
        "fetch_s": fetch,
    }


def _totals(
    spans: Sequence[Span], intervals: Optional[Sequence[Tuple[float, float]]] = None
) -> Dict[str, Tuple[int, int, float]]:
    """name -> (calls, items, seconds), over spans that started inside
    one of ``intervals`` (all spans when ``None``)."""
    out: Dict[str, Tuple[int, int, float]] = {}
    for span in spans:
        if intervals is None or any(lo <= span[4] <= hi for lo, hi in intervals):
            calls, items, seconds = out.get(span[3], (0, 0, 0.0))
            out[span[3]] = (calls + 1, items + span[6], seconds + _duration(span))
    return out


def per_layer(data: RunData) -> Dict[str, float]:
    w, run = data.window_counters, data.run_counters
    client = _client_side(data.client_spans)
    server = _totals(data.server_spans, data.traced_intervals)
    everywhere = _totals(data.server_spans)

    def total(name: str) -> Tuple[int, int, float]:
        return server.get(name, (0, 0, 0.0))

    n_req = client["requests"]
    fetches = w.counter("net.fetches")
    req_count, req_sum = w.histogram("net.request_seconds")
    fill_count, fill_sum = w.histogram("server.fill_seconds")
    _, fb_items, fb_s = total("serving.fetch_batch")
    lookups, _, lookup_s = total("cache.lookup")
    _, decoded, decode_s = total("store.decode_many")
    encode_s = total("net.encode_samples_item")[2] + total("net.encode_reply_fetch")[2]
    hits, misses = w.counter("cache.hits"), w.counter("cache.misses")
    opens, _, open_s = everywhere.get("store.open", (0, 0, 0.0))
    steps = data.steps
    put_pulses = sum(len(s.keys) for s in steps)
    wait_ms = _ms(_ratio(client["wait_s"], n_req))
    request_ms = _ms(_ratio(req_sum, req_count))
    late = data.window.late if data.window.late else [0.0]
    return {
        "client.encode_us_per_req": 1e6 * _ratio(client["encode_s"], n_req),
        "client.decode_us_per_pulse": 1e6 * _ratio(client["decode_s"], client["pulses"]),
        "client.wait_ms_per_req": wait_ms,
        "client.reply_bytes_per_pulse": _ratio(client["reply_bytes"], client["pulses"]),
        "client.accounted_share": _ratio(
            client["encode_s"] + client["wait_s"] + client["decode_s"], client["fetch_s"]
        ),
        "net.request_ms_per_req": request_ms,
        "net.transport_ms_per_req": wait_ms - request_ms,
        "net.self_us_per_req": 1e6 * _ratio(req_sum - fb_s - encode_s, fetches),
        "net.reply_encode_us_per_pulse": 1e6 * _ratio(encode_s, w.counter("net.pulses_served")),
        "net.overloads": w.counter("net.overloads"),
        "net.coalesced_keys": w.counter("net.coalesced_keys"),
        "serving.fetch_batch_us_per_pulse": 1e6 * _ratio(fb_s, fb_items),
        "serving.fills_per_batch": _ratio(
            w.counter("server.shard_fills"), w.counter("server.batches")
        ),
        "serving.coalesced_fills": w.counter("server.coalesced_fills"),
        "serving.fill_ms_per_fill": _ms(_ratio(fill_sum, fill_count)),
        "serving.refresh_ms": _ms(stats.median(data.server_refreshes))
        if data.server_refreshes
        else 0.0,
        "cache.hit_rate": _ratio(hits, hits + misses),
        "cache.lookup_us_per_key": 1e6 * _ratio(lookup_s, lookups),
        "cache.evictions_per_insert": _ratio(
            w.counter("cache.evictions"), w.counter("cache.insertions")
        ),
        "cache.invalidations_per_commit": _ratio(
            run.counter("cache.invalidations"), data.run_commits
        ),
        "store.decode_us_per_pulse": 1e6 * _ratio(decode_s, decoded),
        "store.pulses_per_decode_batch": _ratio(
            w.counter("store.decode_pulses"), w.counter("store.decode_batches")
        ),
        "store.mmap_opens": w.counter("store.mmap_opens") + w.counter("store.mmap_reopens"),
        "store.open_ms": _ms(_ratio(open_s, opens)),
        "store.record_bytes_per_pulse": stats.mean(data.record_lengths),
        "writer.put_us_per_pulse": 1e6 * _ratio(sum(s.put_s for s in steps), put_pulses),
        "writer.bytes_per_commit": stats.mean([s.commit_bytes for s in steps]),
        "writer.shard_files": stats.mean([s.shard_files for s in steps]),
        "writer.compact_ms": _ms(stats.median(data.compactions))
        if data.compactions
        else 0.0,
        "writer.commit_p90_ms": _ms(stats.percentile(samples(data)["commit"], 90)),
        "writer.recal_p90_ms": _ms(stats.percentile(samples(data)["recal"], 90)),
        "compile.library_s": stats.median(data.setup["compile.library_s"]),
        "compile.waveform_ms_per_pulse": _ms(
            _ratio(sum(s.compile_s for s in steps), put_pulses)
        ),
        "setup.store_write_s": stats.median(data.setup["setup.store_write_s"]),
        "setup.server_start_s": stats.median(data.setup["setup.server_start_s"]),
        "setup.prewarm_s": stats.median(data.setup["setup.prewarm_s"]),
        "gen.late_ms_p99": _ms(stats.percentile(late, 99)),
        "trace.overhead_x": _ratio(
            data.traced.pulses_per_s if data.traced else 0.0, data.window.pulses_per_s
        ),
    }


def span_summary(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, items, total and self milliseconds."""
    kids = children_by_parent(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span[3], {"calls": 0, "items": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["items"] += span[6]
        row["total_ms"] += _ms(_duration(span))
        row["self_ms"] += _ms(self_time(span, kids.get(span[0], [])))
    return out
