"""Observability quickstart: metrics, traces, and a live scrape endpoint.

Serve a compiled store over CQN1 with tracing at full sampling, drive a
short load run, then read the telemetry back three ways: the merged
metrics registry over the wire (``PulseClient.metrics()``), the
Prometheus text exposition over plain HTTP (what ``repro serve-net
--metrics-port`` exposes), and the bounded ring of recent request
traces rendered as span trees (``PulseClient.traces()`` /
``repro traces HOST:PORT``).

Run:  python examples/observability_quickstart.py
"""

import tempfile
import urllib.request
from pathlib import Path

from repro.analysis import print_table
from repro.api import (
    PulseClient,
    PulseServer,
    compile_library,
    save_store,
    serve_in_thread,
    synthetic_trace,
)
from repro.obs import (
    Tracer,
    format_trace_tree,
    merge_trace_spans,
    start_metrics_server,
)
from repro.serve_net import run_closed_loop


def main() -> None:
    compiled = compile_library("bogota", window_size=16, codec="int-DCT-W")
    with tempfile.TemporaryDirectory() as tmp:
        store = save_store(compiled, Path(tmp) / "bogota.cqs", n_shards=2)

        # trace_sample_rate=1.0 traces every request -- fine for a demo
        # or an incident; production wants the default 1% (see the
        # README's overhead guidance).  CLI twin:
        # `repro serve-net bogota.cqs --trace-sample-rate 1.0`.
        with PulseServer(store, cache_capacity=len(store)) as serving:
            with serve_in_thread(serving, trace_sample_rate=1.0) as handle:
                host, port = handle.address

                # A traced client stitches its half of each request
                # onto the server's spans via the FETCH_TRACED frame.
                client_tracer = Tracer(sample_rate=1.0)
                with PulseClient(host, port, tracer=client_tracer) as client:
                    # One cold traced fetch: the client and server halves
                    # share a trace id, so their spans stitch into one
                    # tree (client.fetch -> server.admission -> fill).
                    client.fetch(*client.keys()[0])
                    client_half = client_tracer.recent(limit=1)[0]
                    server_half = next(
                        t
                        for t in client.traces(limit=8)
                        if t["trace_id"] == client_half["trace_id"]
                    )
                    stitched = {
                        "trace_id": client_half["trace_id"],
                        "spans": merge_trace_spans(client_half, server_half),
                    }
                    print(format_trace_tree(stitched))

                    trace = synthetic_trace(store.keys(), n_requests=200, seed=5)
                    report = run_closed_loop(
                        (host, port), trace, batch_size=16, connections=2
                    )

                    # 1. The merged registry over the wire.
                    snapshot = client.metrics()
                    counters = snapshot["counters"]
                    print_table(
                        "registry counters (over CQN1)",
                        ["net.fetches", "cache.hits", "cache.misses", "server.requests"],
                        [[
                            counters.get("net.fetches", 0),
                            counters.get("cache.hits", 0),
                            counters.get("cache.misses", 0),
                            counters.get("server.requests", 0),
                        ]],
                    )
                    latency = snapshot["histograms"]["net.request_seconds"]
                    print(
                        f"server latency histogram: {latency['count']} requests, "
                        f"min {latency['min'] * 1e3:.2f} ms, "
                        f"max {latency['max'] * 1e3:.2f} ms"
                    )

                    # 2. The Prometheus endpoint (what --metrics-port runs).
                    with start_metrics_server(
                        handle.server.metrics_snapshot, host="127.0.0.1", port=0
                    ) as http:
                        http_host, http_port = http.address
                        url = f"http://{http_host}:{http_port}/metrics"
                        with urllib.request.urlopen(url, timeout=5) as response:
                            text = response.read().decode("utf-8")
                        series = [
                            line
                            for line in text.splitlines()
                            if line and not line.startswith("#")
                        ]
                        print(f"scraped {url}: {len(series)} series, e.g.")
                        for line in series[:4]:
                            print(f"  {line}")

                    # 3. The server's ring of recent traces, newest last
                    # (`repro traces HOST:PORT` renders the same view).
                    for trace_dict in client.traces(limit=1):
                        print()
                        print(format_trace_tree(trace_dict))

                print(
                    f"\nload run: {report.requests_ok} requests ok, "
                    f"{report.pulses_per_s:,.0f} pulses/s, "
                    f"p99 {report.latency_ms['p99']:.2f} ms"
                )


if __name__ == "__main__":
    main()
