"""The benchmark's server process, built the way ``repro serve-net`` builds it.

Run as ``python -m cqbench.serverhost STORE [--cache-size N] [--prewarm]``
with ``src`` and ``perfbench`` on ``PYTHONPATH``.  The stack is
``open_store`` -> ``PulseServer`` (4 fill threads, no decode pool) ->
``NetPulseServer`` (at most 32 fetches in flight, default trace
sampling), prewarmed before it listens when asked -- the ``serve-net``
defaults.  ``serve-net`` never calls ``PulseServer.refresh()``, so this
host adds a control port (TCP on loopback) through which the writer
tells it when a commit landed and the benchmark starts and collects
traces.  One JSON object per line each way; every reply carries
``"ok"``::

    {"op": "refresh"}            adopt the newest commit (PulseServer.refresh)
    {"op": "trace", "on": true}  start (false: stop) recording spans
    {"op": "spans", "path": P}   write the recorded spans to file P
    {"op": "rss"}                peak resident set size (VmHWM) of this process

The one line the host prints on stdout is its ready reply, with the
CQN1 port and the control port.  EOF on stdin drains the server and
ends the process.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import socket
import sys
import threading
import time
from typing import Dict, Optional, Sequence

from repro.obs import trace as obs_trace
from repro.serve_net import NetPulseServer, protocol
from repro.store import PulseServer, ShardedStore, open_store

from cqbench.spans import Patches, SpanRecorder, count_arg, dump

#: ``repro serve-net`` defaults: ``--fill-threads`` and ``--max-inflight``.
FILL_THREADS = 4
MAX_INFLIGHT = 32


def _peak_rss_kib() -> int:
    """``VmHWM`` of this process.

    Not ``getrusage``'s ``ru_maxrss``: Linux carries that over from the
    parent across ``fork``/``exec``, so it would report the benchmark's
    own footprint.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _wire_trace_id(args: tuple, kwargs: dict) -> int:
    """The CQN1 trace id of the request being served, if it carries one."""
    span = obs_trace.current_span()
    return span.trace_id if span is not None else 0


class _Host:
    def __init__(self, serving: PulseServer) -> None:
        self.serving = serving
        self.recorder = SpanRecorder()
        self.patches = Patches()
        # Control connections may toggle tracing concurrently.
        self._lock = threading.Lock()

    def serve_control(self, listener: socket.socket) -> None:
        """Accept control connections; one thread answers each."""
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed at shutdown
            threading.Thread(
                target=self._answer, args=(conn,), name="perfbench-control", daemon=True
            ).start()

    def _answer(self, conn: socket.socket) -> None:
        with conn, conn.makefile("r", encoding="utf-8") as lines:
            for line in lines:
                try:
                    reply = {"ok": True, **self.handle(json.loads(line))}
                except Exception as exc:  # keep answering; the caller decides
                    reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                try:
                    conn.sendall((json.dumps(reply) + "\n").encode("utf-8"))
                except OSError:
                    return

    def handle(self, command: Dict) -> Dict:
        op = command["op"]
        if op == "refresh":
            start = time.perf_counter()
            adopted = self.serving.refresh()
            return {
                "adopted": adopted,
                "generation": self.serving.store.generation,
                "seconds": time.perf_counter() - start,
            }
        if op == "trace":
            with self._lock:
                self.set_tracing(bool(command["on"]))
            return {}
        if op == "spans":
            return {"spans": dump(command["path"], server=self.recorder.spans)}
        if op == "rss":
            return {"vm_hwm_kib": _peak_rss_kib()}
        raise ValueError(f"unknown op {op!r}")

    def set_tracing(self, on: bool) -> None:
        self.patches.restore()
        if not on:
            return
        rec, wrap, serving = self.recorder, self.patches.wrap, self.serving
        wrap(serving, "fetch_batch", rec.wrapper(
            "serving.fetch_batch", items=count_arg(0), trace_id=_wire_trace_id))
        wrap(serving, "refresh", rec.wrapper("serving.refresh"))
        wrap(serving.cache, "lookup", rec.wrapper("cache.lookup"))
        wrap(serving.cache, "load_many", rec.wrapper("cache.load_many", items=count_arg(0)))
        # Class-level: the server swaps in a new store object on refresh.
        wrap(ShardedStore, "decode_many", rec.wrapper("store.decode_many", items=count_arg(1)))
        wrap(ShardedStore, "open", rec.wrapper("store.open"))
        wrap(protocol, "encode_samples_item", rec.wrapper(
            "net.encode_samples_item", trace_id=_wire_trace_id))
        wrap(protocol, "encode_reply_fetch", rec.wrapper(
            "net.encode_reply_fetch", items=count_arg(1), trace_id=_wire_trace_id))


def _wait_for_eof(loop: asyncio.AbstractEventLoop, stop: asyncio.Event) -> None:
    sys.stdin.read()
    try:
        loop.call_soon_threadsafe(stop.set)
    except RuntimeError:
        pass  # the loop already ended


async def _serve(store: ShardedStore, cache_size: int, prewarm: bool, open_s: float) -> None:
    with PulseServer(store, cache_capacity=cache_size, max_workers=FILL_THREADS) as serving:
        prewarm_s = 0.0
        if prewarm:
            start = time.perf_counter()
            serving.cache.prewarm()
            prewarm_s = time.perf_counter() - start
        server = NetPulseServer(serving, port=0, max_inflight=MAX_INFLIGHT)
        await server.start()
        host = _Host(serving)
        listener = socket.create_server(("127.0.0.1", 0))
        stop = asyncio.Event()
        for target, args in (
            (host.serve_control, (listener,)),
            (_wait_for_eof, (asyncio.get_running_loop(), stop)),
        ):
            threading.Thread(target=target, args=args, daemon=True).start()
        print(
            json.dumps(
                {
                    "ok": True,
                    "pid": os.getpid(),
                    "port": server.address[1],
                    "control_port": listener.getsockname()[1],
                    "open_s": open_s,
                    "prewarm_s": prewarm_s,
                }
            ),
            flush=True,
        )
        try:
            await stop.wait()
        finally:
            listener.close()
            await server.aclose()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store")
    parser.add_argument(
        "--cache-size", type=int, default=0, help="0 = the whole library"
    )
    parser.add_argument("--prewarm", action="store_true")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    store = open_store(args.store)
    open_s = time.perf_counter() - start
    asyncio.run(
        _serve(store, args.cache_size or len(store.keys()), args.prewarm, open_s)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
