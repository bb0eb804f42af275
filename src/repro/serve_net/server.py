"""The asyncio ``CQN1`` front end over an in-process pulse server.

:class:`NetPulseServer` is the network half of the serving tier: it
owns a listening socket, speaks the length-prefixed protocol of
:mod:`repro.serve_net.protocol`, and forwards pulse fetches to a
thread-safe :class:`~repro.store.PulseServer`.  Two policies make it
a serving tier rather than a socket wrapper:

* **Bounded admission control.**  At most ``max_inflight`` fetch
  requests are in flight at once; a request arriving past that bound
  gets an immediate ``STATUS_OVERLOAD`` reply (counted in
  ``overloads``).  Load past capacity is shed explicitly -- the server
  never grows an unbounded queue, and clients see backpressure they
  can act on.

* **Graceful drain.**  :meth:`aclose` stops accepting connections,
  answers new fetches with overload, waits for in-flight requests to
  finish (bounded by ``drain_timeout``), then closes every connection
  and the fetch executor.

A fetch is one executor hop into the serving layer plus the reply
encode.  The fetch's misses are decoded on that executor thread, in
one fused fill.  Concurrent fetches of the same cold pulse are
deduplicated there, by :class:`~repro.store.PulseServer`'s per-shard
single-flight: N clients hammering one cold key cost one decode and
one cache insertion.

Per-request errors (an unknown pulse key, a mode the store cannot
serve) get a ``STATUS_ERROR`` reply and the connection stays usable;
protocol-level damage (bad length prefix, unknown message type,
truncated frame) closes the connection after a best-effort error reply
-- a framing error means the byte stream can no longer be trusted.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Set, Tuple

from repro.errors import ProtocolError, ReproError, StoreError
from repro.obs import MetricsRegistry, Tracer, default_registry, merge_snapshots
from repro.obs import trace as obs_trace
from repro.serve_net import protocol
from repro.store.server import PulseServer

__all__ = ["NetPulseServer", "NetServerHandle", "serve_in_thread"]

#: How long the server waits for the rest of a frame once its length
#: prefix has arrived.  An idle connection may sit quietly forever; a
#: half-sent frame may not.
FRAME_COMPLETION_TIMEOUT = 30.0


class NetPulseServer:
    """Asyncio ``CQN1`` server over a :class:`~repro.store.PulseServer`.

    Args:
        serving: The in-process serving layer to front.  The caller
            keeps ownership: closing the network server does not close
            the :class:`PulseServer` (several network front ends may
            share one).
        host: Bind address (default loopback).
        port: Bind port; 0 picks a free port (see :attr:`address`).
        max_inflight: Admission-control bound on concurrently served
            fetch requests (>= 1).  Requests past it are shed with an
            explicit overload reply, never queued.
        max_request_bytes: Inbound frame bound; a length prefix past it
            closes the connection.
        frame_timeout: Seconds a half-received frame may take to
            complete once its length prefix has arrived (default
            :data:`FRAME_COMPLETION_TIMEOUT`).  Tests and the chaos
            harness shrink this to drive the expiry path without
            wall-clock waits.
        metrics: Registry for the ``net.*`` counters and latency
            histogram (private by default).
        tracer: Trace collector for sampled requests; built from
            ``trace_sample_rate`` when not given.
        trace_sample_rate: Fraction of untraced fetches that start a
            server-side trace (client-traced fetches always do).
            Ignored when ``tracer`` is passed.

    Lifecycle: ``await start()`` binds the socket, ``await aclose()``
    drains and shuts down.  Use :func:`serve_in_thread` to host one in
    a background thread from synchronous code.
    """

    def __init__(
        self,
        serving: PulseServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 32,
        max_request_bytes: int = protocol.MAX_REQUEST_FRAME_BYTES,
        frame_timeout: float = FRAME_COMPLETION_TIMEOUT,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        trace_sample_rate: Optional[float] = None,
    ) -> None:
        if max_inflight < 1:
            raise StoreError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_request_bytes < 16:
            raise StoreError(
                f"max_request_bytes must be >= 16, got {max_request_bytes}"
            )
        if frame_timeout <= 0:
            raise StoreError(f"frame_timeout must be > 0, got {frame_timeout}")
        self.serving = serving
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.max_request_bytes = max_request_bytes
        self.frame_timeout = frame_timeout
        self._listener: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if tracer is None:
            tracer = Tracer(
                sample_rate=(
                    obs_trace.DEFAULT_TRACE_SAMPLE_RATE
                    if trace_sample_rate is None
                    else trace_sample_rate
                )
            )
        self.tracer = tracer
        self._connections_accepted = self.metrics.counter("net.connections_accepted")
        self._requests = self.metrics.counter("net.requests")
        self._fetches = self.metrics.counter("net.fetches")
        self._fetches_ok = self.metrics.counter("net.fetches_ok")
        self._pulses_served = self.metrics.counter("net.pulses_served")
        self._overloads = self.metrics.counter("net.overloads")
        self._request_errors = self.metrics.counter("net.request_errors")
        self._protocol_errors = self.metrics.counter("net.protocol_errors")
        self._inflight_gauge = self.metrics.gauge("net.inflight")
        self._request_seconds = self.metrics.histogram("net.request_seconds")

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "NetPulseServer":
        """Bind the listening socket; returns self for chaining."""
        if self._listener is not None:
            raise StoreError("server is already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="cqn1-fetch"
        )
        self._listener = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` to the real one)."""
        if self._listener is None or not self._listener.sockets:
            raise StoreError("server is not started")
        host, port = self._listener.sockets[0].getsockname()[:2]
        return (host, port)

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI entry point awaits this)."""
        if self._listener is None:
            await self.start()
        assert self._listener is not None
        await self._listener.serve_forever()

    async def aclose(self, drain_timeout: float = 5.0) -> None:
        """Graceful drain: stop accepting, finish in-flight, close.

        New fetch requests arriving on existing connections during the
        drain window are shed with overload replies.  Connections still
        open after in-flight work finishes (or after ``drain_timeout``)
        are closed.  Idempotent.
        """
        self._draining = True
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
            await listener.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=drain_timeout)
        except asyncio.TimeoutError:
            pass
        for writer in list(self._connections):
            writer.close()
        for writer in list(self._connections):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._connections.clear()
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    async def __aenter__(self) -> "NetPulseServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- bookkeeping -------------------------------------------------------------

    def stats(self) -> Dict:
        """This server's counters, with the serving layer's under ``"serving"``.

        The ``STATS`` wire reply is this dict as JSON.
        """
        return {
            "connections_accepted": self._connections_accepted.value,
            "connections_open": len(self._connections),
            "requests": self._requests.value,
            "fetches": self._fetches.value,
            "fetches_ok": self._fetches_ok.value,
            "pulses_served": self._pulses_served.value,
            "overloads": self._overloads.value,
            "request_errors": self._request_errors.value,
            "protocol_errors": self._protocol_errors.value,
            "draining": self._draining,
            "serving": self.serving.stats(),
        }

    def metrics_snapshot(self) -> Dict:
        """Full merged snapshot: net tier + serving stack + module metrics.

        This is what the ``METRICS`` wire message and the
        ``--metrics-port`` HTTP exposition serve.  The process-wide
        default registry contributes the module-level store series
        (mmap opens, fused-decode batches).
        """
        return merge_snapshots(
            self.metrics.snapshot(),
            self.serving.metrics_snapshot(),
            default_registry().snapshot(),
        )

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections_accepted.inc()
        self._connections.add(writer)
        try:
            await self._connection_loop(reader, writer)
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                header = await reader.readexactly(4)
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    # A torn length prefix is a framing error; bare EOF
                    # between frames is a clean close.
                    self._protocol_errors.inc()
                return
            except (ConnectionError, OSError):
                return
            try:
                length = protocol.parse_frame_length(header, self.max_request_bytes)
                payload = await asyncio.wait_for(
                    reader.readexactly(length), timeout=self.frame_timeout
                )
            except (ProtocolError, asyncio.TimeoutError) as exc:
                self._protocol_errors.inc()
                reason = (
                    "frame did not complete in time"
                    if isinstance(exc, asyncio.TimeoutError)
                    else str(exc)
                )
                await self._best_effort_send(
                    writer, protocol.encode_reply_error(reason)
                )
                return
            except asyncio.IncompleteReadError:
                self._protocol_errors.inc()
                return
            except (ConnectionError, OSError):
                return
            try:
                request = protocol.decode_request(payload)
            except ProtocolError as exc:
                # The stream itself is still framed correctly, but a
                # peer sending unparseable requests is not worth
                # trusting further: answer once, then close.
                self._protocol_errors.inc()
                await self._best_effort_send(
                    writer, protocol.encode_reply_error(str(exc))
                )
                return
            self._requests.inc()
            if not await self._dispatch(request, writer):
                return

    async def _dispatch(
        self, request: protocol.Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one decoded request; returns False to drop the connection."""
        if isinstance(request, protocol.PingRequest):
            return await self._best_effort_send(writer, protocol.encode_reply_ping())
        if isinstance(request, protocol.StatsRequest):
            blob = json.dumps(self.stats()).encode("utf-8")
            return await self._best_effort_send(
                writer, protocol.encode_reply_stats(blob)
            )
        if isinstance(request, protocol.KeysRequest):
            return await self._best_effort_send(
                writer, protocol.encode_reply_keys(self.serving.store.keys())
            )
        if isinstance(request, protocol.MetricsRequest):
            blob = json.dumps(self.metrics_snapshot()).encode("utf-8")
            return await self._best_effort_send(
                writer, protocol.encode_reply_metrics(blob)
            )
        if isinstance(request, protocol.TracesRequest):
            blob = json.dumps(self.tracer.recent(request.limit)).encode("utf-8")
            return await self._best_effort_send(
                writer, protocol.encode_reply_traces(blob)
            )
        assert isinstance(request, protocol.FetchRequest)
        # A client-supplied trace id always gets a server-side span (the
        # client already paid the sampling coin toss); untraced fetches
        # go through this server's own sampler.
        sp = self.tracer.start_trace(
            "server.admission",
            trace_id=request.trace_id,
            parent_id=request.parent_span_id or None,
            force=request.trace_id is not None,
            keys=len(request.keys),
            mode=request.mode,
        )
        if self._draining or self._active >= self.max_inflight:
            self._overloads.inc()
            if sp is not None:
                sp.tags["outcome"] = "overload"
                sp.finish()
            return await self._best_effort_send(
                writer, protocol.encode_reply_overload()
            )
        self._fetches.inc()
        self._active += 1
        self._idle.clear()
        self._inflight_gauge.add(1)
        started = time.perf_counter()
        try:
            with obs_trace.activate(sp):
                reply = await self._serve_fetch(request)
        except ReproError as exc:
            self._request_errors.inc()
            if sp is not None:
                sp.tags["outcome"] = "error"
            reply = protocol.encode_reply_error(str(exc))
        else:
            self._fetches_ok.inc()
        finally:
            self._active -= 1
            self._inflight_gauge.add(-1)
            self._request_seconds.observe(time.perf_counter() - started)
            if sp is not None:
                sp.finish()
            if self._active == 0:
                self._idle.set()
        return await self._best_effort_send(writer, reply)

    # -- fetch path --------------------------------------------------------------

    async def _serve_fetch(self, request: protocol.FetchRequest) -> bytes:
        loop = asyncio.get_running_loop()
        executor = self._executor
        if executor is None:
            raise StoreError("server is closed")
        if request.mode == protocol.MODE_RECORD:
            store = self.serving.store
            blobs = await loop.run_in_executor(
                executor,
                contextvars.copy_context().run,
                lambda: [store.read_record_bytes(*key) for key in request.keys],
            )
            self._pulses_served.inc(len(blobs))
            return protocol.encode_reply_fetch(protocol.MODE_RECORD, blobs)

        # Decoded-sample mode: one hop into the serving layer, which
        # fills this fetch's misses in one fused decode on the executor
        # thread, under per-shard single-flight.  copy_context():
        # executor threads do not inherit the admission span's contextvar.
        waveforms = await loop.run_in_executor(
            executor,
            contextvars.copy_context().run,
            self.serving.fetch_batch,
            request.keys,
        )
        items = [protocol.encode_samples_item(waveform) for waveform in waveforms]
        self._pulses_served.inc(len(items))
        return protocol.encode_reply_fetch(protocol.MODE_SAMPLES, items)

    @staticmethod
    async def _best_effort_send(writer: asyncio.StreamWriter, data: bytes) -> bool:
        try:
            writer.write(data)
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False


# ---------------------------------------------------------------------------
# Thread hosting: run an event-loop server from synchronous code.
# ---------------------------------------------------------------------------


class NetServerHandle:
    """A running :class:`NetPulseServer` hosted in a background thread.

    Produced by :func:`serve_in_thread`; usable as a context manager.
    ``address`` is the bound ``(host, port)``; :meth:`stats` snapshots
    the server's counters; :meth:`stop` drains and joins the thread.
    """

    def __init__(self, ready_timeout: float) -> None:
        self._ready = threading.Event()
        self._ready_timeout = ready_timeout
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._server: Optional[NetPulseServer] = None
        self._error: Optional[BaseException] = None
        self.address: Tuple[str, int] = ("", 0)

    def _wait_ready(self) -> "NetServerHandle":
        if not self._ready.wait(self._ready_timeout):
            raise StoreError("network server did not start in time")
        if self._error is not None:
            raise StoreError(f"network server failed to start: {self._error}")
        return self

    @property
    def server(self) -> NetPulseServer:
        if self._server is None:
            raise StoreError("network server is not running")
        return self._server

    def stats(self) -> Dict:
        """Counter snapshot (int reads are atomic under the GIL)."""
        return self.server.stats()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Drain the server and join its thread.  Idempotent."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        thread.join(timeout=drain_timeout + 10.0)

    def __enter__(self) -> "NetServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    serving: PulseServer,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_timeout: float = 10.0,
    drain_timeout: float = 5.0,
    **server_kwargs,
) -> NetServerHandle:
    """Start a :class:`NetPulseServer` in a daemon thread; returns its handle.

    The bench harness, tests, examples and anything else synchronous
    use this to put a real socket in front of a store without managing
    an event loop.  The handle is a context manager whose exit drains
    the server (same semantics as :meth:`NetPulseServer.aclose`).
    """
    handle = NetServerHandle(ready_timeout)

    async def _main() -> None:
        server = NetPulseServer(serving, host=host, port=port, **server_kwargs)
        try:
            await server.start()
        except BaseException as exc:
            handle._error = exc
            handle._ready.set()
            return
        handle._server = server
        handle._loop = asyncio.get_running_loop()
        handle._stop = asyncio.Event()
        handle.address = server.address
        handle._ready.set()
        try:
            await handle._stop.wait()
        finally:
            await server.aclose(drain_timeout=drain_timeout)

    def _run() -> None:
        try:
            asyncio.run(_main())
        except BaseException as exc:  # pragma: no cover - defensive
            if not handle._ready.is_set():
                handle._error = exc
                handle._ready.set()

    thread = threading.Thread(target=_run, name="cqn1-server", daemon=True)
    handle._thread = thread
    thread.start()
    return handle._wait_ready()
