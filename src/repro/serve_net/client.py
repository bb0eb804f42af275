"""The public client API: ``PulseClient`` / ``AsyncPulseClient``.

Both clients speak the ``CQN1`` protocol against a
:class:`~repro.serve_net.server.NetPulseServer` and expose the same
surface as the in-process :class:`~repro.store.PulseServer` --
``fetch`` / ``fetch_batch`` returning decoded
:class:`~repro.pulses.waveform.Waveform` objects bit-identical to the
server's copies -- plus the wire-only extras (raw record fetches,
ping, remote stats, remote key inventory, metrics and traces).

Every request is written once, as a generator with no I/O in it: it
yields frames to send and back-off delays to sleep, and is sent each
reply (or thrown the round trip's typed error).  :class:`PulseClient`
drives it over a blocking socket; :class:`AsyncPulseClient` drives it
over asyncio streams, so its request methods return awaitables.

Overload is a first-class outcome, not an exception to hide: when the
server sheds a request under admission control, clients raise
:class:`~repro.errors.ServerOverloadedError` so callers can back off,
retry, or (in the load generator's case) count.  Both clients can also
do the backing off themselves: construct with ``retries=N`` and shed
fetches are retried with seeded exponential backoff + jitter before
the error is surfaced (``retries_performed`` counts what that cost).
Any other failed round trip (reset, closed socket, timeout, torn frame)
drops the connection and raises :class:`~repro.errors.ProtocolError`;
the next request redials.

Connections are lazy: the first request dials the server, ``close``
hangs up, and both clients are context managers.  One client drives
one connection, and requests on it are strictly serialized
(request/response, in order) -- for concurrency, open more clients;
the :mod:`~repro.serve_net.loadgen` module does exactly that.
"""

from __future__ import annotations

import asyncio
import functools
import json
import random
import socket
import time
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple, Union

from repro.errors import ProtocolError, ReproError, ServerOverloadedError, StoreError
from repro.obs import Tracer
from repro.pulses.waveform import Waveform
from repro.serve_net import protocol

__all__ = ["PulseClient", "AsyncPulseClient", "parse_address"]

_Key = Tuple[str, Tuple[int, ...]]

_Request = Tuple[str, Sequence[int]]

#: One request in flight: yields frames to send and delays to sleep, is
#: sent each reply, returns the decoded result.
_Exchange = Generator[Union[bytes, float], protocol.Reply, Any]

#: What a failed round trip raises before it is mapped to ProtocolError
#: (``asyncio.TimeoutError`` is an ``OSError`` only from Python 3.11).
_WIRE_ERRORS = (OSError, EOFError, asyncio.TimeoutError, ProtocolError)


def parse_address(
    address: Union[str, Tuple[str, int]], port: Optional[int] = None
) -> Tuple[str, int]:
    """Normalize ``("host", port)`` / ``"host:port"`` / host+port args."""
    if port is not None:
        if not isinstance(address, str):
            raise StoreError(f"host must be a string, got {address!r}")
        return (address, int(port))
    if isinstance(address, tuple) and len(address) == 2:
        return (str(address[0]), int(address[1]))
    if isinstance(address, str) and ":" in address:
        host, _, port_text = address.rpartition(":")
        try:
            return (host, int(port_text))
        except ValueError:
            raise StoreError(f"bad port in address {address!r}") from None
    raise StoreError(
        f"expected ('host', port) or 'host:port', got {address!r}"
    )


def _wire_error(exc: BaseException) -> ProtocolError:
    """The typed error for a round trip that failed on the wire.

    Timeouts keep "timed out" in the message: load reports classify
    failures by that text.
    """
    if isinstance(exc, ProtocolError):
        return exc
    if isinstance(exc, (TimeoutError, asyncio.TimeoutError)):
        return ProtocolError("timed out waiting for the reply")
    if isinstance(exc, EOFError):
        return ProtocolError("server closed the connection mid-frame")
    return ProtocolError(f"connection lost: {exc}")


def _check_reply(reply: protocol.Reply, expected_type: int) -> protocol.Reply:
    if reply.status == protocol.STATUS_OVERLOAD:
        raise ServerOverloadedError(
            "server shed the request under admission control"
        )
    if reply.status == protocol.STATUS_ERROR:
        raise StoreError(f"server error: {reply.message}")
    if reply.echo_type != expected_type:
        raise ProtocolError(
            f"reply echoes type 0x{reply.echo_type:02x}, "
            f"expected 0x{expected_type:02x}"
        )
    return reply


def _decode_fetch_reply(
    reply: protocol.Reply, keys: Sequence[_Key], mode: int
) -> List:
    reply = _check_reply(reply, protocol.MSG_FETCH)
    if reply.mode != mode:
        raise ProtocolError(
            f"reply mode {reply.mode} does not match request mode {mode}"
        )
    if len(reply.items) != len(keys):
        raise ProtocolError(
            f"reply carries {len(reply.items)} items for {len(keys)} keys"
        )
    if mode == protocol.MODE_RECORD:
        return [bytes(item) for item in reply.items]
    return [
        protocol.decode_samples_item(item, gate, qubits)
        for item, (gate, qubits) in zip(reply.items, keys)
    ]


def _decode_json_reply(reply: protocol.Reply, expected_type: int, what: str) -> Any:
    reply = _check_reply(reply, expected_type)
    try:
        return json.loads(reply.items[0].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"{what} reply is not JSON: {exc}") from None


def _retry_delay(rng: random.Random, backoff: float, attempt: int) -> float:
    """Exponential backoff with jitter in [0.5x, 1.5x) of the step.

    Jitter is driven by the client's seeded RNG so load tests are
    reproducible while real fleets still decorrelate their retries.
    """
    return backoff * (2**attempt) * (0.5 + rng.random())


def _request(method):
    """Make a generator method (annotated with its result) a request
    method: calling it hands the generator to the transport's ``_run``."""

    @functools.wraps(method)
    def call(self: "_ClientCore", *args: Any, **kwargs: Any) -> Any:
        return self._run(method(self, *args, **kwargs))

    return call


class _ClientCore:
    """Settings, retry state and every request, shared by both clients.

    Subclasses supply the transport: ``_roundtrip(frame) -> Reply``,
    which raises only typed errors, and ``_run(exchange)``, which
    drives one request's generator to its result.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        port: Optional[int] = None,
        timeout: float = 30.0,
        retries: int = 0,
        backoff: float = 0.05,
        seed: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if retries < 0:
            raise StoreError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise StoreError(f"backoff must be >= 0, got {backoff}")
        self.address = parse_address(address, port)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.retries_performed = 0
        self.tracer = tracer
        self._rng = random.Random(seed)

    def _run(self, exchange: _Exchange) -> Any:
        """Drive one request: send each frame it yields, sleep each
        delay, resume it with the reply or throw it the typed error."""
        raise NotImplementedError

    # -- the client API ----------------------------------------------------------

    @_request
    def fetch(self, gate: str, qubits: Sequence[int]) -> Waveform:
        """One decoded pulse over the wire."""
        return (yield from self._fetch([(gate, qubits)], protocol.MODE_SAMPLES))[0]

    @_request
    def fetch_batch(self, requests: Sequence[_Request]) -> List[Waveform]:
        """A batch of decoded pulses, in request order.

        Raises :class:`~repro.errors.ServerOverloadedError` when the
        server sheds the request (after ``retries`` backed-off
        attempts), :class:`~repro.errors.StoreError` on server-side
        errors (e.g. unknown keys).
        """
        return (yield from self._fetch(requests, protocol.MODE_SAMPLES))

    @_request
    def fetch_records(self, requests: Sequence[_Request]) -> List[bytes]:
        """Raw ``CQW1`` record bytes per key (no decode on either side)."""
        return (yield from self._fetch(requests, protocol.MODE_RECORD))

    def _fetch(self, requests: Sequence[_Request], mode: int) -> _Exchange:
        keys = [(gate, tuple(int(q) for q in qubits)) for gate, qubits in requests]
        sp = None
        if self.tracer is not None:
            sp = self.tracer.start_trace(
                "client.fetch", keys=len(keys), mode=mode
            )
        trace = None if sp is None else (sp.trace_id, sp.span_id)
        frame = protocol.encode_fetch(keys, mode, trace=trace)
        attempt = 0
        try:
            while True:
                try:
                    return _decode_fetch_reply((yield frame), keys, mode)
                except ServerOverloadedError:
                    if attempt >= self.retries:
                        raise
                    delay = _retry_delay(self._rng, self.backoff, attempt)
                    attempt += 1
                    self.retries_performed += 1
                    yield delay
        finally:
            if sp is not None:
                sp.tags["retries"] = attempt
                sp.finish()

    @_request
    def ping(self) -> float:
        """Round-trip a PING; returns the latency in seconds."""
        start = time.perf_counter()
        _check_reply((yield protocol.encode_ping()), protocol.MSG_PING)
        return time.perf_counter() - start

    @_request
    def stats(self) -> Dict:
        """The server's counter snapshot (see ``NetServerStats.as_dict``)."""
        reply = yield protocol.encode_stats()
        return _decode_json_reply(reply, protocol.MSG_STATS, "stats")

    @_request
    def keys(self) -> List[_Key]:
        """The remote store's full pulse-key inventory."""
        reply = _check_reply((yield protocol.encode_keys()), protocol.MSG_KEYS)
        return list(reply.keys)

    @_request
    def metrics(self) -> Dict:
        """The server's merged metrics-registry snapshot.

        Shape: ``{"counters": ..., "gauges": ..., "histograms": ...}``
        (see :meth:`repro.obs.MetricsRegistry.snapshot`), aggregated
        across the network tier, serving layer, cache, and the
        process-wide default registry.
        """
        reply = yield protocol.encode_metrics()
        return _decode_json_reply(reply, protocol.MSG_METRICS, "metrics")

    @_request
    def traces(self, limit: int = 16) -> List[Dict]:
        """Up to ``limit`` recent completed traces, newest last."""
        reply = yield protocol.encode_traces(limit)
        return _decode_json_reply(reply, protocol.MSG_TRACES, "traces")


class PulseClient(_ClientCore):
    """Blocking ``CQN1`` client over a plain TCP socket.

    Args:
        address: ``("host", port)``, ``"host:port"``, or a host string
            combined with the ``port`` argument.
        port: Port when ``address`` is a bare host name.
        timeout: Seconds allowed for connecting, and for each
            request/response round trip as a whole (one deadline from
            the send to the last byte of the reply).
        retries: How many times a fetch shed with ``STATUS_OVERLOAD``
            is retried before :class:`~repro.errors.ServerOverloadedError`
            surfaces.  0 (the default) preserves raise-immediately.
        backoff: Base delay in seconds for the exponential backoff
            schedule (doubles per attempt, jittered).
        seed: Seed for the jitter RNG (``None`` = nondeterministic).
        tracer: Optional :class:`~repro.obs.Tracer`, assignable at any
            time.  Sampled fetches open a ``client.fetch`` root span
            and propagate its ids to the server in a ``FETCH_TRACED``
            frame, so the server-side stage spans land in the same
            trace.  ``None`` disables client-side tracing (and the
            frames stay byte-identical to the pre-extension protocol).
    """

    _sock: Optional[socket.socket] = None

    # -- lifecycle -------------------------------------------------------------

    def connect(self) -> "PulseClient":
        """Dial the server (no-op if already connected)."""
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    self.address, timeout=self.timeout
                )
                self._sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError as exc:
                self._sock = None
                raise StoreError(
                    f"cannot connect to {self.address[0]}:{self.address[1]}: {exc}"
                ) from None
        return self

    def close(self) -> None:
        """Hang up (idempotent); the next request reconnects."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "PulseClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -------------------------------------------------------------

    def _roundtrip(self, request_frame: bytes) -> protocol.Reply:
        self.connect()
        assert self._sock is not None
        deadline = time.monotonic() + self.timeout
        try:
            self._sock.settimeout(self.timeout)
            self._sock.sendall(request_frame)
            header = self._recv_exact(bytearray(4), deadline)
            length = protocol.parse_frame_length(header)
            payload = self._recv_exact(bytearray(length), deadline)
        except _WIRE_ERRORS as exc:
            # The connection state is unknown after any I/O or framing
            # failure; drop it so the next request redials.
            self.close()
            raise _wire_error(exc) from None
        return protocol.decode_reply(payload)

    def _recv_exact(self, buf: bytearray, deadline: float) -> bytearray:
        """Fill ``buf`` from the socket with ``recv_into``, before ``deadline``."""
        sock = self._sock
        assert sock is not None
        view = memoryview(buf)
        n, got = len(buf), 0
        while got < n:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("round trip deadline passed")
            sock.settimeout(left)
            count = sock.recv_into(view[got:])
            if not count:
                raise ProtocolError(
                    f"server closed the connection mid-frame "
                    f"({got} of {n} bytes read)"
                )
            got += count
        return buf

    def _run(self, exchange: _Exchange) -> Any:
        resume, value = exchange.send, None
        while True:
            try:
                step = resume(value)
            except StopIteration as done:
                return done.value
            if isinstance(step, bytes):
                try:
                    resume, value = exchange.send, self._roundtrip(step)
                except ReproError as exc:
                    resume, value = exchange.throw, exc
            else:
                time.sleep(step)
                resume, value = exchange.send, None


class AsyncPulseClient(_ClientCore):
    """Asyncio ``CQN1`` client; its request methods return awaitables.

    It takes :class:`PulseClient`'s arguments and has its request
    methods, each returning an awaitable of the same result.  One
    instance drives one connection and serializes its requests with
    an internal lock, so it is safe to share across tasks -- concurrent
    callers simply queue client-side.  For true request concurrency
    (and to exercise the server's admission control), open several
    clients.
    """

    _reader: Optional[asyncio.StreamReader] = None
    _writer: Optional[asyncio.StreamWriter] = None

    @functools.cached_property
    def _lock(self) -> asyncio.Lock:
        return asyncio.Lock()

    # -- lifecycle -------------------------------------------------------------

    async def connect(self) -> "AsyncPulseClient":
        if self._writer is None:
            try:
                self._reader, self._writer = await asyncio.wait_for(
                    asyncio.open_connection(*self.address), timeout=self.timeout
                )
            except (OSError, asyncio.TimeoutError) as exc:
                self._reader = self._writer = None
                raise StoreError(
                    f"cannot connect to {self.address[0]}:{self.address[1]}: {exc}"
                ) from None
        return self

    async def aclose(self) -> None:
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "AsyncPulseClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- transport -------------------------------------------------------------

    async def _roundtrip(self, request_frame: bytes) -> protocol.Reply:
        async with self._lock:
            await self.connect()
            try:
                # One deadline for the whole round trip.
                payload = await asyncio.wait_for(
                    self._exchange(request_frame), timeout=self.timeout
                )
            except _WIRE_ERRORS as exc:
                await self.aclose()
                raise _wire_error(exc) from None
            return protocol.decode_reply(payload)

    async def _exchange(self, request_frame: bytes) -> bytes:
        assert self._reader is not None and self._writer is not None
        self._writer.write(request_frame)
        await self._writer.drain()
        length = protocol.parse_frame_length(await self._reader.readexactly(4))
        return await self._reader.readexactly(length)

    async def _run(self, exchange: _Exchange) -> Any:
        resume, value = exchange.send, None
        while True:
            try:
                step = resume(value)
            except StopIteration as done:
                return done.value
            if isinstance(step, bytes):
                try:
                    resume, value = exchange.send, await self._roundtrip(step)
                except ReproError as exc:
                    resume, value = exchange.throw, exc
            else:
                await asyncio.sleep(step)
                resume, value = exchange.send, None
