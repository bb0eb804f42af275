"""The public client API: :class:`PulseClient`.

``PulseClient`` speaks the ``CQN1`` protocol over a blocking TCP socket
against a :class:`~repro.serve_net.server.NetPulseServer` and exposes
the same surface as the in-process :class:`~repro.store.PulseServer`
-- ``fetch`` / ``fetch_batch`` returning decoded
:class:`~repro.pulses.waveform.Waveform` objects bit-identical to the
server's copies -- plus the wire-only extras (raw record fetches,
ping, remote stats, remote key inventory, metrics and traces).  Every
request goes through one transport method, ``_roundtrip``: one frame
out, one reply back.

Overload is a first-class outcome, not an exception to hide: when the
server sheds a request under admission control, the client raises
:class:`~repro.errors.ServerOverloadedError` so callers can back off,
retry, or (in the load generator's case) count.  The client can also
do the backing off itself: construct with ``retries=N`` and shed
fetches are retried with seeded exponential backoff + jitter before
the error is surfaced (``retries_performed`` counts what that cost).
Any other failed round trip (reset, closed socket, timeout, torn frame)
drops the connection and raises :class:`~repro.errors.ProtocolError`;
the next request redials.

Connections are lazy: the first request dials the server, ``close``
hangs up, and the client is a context manager.  One client drives one
connection, and requests on it are strictly serialized
(request/response, in order) -- for concurrency, open one client per
thread; the :mod:`~repro.serve_net.loadgen` module does exactly that.
"""

from __future__ import annotations

import json
import math
import numbers
import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ProtocolError, ServerOverloadedError, StoreError
from repro.obs import Tracer
from repro.pulses.waveform import Waveform
from repro.serve_net import protocol

__all__ = ["PulseClient", "parse_address"]

_Key = Tuple[str, Tuple[int, ...]]

_Request = Tuple[str, Sequence[int]]

#: What a failed round trip raises before it is mapped to ProtocolError
#: (a socket timeout is a ``TimeoutError``, itself an ``OSError``).
_WIRE_ERRORS = (OSError, ProtocolError)


def parse_address(
    address: Union[str, Tuple[str, int]], port: Optional[int] = None
) -> Tuple[str, int]:
    """Normalize ``("host", port)`` / ``"host:port"`` / ``"[v6]:port"`` /
    host+port args."""
    if port is not None:
        if not isinstance(address, str):
            raise StoreError(f"host must be a string, got {address!r}")
        return (address, int(port))
    if isinstance(address, tuple) and len(address) == 2:
        return (str(address[0]), int(address[1]))
    if isinstance(address, str) and ":" in address:
        host, _, port_text = address.rpartition(":")
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]  # a bracketed IPv6 literal, "[::1]:7411"
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
    if isinstance(exc, TimeoutError):
        return ProtocolError("timed out waiting for the reply")
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


def _retry_delay(rng: random.Random, backoff: float, attempt: int) -> float:
    """Exponential backoff with jitter in [0.5x, 1.5x) of the step.

    Jitter is driven by the client's seeded RNG so load tests are
    reproducible while real fleets still decorrelate their retries.
    """
    return backoff * (2**attempt) * (0.5 + rng.random())


class PulseClient:
    """Blocking ``CQN1`` client over a plain TCP socket.

    Args:
        address: ``("host", port)``, ``"host:port"``, or a host string
            combined with the ``port`` argument.
        port: Port when ``address`` is a bare host name.
        timeout: Seconds allowed for connecting, and for each
            request/response round trip as a whole (one deadline from
            the send to the last byte of the reply); positive and finite.
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
        if not isinstance(timeout, numbers.Real) or not 0 < timeout < math.inf:
            raise StoreError(f"timeout must be positive and finite, got {timeout!r}")
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

    # -- the client API ----------------------------------------------------------

    def fetch(self, gate: str, qubits: Sequence[int]) -> Waveform:
        """One decoded pulse over the wire."""
        return self._fetch([(gate, qubits)], protocol.MODE_SAMPLES)[0]

    def fetch_batch(self, requests: Sequence[_Request]) -> List[Waveform]:
        """A batch of decoded pulses, in request order.

        Raises :class:`~repro.errors.ServerOverloadedError` when the
        server sheds the request (after ``retries`` backed-off
        attempts), :class:`~repro.errors.StoreError` on server-side
        errors (e.g. unknown keys).
        """
        return self._fetch(requests, protocol.MODE_SAMPLES)

    def fetch_records(self, requests: Sequence[_Request]) -> List[bytes]:
        """Raw ``CQW1`` record bytes per key (no decode on either side)."""
        return self._fetch(requests, protocol.MODE_RECORD)

    def _fetch(self, requests: Sequence[_Request], mode: int) -> List:
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
                    return _decode_fetch_reply(self._roundtrip(frame), keys, mode)
                except ServerOverloadedError:
                    if attempt >= self.retries:
                        raise
                    delay = _retry_delay(self._rng, self.backoff, attempt)
                    attempt += 1
                    self.retries_performed += 1
                    time.sleep(delay)
        finally:
            if sp is not None:
                sp.tags["retries"] = attempt
                sp.finish()

    def ping(self) -> float:
        """Round-trip a PING; returns the latency in seconds."""
        start = time.perf_counter()
        _check_reply(self._roundtrip(protocol.encode_ping()), protocol.MSG_PING)
        return time.perf_counter() - start

    def stats(self) -> Dict:
        """The server's counters: the dict ``NetPulseServer.stats()`` returns."""
        return self._json(protocol.encode_stats(), protocol.MSG_STATS, "stats")

    def keys(self) -> List[_Key]:
        """The remote store's full pulse-key inventory."""
        reply = self._roundtrip(protocol.encode_keys())
        return list(_check_reply(reply, protocol.MSG_KEYS).keys)

    def metrics(self) -> Dict:
        """The server's merged metrics-registry snapshot.

        Shape: ``{"counters": ..., "gauges": ..., "histograms": ...}``
        (see :meth:`repro.obs.MetricsRegistry.snapshot`), aggregated
        across the network tier, serving layer, cache, and the
        process-wide default registry.
        """
        return self._json(protocol.encode_metrics(), protocol.MSG_METRICS, "metrics")

    def traces(self, limit: int = 16) -> List[Dict]:
        """Up to ``limit`` recent completed traces, newest last."""
        return self._json(protocol.encode_traces(limit), protocol.MSG_TRACES, "traces")

    def _json(self, frame: bytes, expected_type: int, what: str) -> Any:
        reply = _check_reply(self._roundtrip(frame), expected_type)
        try:
            return json.loads(reply.items[0].decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"{what} reply is not JSON: {exc}") from None

    # -- transport -------------------------------------------------------------

    def _roundtrip(self, request_frame: bytes) -> protocol.Reply:
        """Send one frame and read its reply; raises only typed errors."""
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
