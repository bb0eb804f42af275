"""Integration tests for the ``CQN1`` network serving tier.

The contract under test: every byte served over the socket is
bit-identical to the in-process serving layer (and, through it, to the
scalar decode path), per-request errors keep the connection usable,
admission control sheds load with explicit overload replies, N clients
hammering one cold key cost exactly one cache insertion, malformed
frames close the connection cleanly without hanging the server, a
drained server refuses new work, :class:`PulseClient` surfaces every
failure as a typed error, and both load generators account for every
request they send.
"""

import contextlib
import itertools
import random
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ProtocolError, ServerOverloadedError, StoreError
from repro.compression.pipeline import decompress_waveform
from repro.core import CompaqtCompiler
from repro.devices import ibm_device
from repro.obs import Tracer
from repro.pulses.waveform import Waveform
from repro.cli import main
from repro.serve_net import (
    NetPulseServer,
    PulseClient,
    parse_address,
    protocol,
    run_closed_loop,
    run_open_loop,
    serve_in_thread,
)
from repro.serve_net import loadgen
from repro.serve_net.client import _retry_delay
from repro.store import (
    PulseServer,
    arrival_times,
    save_store,
    synthetic_trace,
    write_trace,
)


@pytest.fixture(scope="module")
def compiled():
    library = ibm_device("bogota").pulse_library()
    return CompaqtCompiler(window_size=16).compile_library(library)


@pytest.fixture(scope="module")
def store(compiled, tmp_path_factory):
    root = tmp_path_factory.mktemp("serve_net") / "bogota.cqs"
    return save_store(compiled, root, n_shards=3)


@pytest.fixture(scope="module")
def reference(store):
    """The scalar decode path: what every served byte must equal."""
    return {
        key: decompress_waveform(store.read_record(*key)).samples.tobytes()
        for key in store.keys()
    }


def _assert_identical(reference, keys, waveforms):
    __tracebackhide__ = True
    assert len(waveforms) == len(keys)
    for key, waveform in zip(keys, waveforms):
        assert waveform.samples.tobytes() == reference[key], key
        assert not waveform.samples.flags.writeable


@pytest.fixture()
def serving(store):
    with PulseServer(store, cache_capacity=64) as server:
        yield server


@pytest.fixture()
def handle(serving):
    with serve_in_thread(serving) as running:
        yield running


@pytest.fixture()
def open_client():
    """Opens clients; closes them after the test."""
    opened = []

    def _open(*args, **kwargs):
        client = PulseClient(*args, **kwargs)
        opened.append(client)
        return client

    yield _open
    for client in opened:
        client.close()


class TestWireIdentity:
    def test_fetch_batch_is_bit_identical(
        self, handle, store, serving, reference, open_client
    ):
        keys = store.keys()
        served = open_client(*handle.address).fetch_batch(keys)
        for key, waveform in zip(keys, served):
            assert waveform.samples.tobytes() == reference[key], key
            local = serving.fetch(*key)
            assert waveform.name == local.name
            assert waveform.dt == local.dt

    def test_fetch_records_match_store_bytes(self, handle, store, open_client):
        keys = store.keys()[:5]
        blobs = open_client(*handle.address).fetch_records(keys)
        for key, blob in zip(keys, blobs):
            assert blob == store.read_record_bytes(*key), key

    def test_single_fetch(self, handle, store, reference, open_client):
        key = store.keys()[0]
        waveform = open_client(*handle.address).fetch(*key)
        assert waveform.samples.tobytes() == reference[key]


class TestControlRequests:
    def test_ping_keys_stats(self, handle, store, open_client):
        client = open_client(*handle.address)
        assert client.ping() >= 0.0
        assert set(client.keys()) == set(store.keys())
        stats = client.stats()
        for field in ("requests", "fetches", "overloads", "serving"):
            assert field in stats
        assert stats["serving"]["cache"]["capacity"] == 64

    def test_unknown_key_keeps_connection_usable(
        self, handle, store, reference, open_client
    ):
        good = store.keys()[0]
        client = open_client(*handle.address)
        with pytest.raises(StoreError):
            client.fetch("no-such-gate", (99,))
        # Same connection, next request serves fine.
        assert client.fetch(*good).samples.tobytes() == reference[good]
        assert handle.stats()["request_errors"] >= 1

    def test_metrics(self, handle, store, open_client):
        client = open_client(*handle.address)
        client.fetch_batch(store.keys()[:3])
        snapshot = client.metrics()
        stats = handle.stats()
        assert snapshot["counters"]["net.fetches_ok"] == stats["fetches_ok"] == 1
        assert snapshot["counters"]["net.pulses_served"] == 3
        assert "net.request_seconds" in snapshot["histograms"]

    def test_tracer_assigned_after_construction_reaches_server(
        self, handle, store, open_client
    ):
        """The benchmark harness turns tracing on by assigning ``tracer``."""
        client = open_client(*handle.address)
        client.fetch(*store.keys()[0])
        tracer = Tracer(sample_rate=1.0)
        client.tracer = tracer
        client.fetch(*store.keys()[1])
        (client_trace,) = tracer.recent()
        served = {trace["trace_id"] for trace in client.traces(limit=8)}
        assert client_trace["trace_id"] in served


class TestCoalescing:
    def test_concurrent_cold_keys_insert_once(self, store):
        """N clients x one cold key -> exactly one cache insertion each."""
        keys = store.keys()[:3]
        n_clients = 6
        with PulseServer(store, cache_capacity=64) as serving:
            with serve_in_thread(serving) as handle:
                barrier = threading.Barrier(n_clients)
                errors = []

                def hammer(key):
                    try:
                        with PulseClient(*handle.address) as client:
                            barrier.wait(timeout=10)
                            client.fetch_batch([key] * 4)
                    except Exception as exc:  # pragma: no cover - surfaced below
                        errors.append(exc)

                for key in keys:
                    barrier.reset()
                    threads = [
                        threading.Thread(target=hammer, args=(key,))
                        for _ in range(n_clients)
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=30)
                assert not errors
                cache = serving.stats()["cache"]
                assert cache["insertions"] == len(keys)


class TestAdmissionControl:
    def test_overload_is_explicit_and_bounded(self, store):
        release = threading.Event()
        started = threading.Event()
        with PulseServer(store, cache_capacity=8) as serving:
            real_fetch_batch = serving.fetch_batch

            def slow_fetch_batch(keys):
                started.set()
                assert release.wait(timeout=30)
                return real_fetch_batch(keys)

            serving.fetch_batch = slow_fetch_batch
            key = store.keys()[0]
            with serve_in_thread(serving, max_inflight=1) as handle:
                blocked = PulseClient(*handle.address)
                result = {}

                def occupy():
                    result["pulse"] = blocked.fetch(*key)

                thread = threading.Thread(target=occupy)
                thread.start()
                try:
                    assert started.wait(timeout=10)
                    with PulseClient(*handle.address) as client:
                        # Fetch past the bound: shed, never queued.
                        with pytest.raises(ServerOverloadedError):
                            client.fetch(*key)
                        # Control requests are exempt from admission.
                        assert client.ping() >= 0.0
                        assert client.stats()["overloads"] >= 1
                finally:
                    release.set()
                    thread.join(timeout=30)
                blocked.close()
                assert "pulse" in result  # the in-flight request completed
                assert handle.stats()["overloads"] >= 1

    def test_max_inflight_validated(self, serving):
        with pytest.raises(StoreError):
            NetPulseServer(serving, max_inflight=0)


class TestProtocolDamage:
    """Socket-level fuzz against a live server: close cleanly, never hang."""

    def _raw(self, handle):
        sock = socket.create_connection(handle.address, timeout=10)
        sock.settimeout(10)
        return sock

    def _read_reply(self, sock):
        header = b""
        while len(header) < 4:
            chunk = sock.recv(4 - len(header))
            if not chunk:
                return None
            header += chunk
        length = protocol.parse_frame_length(header)
        payload = b""
        while len(payload) < length:
            chunk = sock.recv(length - len(payload))
            if not chunk:
                return None
            payload += chunk
        return protocol.decode_reply(payload)

    def _assert_closed(self, sock):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            chunk = sock.recv(4096)
            if not chunk:
                return
        pytest.fail("server did not close the damaged connection")

    def test_oversized_length_prefix_closes(self, handle):
        with self._raw(handle) as sock:
            sock.sendall(struct.pack("<I", 0xFFFFFFFF))
            reply = self._read_reply(sock)
            if reply is not None:  # best-effort error reply before close
                assert reply.status == protocol.STATUS_ERROR
                self._assert_closed(sock)
        assert handle.stats()["protocol_errors"] >= 1

    def test_zero_length_frame_closes(self, handle):
        with self._raw(handle) as sock:
            sock.sendall(struct.pack("<I", 0))
            reply = self._read_reply(sock)
            if reply is not None:
                assert reply.status == protocol.STATUS_ERROR
                self._assert_closed(sock)

    def test_unknown_message_type_closes(self, handle):
        with self._raw(handle) as sock:
            sock.sendall(protocol.frame(bytes([0x7E])))
            reply = self._read_reply(sock)
            if reply is not None:
                assert reply.status == protocol.STATUS_ERROR
                self._assert_closed(sock)

    def test_truncated_fetch_body_closes(self, handle):
        good = protocol.encode_fetch([("sx", (0,))])
        torn = good[: len(good) - 3]
        # Re-frame the torn payload so the length prefix is honest.
        with self._raw(handle) as sock:
            sock.sendall(protocol.frame(torn[4:]))
            reply = self._read_reply(sock)
            if reply is not None:
                assert reply.status == protocol.STATUS_ERROR
                self._assert_closed(sock)

    def test_torn_length_prefix_counts(self, handle):
        before = handle.stats()["protocol_errors"]
        with self._raw(handle) as sock:
            sock.sendall(b"\x01\x02")  # half a length prefix, then hang up
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if handle.stats()["protocol_errors"] > before:
                break
            time.sleep(0.01)
        assert handle.stats()["protocol_errors"] > before

    def test_clean_eof_is_not_an_error(self, handle):
        before = handle.stats()["protocol_errors"]
        with self._raw(handle) as sock:
            sock.sendall(protocol.encode_ping())
            reply = self._read_reply(sock)
            assert reply is not None and reply.status == protocol.STATUS_OK
        time.sleep(0.05)
        assert handle.stats()["protocol_errors"] == before

    def test_server_survives_damage(self, handle, store, reference):
        """After all of the above, the server still serves correctly."""
        key = store.keys()[0]
        with PulseClient(*handle.address) as client:
            assert client.fetch(*key).samples.tobytes() == reference[key]


class TestDrain:
    def test_stopped_server_refuses_connections(self, serving):
        handle = serve_in_thread(serving)
        address = handle.address
        with PulseClient(*address) as client:
            assert client.ping() >= 0.0
        handle.stop()
        with pytest.raises(StoreError):
            PulseClient(*address).connect()

    def test_stop_is_idempotent(self, serving):
        handle = serve_in_thread(serving)
        handle.stop()
        handle.stop()


class TestParseAddress:
    def test_accepted_forms(self):
        assert parse_address(("localhost", 9000)) == ("localhost", 9000)
        assert parse_address("localhost:9000") == ("localhost", 9000)
        assert parse_address("localhost", 9000) == ("localhost", 9000)
        assert parse_address("::1:7411") == ("::1", 7411)
        assert parse_address("[::1]:7411") == ("::1", 7411)

    def test_rejected_forms(self):
        with pytest.raises(StoreError):
            parse_address("localhost")
        with pytest.raises(StoreError):
            parse_address("localhost:http")
        with pytest.raises(StoreError):
            parse_address(("localhost",))
        with pytest.raises(StoreError):
            parse_address(123, 9000)


def _read_exact(conn, n):
    data = b""
    while len(data) < n:
        chunk = conn.recv(n - len(data))
        assert chunk, "client hung up mid-request"
        data += chunk
    return data


@contextlib.contextmanager
def _scripted_peer(*answers):
    """A raw peer: its i-th connection reads one request frame, then
    ``answers[i](conn)`` answers it.  Each connection runs on its own
    thread, so a slow answer never delays the client's redial."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def handle(conn, answer):
        with conn:
            conn.settimeout(10)
            _read_exact(conn, protocol.parse_frame_length(_read_exact(conn, 4)))
            answer(conn)

    handlers = []

    def serve():
        for answer in answers:
            conn, _ = listener.accept()
            peer = threading.Thread(target=handle, args=(conn, answer), daemon=True)
            peer.start()
            handlers.append(peer)

    acceptor = threading.Thread(target=serve, daemon=True)
    acceptor.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        acceptor.join(timeout=10)
        for peer in handlers:
            peer.join(timeout=10)
        listener.close()
    assert not acceptor.is_alive()
    assert not any(peer.is_alive() for peer in handlers)


def _reset(conn):
    """Reset the connection (``SO_LINGER`` 0) instead of answering."""
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


def _answer_ping(conn):
    conn.sendall(protocol.encode_reply_ping())


def _trickle(data, pieces, pause):
    """An answer sending ``data`` in pieces of ``pieces`` bytes (cycled),
    pausing between them; it stops once the client has hung up."""

    def answer(conn):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        pos = 0
        for size in itertools.cycle(pieces):
            if pos >= len(data):
                return
            try:
                conn.sendall(data[pos : pos + size])
            except OSError:
                return
            pos += size
            time.sleep(pause)

    return answer


class TestClientRobustness:
    def test_client_redials_after_protocol_error(self, handle, store, reference):
        key = store.keys()[0]
        client = PulseClient(*handle.address)
        try:
            assert client.fetch(*key).samples.tobytes() == reference[key]
            # Sabotage the live socket so the next read sees a dead peer.
            client._sock.close()
            with pytest.raises((ProtocolError, StoreError)):
                client.fetch(*key)
            # The client dropped the broken connection; this redials.
            assert client.fetch(*key).samples.tobytes() == reference[key]
        finally:
            client.close()

    def test_connection_reset_is_typed_and_redials(self, open_client):
        with _scripted_peer(_reset, _answer_ping) as address:
            client = open_client(address)
            with pytest.raises(ProtocolError, match="connection lost"):
                client.ping()
            assert client.ping() >= 0.0

    def test_timeout_bounds_the_whole_round_trip(self, open_client):
        # The reply is announced at once, then arrives a byte per 50 ms:
        # every read makes progress, but the round trip may not outlast
        # its one deadline.
        announce_then_crawl = struct.pack("<I", 60) + bytes(60)
        with _scripted_peer(
            _trickle(announce_then_crawl, pieces=[4, 1], pause=0.05), _answer_ping
        ) as address:
            client = open_client(address, timeout=0.3)
            started = time.monotonic()
            with pytest.raises(ProtocolError, match="timed out"):
                client.ping()
            assert time.monotonic() - started < 2 * 0.3
            assert client.ping() >= 0.0  # redials

    def test_reply_in_small_pieces_decodes_bit_identically(
        self, store, reference, open_client
    ):
        keys = store.keys()[:3]
        waveforms = [
            Waveform(
                name=f"w{i}",
                samples=np.frombuffer(reference[key], dtype=np.complex128)[:8],
                dt=2.5e-10 * (i + 1),
            )
            for i, key in enumerate(keys)
        ]
        reply = protocol.encode_reply_fetch(
            protocol.MODE_SAMPLES, [protocol.encode_samples_item(w) for w in waveforms]
        )
        # 1-7 byte pieces; the first three split the 4-byte header (1+2+1).
        pieces = [1, 2, 7, 3, 5, 1, 6, 4]
        with _scripted_peer(_trickle(reply, pieces, pause=0.002)) as address:
            served = open_client(address, timeout=10.0).fetch_batch(keys)
        for key, sent, got in zip(keys, waveforms, served):
            assert (got.name, got.dt, got.gate, got.qubits) == (
                sent.name, sent.dt, key[0], key[1]
            )
            assert got.samples.tobytes() == sent.samples.tobytes()

    def test_fetch_records_are_bytes(self, handle, store, open_client):
        blobs = open_client(*handle.address).fetch_records(store.keys()[:2])
        assert all(type(blob) is bytes for blob in blobs)


class _BlockingStore:
    """Test double: every batch decode parks on a gate (fault hook, not sleep)."""

    def __init__(self, store, started, release):
        self._store = store
        self._started = started
        self._release = release

    def __getattr__(self, name):
        return getattr(self._store, name)

    def decode_many(self, requests):
        self._started.set()
        assert self._release.wait(timeout=10), "gate never released"
        return self._store.decode_many(requests)


class _KeyGateStore:
    """Test double: shard routing for one gate name parks until released."""

    def __init__(self, store, gate_name, parked, release):
        self._store = store
        self._gate_name = gate_name
        self._parked = parked
        self._release = release

    def __getattr__(self, name):
        return getattr(self._store, name)

    def shard_of(self, gate, qubits):
        if gate == self._gate_name:
            self._parked.set()
            assert self._release.wait(timeout=10), "gate never released"
        return self._store.shard_of(gate, qubits)


class TestCoalescingFailureScope:
    def test_bad_key_does_not_poison_coalesced_valid_key(self, store, reference):
        """A request failing on one bad key must not fail a concurrent
        request for a *valid* key the two share.

        The mixed request parks in shard routing on the bad key; a
        valid-only request on a second connection completes meanwhile,
        and the mixed request then fails typed.
        """
        valid = store.keys()[0]
        bad = ("no-such-gate", (99,))
        parked, release = threading.Event(), threading.Event()
        gated = _KeyGateStore(store, "no-such-gate", parked, release)
        outcome = {}
        with PulseServer(gated, cache_capacity=64) as serving:
            with serve_in_thread(serving) as handle:

                def mixed():
                    with PulseClient(*handle.address) as client:
                        try:
                            client.fetch_batch([valid, bad])
                        except StoreError as exc:
                            outcome["error"] = exc

                fetcher = threading.Thread(target=mixed)
                fetcher.start()
                try:
                    assert parked.wait(timeout=10)
                    with PulseClient(*handle.address) as client:
                        waveform = client.fetch(*valid)
                    assert waveform.samples.tobytes() == reference[valid]
                    assert fetcher.is_alive()  # still parked on the bad key
                finally:
                    release.set()
                    fetcher.join(timeout=10)
                assert not fetcher.is_alive()
        assert "no pulse" in str(outcome["error"])


class TestDrainRacesInflight:
    def test_drain_waits_for_inflight_coalesced_fetch(self, store, reference):
        """aclose() must let a parked in-flight fetch finish, not drop it."""
        key = store.keys()[0]
        started, release = threading.Event(), threading.Event()
        gated = _BlockingStore(store, started, release)
        result = {}
        with PulseServer(gated, cache_capacity=64) as serving:
            handle = serve_in_thread(serving)

            def client():
                with PulseClient(*handle.address) as c:
                    result["waveform"] = c.fetch(*key)

            fetcher = threading.Thread(target=client)
            fetcher.start()
            try:
                assert started.wait(10)  # the fetch is parked in its fill
                stopper = threading.Thread(target=handle.stop)
                stopper.start()
                deadline = time.monotonic() + 10
                while not handle.stats()["draining"]:
                    assert time.monotonic() < deadline, "drain never started"
                    time.sleep(0.005)
                release.set()  # drain is racing the fill; let it finish
                stopper.join(timeout=15)
                assert not stopper.is_alive()
            finally:
                release.set()
                fetcher.join(timeout=10)
            assert result["waveform"].samples.tobytes() == reference[key]


class TestSendFailureMidReply:
    def test_reply_to_dead_peer_drops_only_that_connection(
        self, store, reference
    ):
        """_best_effort_send failing must not take the server down."""
        key = store.keys()[0]
        with PulseServer(store, cache_capacity=64) as serving:
            with serve_in_thread(serving) as handle:
                before = handle.stats()["fetches"]
                sock = socket.create_connection(handle.address, timeout=10)
                sock.sendall(protocol.encode_fetch([key]))
                # Abortive close (RST on close): the server's reply
                # write fails mid-send instead of buffering.
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                sock.close()
                deadline = time.monotonic() + 10
                while handle.stats()["fetches"] <= before:
                    assert time.monotonic() < deadline, "fetch never served"
                    time.sleep(0.01)
                # The dead peer cost nothing but its own connection.
                with PulseClient(*handle.address) as client:
                    assert client.fetch(*key).samples.tobytes() == reference[key]


class TestFrameTimeoutExpiry:
    def test_half_sent_frame_expires_as_protocol_error(self, store):
        """A frame that never completes times out typed, without a hang."""
        with PulseServer(store, cache_capacity=8) as serving:
            with serve_in_thread(serving, frame_timeout=0.2) as handle:
                before = handle.stats()["protocol_errors"]
                full = protocol.encode_fetch([store.keys()[0]])
                with socket.create_connection(handle.address, timeout=10) as sock:
                    sock.settimeout(10)
                    sock.sendall(full[:-3])  # length prefix + torn payload
                    header = b""
                    while len(header) < 4:
                        chunk = sock.recv(4 - len(header))
                        if not chunk:
                            break
                        header += chunk
                    if len(header) == 4:
                        length = protocol.parse_frame_length(header)
                        payload = b""
                        while len(payload) < length:
                            chunk = sock.recv(length - len(payload))
                            if not chunk:
                                break
                            payload += chunk
                        reply = protocol.decode_reply(payload)
                        assert reply.status == protocol.STATUS_ERROR
                        assert "did not complete" in reply.message
                assert handle.stats()["protocol_errors"] > before

    def test_frame_timeout_validated(self, serving):
        with pytest.raises(StoreError, match="frame_timeout"):
            NetPulseServer(serving, frame_timeout=0.0)


class TestClientRetry:
    def test_retry_recovers_from_transient_overload(
        self, handle, store, reference, open_client
    ):
        keys = store.keys()
        client = open_client(handle.address, retries=3, backoff=0.001, seed=7)
        real_roundtrip = client._roundtrip
        sheds = [2]

        def flaky_roundtrip(frame):
            if sheds[0]:
                sheds[0] -= 1
                raise ServerOverloadedError("test shed")
            return real_roundtrip(frame)

        client._roundtrip = flaky_roundtrip
        _assert_identical(reference, keys, client.fetch_batch(keys))
        assert client.retries_performed == 2

    def test_retries_exhausted_surfaces_overload(self, handle, store, open_client):
        client = open_client(handle.address, retries=1, backoff=0.001, seed=7)

        def always_shed(frame):
            raise ServerOverloadedError("test shed")

        client._roundtrip = always_shed
        with pytest.raises(ServerOverloadedError):
            client.fetch_batch(store.keys())
        assert client.retries_performed == 1

    def test_default_is_raise_immediately(self, handle, store, open_client):
        client = open_client(handle.address)
        assert (client.retries, client.retries_performed) == (0, 0)

        def always_shed(frame):
            raise ServerOverloadedError("test shed")

        client._roundtrip = always_shed
        with pytest.raises(ServerOverloadedError):
            client.fetch(*store.keys()[0])
        assert client.retries_performed == 0


    def test_retry_delay_is_seeded_exponential_with_jitter(self):
        rng = random.Random(0)
        for attempt in range(4):
            step = 0.05 * 2**attempt
            delay = _retry_delay(rng, 0.05, attempt)
            assert 0.5 * step <= delay < 1.5 * step
        assert _retry_delay(random.Random(3), 0.05, 0) == _retry_delay(
            random.Random(3), 0.05, 0
        )

    def test_retry_validation(self):
        with pytest.raises(StoreError):
            PulseClient(("127.0.0.1", 1), retries=-1)
        with pytest.raises(StoreError):
            PulseClient(("127.0.0.1", 1), backoff=-0.1)
        for timeout in (None, "1", 0, -1.0, float("nan"), float("inf")):
            with pytest.raises(StoreError, match="timeout"):
                PulseClient(("127.0.0.1", 1), timeout=timeout)


@pytest.fixture()
def refusing():
    """An address bound without ``listen()``: every dial is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield sock.getsockname()[:2]


class TestLoadgen:
    def test_closed_loop_serves_every_pulse(self, handle, store):
        trace = synthetic_trace(store.keys(), 200, seed=0)
        report = run_closed_loop(handle.address, trace, batch_size=16, connections=2)
        assert report.requests_ok == report.requests_sent
        assert report.errors == 0
        assert report.pulses_ok == len(trace)
        assert report.late_s == ()
        assert set(report.as_dict()["late_ms"].values()) == {None}

    def test_open_loop_accounts_for_every_request(self, handle, store):
        trace = synthetic_trace(store.keys(), 128, seed=1)
        # More connection threads than cores, switching often: a lost
        # update to the shared books would break the sum below.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = run_open_loop(
                handle.address, trace, rate=200.0, batch_size=8, connections=6,
                max_outstanding=4,
            )
        finally:
            sys.setswitchinterval(interval)
        assert report.requests_ok + report.overloads + report.errors == (
            report.requests_sent
        )
        assert report.requests_ok > 0 and report.errors == 0
        assert report.peak_outstanding <= report.max_outstanding
        # The generator's own lateness: one sample per arrival.
        assert len(report.late_s) == report.requests_sent + report.skipped == 16
        assert min(report.late_s) >= 0.0
        assert report.as_dict()["late_ms"]["p99"] >= 0.0

    def test_scheduling_failure_still_joins_every_connection(
        self, handle, store, monkeypatch
    ):
        # The third arrival time is not a number, so the scheduling
        # thread raises after two batches are queued; in dev mode a
        # socket left open by a connection thread fails the run.
        monkeypatch.setattr(
            loadgen, "arrival_times", lambda n, rate, seed: [0.0, 0.0, None]
        )
        trace = synthetic_trace(store.keys(), 24, seed=2)
        with pytest.raises(TypeError):
            run_open_loop(handle.address, trace, rate=100.0, batch_size=8)
        assert not [t for t in threading.enumerate() if "_connection" in t.name]

    def test_refused_dial_is_an_error_in_both_loops(self, store, refusing):
        trace = synthetic_trace(store.keys(), 64, seed=0)
        for report in (
            run_closed_loop(refusing, trace, batch_size=8, connections=2),
            run_open_loop(refusing, trace, rate=1000.0, batch_size=8, connections=2),
        ):
            assert report.requests_sent == 8
            assert report.errors == report.requests_sent
            assert report.requests_ok == report.overloads == 0

    def test_cli_exits_1_on_a_refused_dial(self, store, refusing, tmp_path, capsys):
        path = write_trace(store.keys()[:4], tmp_path / "trace.json")
        host, port = refusing
        assert main(["loadgen", f"{host}:{port}", "--trace", str(path)]) == 1
        assert "0/1" in capsys.readouterr().out

    def test_arrival_times_start_at_zero_and_never_decrease(self):
        schedule = arrival_times(64, rate=500.0, seed=3)
        assert len(schedule) == 64
        assert schedule[0] == 0.0
        assert np.all(np.diff(schedule) >= 0.0)

    def test_arrival_times_are_seeded(self):
        assert np.array_equal(
            arrival_times(32, rate=100.0, seed=5), arrival_times(32, rate=100.0, seed=5)
        )

    def test_arrival_times_validate_arguments(self):
        with pytest.raises(StoreError, match="n_requests"):
            arrival_times(0, rate=10.0)
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(StoreError, match="rate"):
                arrival_times(4, rate=rate)
