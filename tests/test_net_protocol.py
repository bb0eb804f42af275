"""Fuzz and conformance tests for the ``CQN1`` wire protocol.

The contract under test: the protocol codecs are *total*.  Every
well-formed message round-trips bit-exactly; every malformed byte
string -- truncated at any offset, padded with trailing bytes, carrying
unknown types/modes/statuses, or outright random -- raises
:class:`ProtocolError`.  Nothing hangs, nothing returns garbage, and no
other exception type escapes.
"""

import random
import struct

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.pulses.waveform import Waveform
from repro.serve_net import protocol


KEYS = [("sx", (0,)), ("cx", (0, 1)), ("measure", (3,))]


def payload_of(frame_bytes: bytes) -> bytes:
    """Strip the u32 length prefix off an encoded frame."""
    length = protocol.parse_frame_length(frame_bytes[:4])
    assert len(frame_bytes) == 4 + length
    return frame_bytes[4:]


class TestFraming:
    def test_frame_round_trip(self):
        framed = protocol.frame(b"abc")
        assert protocol.parse_frame_length(framed[:4]) == 3
        assert framed[4:] == b"abc"

    def test_empty_payload_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.frame(b"")

    def test_zero_length_prefix_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_frame_length(struct.pack("<I", 0))

    def test_short_header_rejected(self):
        for n in range(4):
            with pytest.raises(ProtocolError):
                protocol.parse_frame_length(b"\x01" * n)

    def test_oversized_length_prefix_rejected(self):
        for length in (
            protocol.MAX_FRAME_BYTES + 1,
            0x7FFFFFFF,
            0xFFFFFFFF,
        ):
            with pytest.raises(ProtocolError):
                protocol.parse_frame_length(struct.pack("<I", length))

    def test_custom_bound_applies(self):
        header = struct.pack("<I", 1024)
        assert protocol.parse_frame_length(header) == 1024
        with pytest.raises(ProtocolError):
            protocol.parse_frame_length(header, max_frame=1023)


class TestRequestRoundTrip:
    @pytest.mark.parametrize("mode", [protocol.MODE_RECORD, protocol.MODE_SAMPLES])
    def test_fetch(self, mode):
        request = protocol.decode_request(payload_of(protocol.encode_fetch(KEYS, mode)))
        assert isinstance(request, protocol.FetchRequest)
        assert request.mode == mode
        assert request.keys == tuple(KEYS)

    def test_empties(self):
        assert isinstance(
            protocol.decode_request(payload_of(protocol.encode_ping())),
            protocol.PingRequest,
        )
        assert isinstance(
            protocol.decode_request(payload_of(protocol.encode_stats())),
            protocol.StatsRequest,
        )
        assert isinstance(
            protocol.decode_request(payload_of(protocol.encode_keys())),
            protocol.KeysRequest,
        )

    def test_unicode_gate_names(self):
        keys = [("θ-rot", (7, 65535))]
        request = protocol.decode_request(payload_of(protocol.encode_fetch(keys)))
        assert request.keys == (("θ-rot", (7, 65535)),)

    def test_empty_key_batch_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_fetch([])

    def test_oversized_key_batch_rejected_on_encode(self):
        keys = [("x", (0,))] * (protocol.MAX_KEYS_PER_REQUEST + 1)
        with pytest.raises(ProtocolError):
            protocol.encode_fetch(keys)

    def test_oversized_key_count_rejected_on_decode(self):
        # Hand-craft a FETCH claiming more keys than the bound allows.
        body = bytes([protocol.MSG_FETCH, protocol.MODE_SAMPLES])
        body += struct.pack("<H", protocol.MAX_KEYS_PER_REQUEST + 1)
        with pytest.raises(ProtocolError):
            protocol.decode_request(body)

    def test_unknown_request_type_rejected(self):
        for msg_type in (0x00, 0x08, 0x42, 0x81, 0xFF):
            with pytest.raises(ProtocolError):
                protocol.decode_request(bytes([msg_type]))

    def test_traced_fetch_round_trip(self):
        frame_bytes = protocol.encode_fetch(
            KEYS, protocol.MODE_SAMPLES, trace=(0xDEADBEEF, 0x1234)
        )
        request = protocol.decode_request(payload_of(frame_bytes))
        assert isinstance(request, protocol.FetchRequest)
        assert request.keys == tuple(KEYS)
        assert request.trace_id == 0xDEADBEEF
        assert request.parent_span_id == 0x1234

    def test_untraced_fetch_is_byte_identical_to_legacy(self):
        # trace=None must produce the pre-extension FETCH bytes exactly,
        # so old servers keep decoding new clients.
        assert protocol.encode_fetch(KEYS) == protocol.encode_fetch(KEYS, trace=None)
        payload = payload_of(protocol.encode_fetch(KEYS, trace=None))
        assert payload[0] == protocol.MSG_FETCH
        request = protocol.decode_request(payload)
        assert request.trace_id is None
        assert request.parent_span_id == 0

    def test_traced_fetch_rejects_bad_ids_on_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_fetch(KEYS, trace=(0, 0))  # zero trace id
        with pytest.raises(ProtocolError):
            protocol.encode_fetch(KEYS, trace=(1 << 64, 0))
        with pytest.raises(ProtocolError):
            protocol.encode_fetch(KEYS, trace=(1, -1))

    def test_traced_fetch_rejects_zero_trace_id_on_decode(self):
        good = bytearray(payload_of(protocol.encode_fetch(KEYS, trace=(1, 0))))
        good[3:11] = struct.pack("<Q", 0)  # trace id field
        with pytest.raises(ProtocolError):
            protocol.decode_request(bytes(good))

    def test_metrics_round_trip(self):
        request = protocol.decode_request(payload_of(protocol.encode_metrics()))
        assert isinstance(request, protocol.MetricsRequest)

    def test_traces_round_trip(self):
        request = protocol.decode_request(payload_of(protocol.encode_traces(limit=7)))
        assert isinstance(request, protocol.TracesRequest)
        assert request.limit == 7

    def test_traces_limit_bounds(self):
        with pytest.raises(ProtocolError):
            protocol.encode_traces(limit=0)
        with pytest.raises(ProtocolError):
            protocol.encode_traces(limit=protocol.MAX_TRACES_PER_REQUEST + 1)
        body = bytes([protocol.MSG_TRACES, protocol.OBS_EXT_VERSION])
        body += struct.pack("<H", protocol.MAX_TRACES_PER_REQUEST + 1)
        with pytest.raises(ProtocolError):
            protocol.decode_request(body)

    def test_wrong_extension_version_rejected(self):
        bad_version = protocol.OBS_EXT_VERSION + 1
        for good in (
            protocol.encode_metrics(),
            protocol.encode_traces(),
            protocol.encode_fetch(KEYS, trace=(1, 0)),
        ):
            payload = bytearray(payload_of(good))
            payload[1] = bad_version
            with pytest.raises(ProtocolError):
                protocol.decode_request(bytes(payload))

    def test_unknown_fetch_mode_rejected(self):
        good = bytearray(payload_of(protocol.encode_fetch(KEYS)))
        good[1] = 7  # mode byte
        with pytest.raises(ProtocolError):
            protocol.decode_request(bytes(good))

    def test_bad_keys_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_fetch([("", (0,))])
        with pytest.raises(ProtocolError):
            protocol.encode_fetch([("x", (-1,))])
        with pytest.raises(ProtocolError):
            protocol.encode_fetch([("x", (0x10000,))])
        with pytest.raises(ProtocolError):
            protocol.encode_fetch([("x", tuple(range(256)))])

    @pytest.mark.parametrize(
        "encoder",
        [
            lambda: protocol.encode_fetch(KEYS, protocol.MODE_SAMPLES),
            lambda: protocol.encode_fetch(KEYS, protocol.MODE_RECORD),
            lambda: protocol.encode_fetch(
                KEYS, protocol.MODE_SAMPLES, trace=(0xABCDEF, 77)
            ),
            protocol.encode_ping,
            protocol.encode_stats,
            protocol.encode_keys,
            protocol.encode_metrics,
            lambda: protocol.encode_traces(limit=9),
        ],
    )
    def test_every_truncation_raises(self, encoder):
        payload = payload_of(encoder())
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                protocol.decode_request(payload[:cut])

    @pytest.mark.parametrize(
        "encoder",
        [
            lambda: protocol.encode_fetch(KEYS),
            lambda: protocol.encode_fetch(KEYS, trace=(5, 5)),
            protocol.encode_ping,
            protocol.encode_stats,
            protocol.encode_keys,
            protocol.encode_metrics,
            lambda: protocol.encode_traces(),
        ],
    )
    def test_trailing_bytes_raise(self, encoder):
        payload = payload_of(encoder())
        with pytest.raises(ProtocolError):
            protocol.decode_request(payload + b"\x00")


class TestReplyRoundTrip:
    def test_fetch_reply(self):
        items = [b"alpha", b"", b"gamma" * 100]
        reply = protocol.decode_reply(
            payload_of(protocol.encode_reply_fetch(protocol.MODE_RECORD, items))
        )
        assert reply.status == protocol.STATUS_OK
        assert reply.echo_type == protocol.MSG_FETCH
        assert reply.mode == protocol.MODE_RECORD
        assert reply.items == tuple(items)

    def test_ping_stats_keys_replies(self):
        reply = protocol.decode_reply(payload_of(protocol.encode_reply_ping()))
        assert (reply.status, reply.echo_type) == (
            protocol.STATUS_OK,
            protocol.MSG_PING,
        )
        blob = b'{"requests": 3}'
        reply = protocol.decode_reply(payload_of(protocol.encode_reply_stats(blob)))
        assert reply.items == (blob,)
        reply = protocol.decode_reply(payload_of(protocol.encode_reply_keys(KEYS)))
        assert reply.keys == tuple(KEYS)

    def test_metrics_traces_replies(self):
        blob = b'{"counters": {"net.fetches": 12}}'
        reply = protocol.decode_reply(payload_of(protocol.encode_reply_metrics(blob)))
        assert (reply.status, reply.echo_type) == (
            protocol.STATUS_OK,
            protocol.MSG_METRICS,
        )
        assert reply.items == (blob,)
        blob = b'[{"trace_id": "00ff", "spans": []}]'
        reply = protocol.decode_reply(payload_of(protocol.encode_reply_traces(blob)))
        assert (reply.status, reply.echo_type) == (
            protocol.STATUS_OK,
            protocol.MSG_TRACES,
        )
        assert reply.items == (blob,)

    def test_overload_reply(self):
        reply = protocol.decode_reply(payload_of(protocol.encode_reply_overload()))
        assert reply.status == protocol.STATUS_OVERLOAD
        assert reply.items == ()

    def test_error_reply(self):
        reply = protocol.decode_reply(
            payload_of(protocol.encode_reply_error("no such pulse"))
        )
        assert reply.status == protocol.STATUS_ERROR
        assert reply.message == "no such pulse"

    def test_error_reply_clamps_long_messages(self):
        frame_bytes = protocol.encode_reply_error("x" * 100_000)
        reply = protocol.decode_reply(payload_of(frame_bytes))
        assert len(reply.message.encode()) == 0xFFFF

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_reply(bytes([protocol.MSG_REPLY, 9]))

    def test_unknown_echo_type_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_reply(bytes([protocol.MSG_REPLY, protocol.STATUS_OK, 0x42]))

    def test_request_type_rejected_as_reply(self):
        with pytest.raises(ProtocolError):
            protocol.decode_reply(payload_of(protocol.encode_ping()))

    def test_oversized_item_count_rejected(self):
        body = bytes(
            [
                protocol.MSG_REPLY,
                protocol.STATUS_OK,
                protocol.MSG_FETCH,
                protocol.MODE_RECORD,
            ]
        ) + struct.pack("<I", protocol.MAX_KEYS_PER_REQUEST + 1)
        with pytest.raises(ProtocolError):
            protocol.decode_reply(body)

    @pytest.mark.parametrize(
        "encoder",
        [
            lambda: protocol.encode_reply_fetch(protocol.MODE_SAMPLES, [b"ab", b"c"]),
            protocol.encode_reply_ping,
            lambda: protocol.encode_reply_stats(b"{}"),
            lambda: protocol.encode_reply_keys(KEYS),
            lambda: protocol.encode_reply_metrics(b'{"counters": {}}'),
            lambda: protocol.encode_reply_traces(b"[]"),
            protocol.encode_reply_overload,
            lambda: protocol.encode_reply_error("boom"),
        ],
    )
    def test_every_truncation_raises(self, encoder):
        payload = payload_of(encoder())
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                protocol.decode_reply(payload[:cut])

    def test_trailing_bytes_raise(self):
        payload = payload_of(protocol.encode_reply_overload())
        with pytest.raises(ProtocolError):
            protocol.decode_reply(payload + b"\x00")


class TestSamplesItem:
    def _waveform(self, n=64, seed=3):
        rng = np.random.default_rng(seed)
        samples = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.05
        return Waveform(
            name="sx_q0",
            samples=samples.astype(np.complex128),
            dt=2.2222e-10,
            gate="sx",
            qubits=(0,),
        )

    def test_round_trip_is_bit_identical(self):
        waveform = self._waveform()
        item = protocol.encode_samples_item(waveform)
        out = protocol.decode_samples_item(item, "sx", (0,))
        assert out.name == waveform.name
        assert out.dt == waveform.dt
        assert out.gate == "sx"
        assert out.qubits == (0,)
        assert out.samples.tobytes() == waveform.samples.tobytes()

    def test_every_truncation_raises(self):
        item = protocol.encode_samples_item(self._waveform(n=8))
        for cut in range(len(item)):
            with pytest.raises(ProtocolError):
                protocol.decode_samples_item(item[:cut], "sx", (0,))

    def test_trailing_bytes_raise(self):
        item = protocol.encode_samples_item(self._waveform(n=8))
        with pytest.raises(ProtocolError):
            protocol.decode_samples_item(item + b"\x00", "sx", (0,))

    def test_nan_dt_raises(self):
        item = bytearray(protocol.encode_samples_item(self._waveform(n=8)))
        dt_at = 2 + len("sx_q0")
        item[dt_at : dt_at + 8] = struct.pack("<d", float("nan"))
        with pytest.raises(ProtocolError):
            protocol.decode_samples_item(bytes(item), "sx", (0,))

    def test_nan_sample_raises(self):
        item = bytearray(protocol.encode_samples_item(self._waveform(n=8)))
        first_sample = 2 + len("sx_q0") + 12
        item[first_sample : first_sample + 8] = struct.pack("<d", float("nan"))
        with pytest.raises(ProtocolError):
            protocol.decode_samples_item(bytes(item), "sx", (0,))

    def test_memoryview_item_decodes_to_an_owned_copy(self):
        waveform = self._waveform()
        payload = bytearray(protocol.encode_samples_item(waveform))
        out = protocol.decode_samples_item(memoryview(payload), "sx", (0,))
        payload[-16:] = bytes(16)  # the receive buffer is reused or freed
        assert out.samples.tobytes() == waveform.samples.tobytes()
        assert not out.samples.flags.writeable


class TestRandomFuzz:
    """Seeded random-byte fuzz: only ProtocolError may escape."""

    def _corpus(self):
        rng = random.Random(0xC0DEC)
        cases = []
        for _ in range(300):
            cases.append(rng.randbytes(rng.randrange(0, 64)))
        # Mutations of valid payloads: flip one byte at a random offset.
        seeds = [
            payload_of(protocol.encode_fetch(KEYS)),
            payload_of(protocol.encode_fetch(KEYS, trace=(0xFEED, 3))),
            payload_of(protocol.encode_traces(limit=4)),
            payload_of(protocol.encode_reply_fetch(protocol.MODE_SAMPLES, [b"xy"])),
            payload_of(protocol.encode_reply_keys(KEYS)),
            payload_of(protocol.encode_reply_metrics(b'{"gauges": {}}')),
            payload_of(protocol.encode_reply_error("bad")),
        ]
        for seed_payload in seeds:
            for _ in range(100):
                mutated = bytearray(seed_payload)
                pos = rng.randrange(len(mutated))
                mutated[pos] ^= 1 << rng.randrange(8)
                cases.append(bytes(mutated))
        return cases

    def test_decoders_are_total(self):
        for blob in self._corpus():
            for decoder in (protocol.decode_request, protocol.decode_reply):
                try:
                    decoder(blob)
                except ProtocolError:
                    pass  # the only acceptable failure mode

    def test_request_frames_survive_reframing(self):
        # frame -> parse_frame_length -> decode is the full inbound path.
        framed = protocol.encode_fetch(KEYS)
        length = protocol.parse_frame_length(framed[:4])
        request = protocol.decode_request(framed[4 : 4 + length])
        assert request.keys == tuple(KEYS)


# ---------------------------------------------------------------------------
# Reference oracles: the per-key / per-cursor-call codecs the struct-walked
# ones replaced, kept here verbatim so the fast codecs are checked against
# them byte for byte.
# ---------------------------------------------------------------------------


class _OracleCursor:
    """A bounds-checked reader over one payload's bytes."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if n < 0 or self.pos + n > len(self.data):
            raise ProtocolError(
                f"truncated payload: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def finish(self):
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing bytes after payload"
            )


def _encode_key(gate, qubits):
    gate_bytes = gate.encode("utf-8")
    if not gate_bytes or len(gate_bytes) > 0xFFFF:
        raise ProtocolError(f"gate name {gate!r} does not fit the wire key")
    qubits = tuple(int(q) for q in qubits)
    if len(qubits) > 0xFF:
        raise ProtocolError(f"{len(qubits)} qubits exceed the u8 key bound")
    if any(not 0 <= q <= 0xFFFF for q in qubits):
        raise ProtocolError(f"qubit indices {qubits} do not fit u16")
    parts = [struct.pack("<H", len(gate_bytes)), gate_bytes, bytes([len(qubits)])]
    parts.extend(struct.pack("<H", q) for q in qubits)
    return b"".join(parts)


def _decode_key(cursor):
    gate_len = cursor.u16()
    if gate_len == 0:
        raise ProtocolError("wire key has an empty gate name")
    try:
        gate = cursor.take(gate_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"wire key gate is not utf-8: {exc}") from None
    n_qubits = cursor.u8()
    qubits = tuple(cursor.u16() for _ in range(n_qubits))
    return (gate, qubits)


def _oracle_decode_samples_item(item, gate, qubits):
    cursor = _OracleCursor(item)
    name_len = cursor.u16()
    try:
        name = cursor.take(name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"waveform name is not utf-8: {exc}") from None
    dt = cursor.f64()
    n_samples = cursor.u32()
    raw = cursor.take(n_samples * 16)
    cursor.finish()
    samples = np.frombuffer(raw, dtype=np.complex128).copy()
    try:
        return Waveform(name=name, samples=samples, dt=dt, gate=gate, qubits=qubits)
    except Exception as exc:
        raise ProtocolError(f"reply samples are not a valid waveform: {exc}") from None


def _oracle_key_batch(keys):
    if not keys or len(keys) > protocol.MAX_KEYS_PER_REQUEST:
        raise ProtocolError("key batch size out of bounds")
    return struct.pack("<H", len(keys)) + b"".join(_encode_key(g, q) for g, q in keys)


def _oracle_decode_request(payload):
    """The fetch branch built on the oracle key codec; the other request
    types take the unchanged cursor path of ``decode_request``."""
    cursor = _OracleCursor(payload)
    msg_type = cursor.u8()
    if msg_type not in (protocol.MSG_FETCH, protocol.MSG_FETCH_TRACED):
        return protocol.decode_request(payload)
    trace_id, parent_span_id = None, 0
    if msg_type == protocol.MSG_FETCH_TRACED:
        if cursor.u8() != protocol.OBS_EXT_VERSION:
            raise ProtocolError("wrong extension version")
        mode = cursor.u8()
        trace_id = cursor.u64()
        if trace_id == 0:
            raise ProtocolError("zero trace id")
        parent_span_id = cursor.u64()
    else:
        mode = cursor.u8()
    if mode not in (protocol.MODE_RECORD, protocol.MODE_SAMPLES):
        raise ProtocolError(f"unknown fetch mode {mode}")
    n_keys = cursor.u16()
    if not 0 < n_keys <= protocol.MAX_KEYS_PER_REQUEST:
        raise ProtocolError(f"{n_keys} keys out of bounds")
    keys = tuple(_decode_key(cursor) for _ in range(n_keys))
    cursor.finish()
    return protocol.FetchRequest(
        mode=mode, keys=keys, trace_id=trace_id, parent_span_id=parent_span_id
    )


def _outcome(decode, *args):
    """A decoder's result, or ``ProtocolError`` (any other error escapes)."""
    try:
        return decode(*args)
    except ProtocolError:
        return ProtocolError


def _variants(payload):
    """Every cut, one trailing byte, and every single-bit flip."""
    for cut in range(len(payload)):
        yield payload[:cut]
    yield payload + b"\x00"
    for pos in range(len(payload)):
        for bit in range(8):
            flipped = bytearray(payload)
            flipped[pos] ^= 1 << bit
            yield bytes(flipped)


GATE_NAMES = ["x", "sx", "cx", "measure", "θ-rot", "ñ", "門", "🙂", "rz(π/2)", "g" * 300]


def _key_corpus(rng, n_keys, max_qubits=255):
    keys = []
    for _ in range(n_keys):
        n_qubits = rng.choice([0, 1, 2, max_qubits, rng.randrange(max_qubits + 1)])
        qubits = tuple(
            rng.choice([0, 65535, rng.randrange(65536)]) for _ in range(n_qubits)
        )
        keys.append((rng.choice(GATE_NAMES), qubits))
    return keys


class TestCodecsMatchOracles:
    """The struct-walked codecs against the per-key / per-cursor-call
    oracles above: same bytes out, same results or same ProtocolError."""

    def _batches(self):
        rng = random.Random(0x5EED)
        return [
            _key_corpus(rng, 1),
            _key_corpus(rng, 1, max_qubits=0),
            _key_corpus(rng, 7),
            _key_corpus(rng, 40),
            _key_corpus(rng, protocol.MAX_KEYS_PER_REQUEST, max_qubits=4),
        ]

    def test_key_encoder_matches_oracle(self):
        for keys in self._batches():
            batch = _oracle_key_batch(keys)
            for mode in (protocol.MODE_RECORD, protocol.MODE_SAMPLES):
                assert protocol.encode_fetch(keys, mode) == protocol.frame(
                    bytes([protocol.MSG_FETCH, mode]) + batch
                )
            assert protocol.encode_fetch(keys, trace=(7, 9)) == protocol.frame(
                bytes([protocol.MSG_FETCH_TRACED, protocol.OBS_EXT_VERSION, 1])
                + struct.pack("<QQ", 7, 9)
                + batch
            )
            assert protocol.encode_reply_keys(keys) == protocol.frame(
                bytes([protocol.MSG_REPLY, protocol.STATUS_OK, protocol.MSG_KEYS])
                + batch
            )
            request = protocol.decode_request(payload_of(protocol.encode_fetch(keys)))
            assert request.keys == tuple(keys)

    @pytest.mark.parametrize(
        "key",
        [
            ("", (0,)),
            ("x" * 0xFFFF, (1,)),
            ("x" * 0x10000, (1,)),
            ("ü" * 0x8000, ()),
            ("x", tuple(range(255))),
            ("x", tuple(range(256))),
            ("x", (-1,)),
            ("x", (0x10000,)),
            ("x", (0, 1 << 40)),
            ("x", (np.int64(7), np.uint16(65535))),
            ("x", (2.0, True)),
        ],
        ids=[
            "empty-gate",
            "65535-byte-gate",
            "65536-byte-gate",
            "65536-byte-unicode-gate",
            "255-qubits",
            "256-qubits",
            "negative-qubit",
            "qubit-65536",
            "qubit-2**40",
            "numpy-ints",
            "float-and-bool",
        ],
    )
    def test_invalid_keys_raise_like_oracle(self, key):
        expected = _outcome(_encode_key, *key)
        got = _outcome(protocol.encode_fetch, [key])
        if expected is ProtocolError:
            assert got is ProtocolError
        else:
            assert got == protocol.frame(
                bytes([protocol.MSG_FETCH, protocol.MODE_SAMPLES])
                + struct.pack("<H", 1)
                + expected
            )

    def test_fetch_payload_decoder_matches_oracle(self):
        rng = random.Random(0xF00D)
        payloads = [
            payload_of(protocol.encode_fetch(_key_corpus(rng, 1, max_qubits=3))),
            payload_of(protocol.encode_fetch(KEYS + [("θ-rot", (0, 65535))])),
            payload_of(
                protocol.encode_fetch(
                    [("門", ()), ("x", (65535,))], protocol.MODE_RECORD, trace=(3, 4)
                )
            ),
        ]
        for payload in payloads:
            for variant in _variants(payload):
                expected = _outcome(_oracle_decode_request, variant)
                assert _outcome(protocol.decode_request, variant) == expected, variant

    def test_samples_item_decoder_matches_oracle(self):
        rng = np.random.default_rng(11)
        for name, n in (("sx_q0", 8), ("θ_門", 1), ("", 3)):
            samples = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.3
            waveform = Waveform(name=name, samples=samples, dt=2.5e-10)
            for variant in _variants(protocol.encode_samples_item(waveform)):
                expected = _outcome(_oracle_decode_samples_item, variant, "sx", (0,))
                got = _outcome(
                    protocol.decode_samples_item,
                    memoryview(bytearray(variant)),
                    "sx",
                    (0,),
                )
                if expected is ProtocolError:
                    assert got is ProtocolError, variant
                    continue
                assert got is not ProtocolError, variant
                assert (got.name, got.gate, got.qubits) == (
                    expected.name,
                    expected.gate,
                    expected.qubits,
                )
                assert struct.pack("<d", got.dt) == struct.pack("<d", expected.dt)
                assert got.samples.tobytes() == expected.samples.tobytes()
