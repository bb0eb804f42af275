"""The ``CQN1`` wire protocol: length-prefixed binary frames.

Every message travels as one frame::

    +----------------+---------------------------------------+
    | u32 LE length  | payload (length bytes)                |
    +----------------+---------------------------------------+

and every payload starts with a one-byte message type::

    requests                                   responses
    0x01 FETCH         mode + key batch        0x81 REPLY  status + body
    0x02 PING          (empty)
    0x03 STATS         (empty)
    0x04 KEYS          (empty)
    0x05 METRICS       u8 ext-version
    0x06 TRACES        u8 ext-version + u16 limit
    0x07 FETCH_TRACED  u8 ext-version + mode + u64 trace id
                       + u64 parent span id + key batch

Types ``0x05``-``0x07`` are the versioned telemetry extension
(:data:`OBS_EXT_VERSION`): ``METRICS`` returns the server's merged
registry snapshot and ``TRACES`` its most recent completed traces
(both as one JSON blob, exactly the ``STATS`` reply shape);
``FETCH_TRACED`` is a ``FETCH`` carrying the client's trace context so
the server's spans join the client's trace.  An untraced
:func:`encode_fetch` still emits a byte-identical ``0x01`` frame, so
old servers and clients interoperate whenever tracing is off.

A ``FETCH`` body is ``u8 mode`` (:data:`MODE_RECORD` for raw ``CQW1``
record bytes, :data:`MODE_SAMPLES` for decoded sample payloads) and a
``u16`` key count followed by the keys; a key is
``u16 gate-length + gate utf-8 + u8 qubit-count + u16 qubit...`` -- the
same ``(gate, qubits)`` channel binding every in-process layer uses.

A ``REPLY`` body is ``u8 status``:

- :data:`STATUS_OK`: ``u8`` echoed request type, then the
  type-specific body (fetch: ``u8 mode`` + ``u32`` item count +
  ``u32``-length-prefixed items; stats: one length-prefixed JSON blob;
  keys: a key batch; ping: empty).
- :data:`STATUS_OVERLOAD`: empty.  The server shed the request under
  admission control -- explicit backpressure instead of queueing.
- :data:`STATUS_ERROR`: ``u16`` length + utf-8 message.  The request
  was understood but could not be served (e.g. an unknown pulse key);
  the connection remains usable.

A :data:`MODE_SAMPLES` fetch item carries one decoded waveform::

    u16 name-length + name utf-8 + f64 dt + u32 n-samples
    + n complex128 LE samples

so the client-side :class:`~repro.pulses.waveform.Waveform` is
bit-identical to the server's decoded copy (the identity gate of
``BENCH_network.json`` holds the whole wire path to that).  A
:data:`MODE_RECORD` item is the pulse's raw ``CQW1`` record, byte-equal
to :meth:`repro.store.ShardedStore.read_record_bytes`.

Parsing is **total**: every decoder consumes its exact byte span and
raises :class:`~repro.errors.ProtocolError` on truncation, trailing
bytes, out-of-range counts, unknown types or statuses, and length
prefixes beyond the frame bound.  Nothing in this module touches a
socket; the server and clients share these pure encoders/decoders.

Key batches and fetch replies are walked in one pass with precompiled
structs (``unpack_from`` at a running offset).  :func:`decode_reply`
slices fetch items as memoryviews of the payload, so a reply's
samples are copied once, by :func:`decode_samples_item`; encoders join
their parts behind the length prefix in one copy (:func:`frame`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ProtocolError
from repro.pulses.waveform import Waveform

__all__ = [
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "MSG_FETCH",
    "MSG_PING",
    "MSG_STATS",
    "MSG_KEYS",
    "MSG_METRICS",
    "MSG_TRACES",
    "MSG_FETCH_TRACED",
    "MSG_REPLY",
    "OBS_EXT_VERSION",
    "MAX_TRACES_PER_REQUEST",
    "MODE_RECORD",
    "MODE_SAMPLES",
    "STATUS_OK",
    "STATUS_OVERLOAD",
    "STATUS_ERROR",
    "MAX_FRAME_BYTES",
    "MAX_REQUEST_FRAME_BYTES",
    "MAX_KEYS_PER_REQUEST",
    "FetchRequest",
    "PingRequest",
    "StatsRequest",
    "KeysRequest",
    "MetricsRequest",
    "TracesRequest",
    "Reply",
    "frame",
    "parse_frame_length",
    "encode_fetch",
    "encode_ping",
    "encode_stats",
    "encode_keys",
    "encode_metrics",
    "encode_traces",
    "decode_request",
    "encode_reply_fetch",
    "encode_reply_ping",
    "encode_reply_stats",
    "encode_reply_keys",
    "encode_reply_metrics",
    "encode_reply_traces",
    "encode_reply_overload",
    "encode_reply_error",
    "decode_reply",
    "encode_samples_item",
    "decode_samples_item",
]

PROTOCOL_MAGIC = "CQN1"
PROTOCOL_VERSION = 1

MSG_FETCH = 0x01
MSG_PING = 0x02
MSG_STATS = 0x03
MSG_KEYS = 0x04
MSG_METRICS = 0x05
MSG_TRACES = 0x06
MSG_FETCH_TRACED = 0x07
MSG_REPLY = 0x81

#: Version byte leading every telemetry-extension request body; a
#: server that does not speak the version rejects the frame instead of
#: guessing at its layout.
OBS_EXT_VERSION = 1

#: Largest number of recent traces one TRACES request may ask for.
MAX_TRACES_PER_REQUEST = 1024

_REQUEST_TYPES = (
    MSG_FETCH,
    MSG_PING,
    MSG_STATS,
    MSG_KEYS,
    MSG_METRICS,
    MSG_TRACES,
    MSG_FETCH_TRACED,
)

MODE_RECORD = 0
MODE_SAMPLES = 1

STATUS_OK = 0
STATUS_OVERLOAD = 1
STATUS_ERROR = 2

#: Hard bound on any frame this implementation will read (responses
#: carrying whole decoded batches are the large direction).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Server-side bound on inbound request frames; a length prefix past
#: this closes the connection (the stream can no longer be trusted).
MAX_REQUEST_FRAME_BYTES = 1 * 1024 * 1024

#: Largest key batch one FETCH may carry.
MAX_KEYS_PER_REQUEST = 4096

_Key = Tuple[str, Tuple[int, ...]]

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
#: A samples item's ``f64 dt + u32 n-samples``, after its name.
_DT_COUNT = struct.Struct("<dI")
#: ``u8 qubit-count + u16 qubit...`` per qubit count, compiled on first use.
_QUBIT_STRUCTS: Dict[int, struct.Struct] = {}


@dataclass(frozen=True, slots=True)
class FetchRequest:
    """A decoded FETCH: serve these pulse keys in this mode.

    ``trace_id``/``parent_span_id`` are set when the frame was a
    ``FETCH_TRACED``: the client sampled this request, and the
    server's spans should attach under the client's fetch span.
    """

    mode: int
    keys: Tuple[_Key, ...]
    trace_id: Optional[int] = None
    parent_span_id: int = 0


@dataclass(frozen=True, slots=True)
class PingRequest:
    """A liveness probe; the reply carries no body."""


@dataclass(frozen=True, slots=True)
class StatsRequest:
    """Ask the server for its counter snapshot (JSON body in the reply)."""


@dataclass(frozen=True, slots=True)
class KeysRequest:
    """Ask the server for the store's full key inventory."""


@dataclass(frozen=True, slots=True)
class MetricsRequest:
    """Ask the server for its merged registry snapshot (JSON reply)."""


@dataclass(frozen=True, slots=True)
class TracesRequest:
    """Ask the server for its most recent completed traces (JSON reply)."""

    limit: int


@dataclass(frozen=True, slots=True)
class Reply:
    """A decoded server reply.

    ``echo_type`` / ``mode`` / ``items`` are populated for
    :data:`STATUS_OK`; ``message`` for :data:`STATUS_ERROR`.
    """

    status: int
    echo_type: int = 0
    mode: int = MODE_SAMPLES
    #: Fetch items are memoryviews of the reply payload (no copy); the
    #: STATS / METRICS / TRACES blob is ``bytes``.
    items: Tuple[Union[bytes, memoryview], ...] = ()
    keys: Tuple[_Key, ...] = ()
    message: str = ""


def _truncated(want: int, pos: int, end: int) -> ProtocolError:
    return ProtocolError(
        f"truncated payload: wanted {want} bytes at offset {pos}, have {end - pos}"
    )


class _Cursor:
    """A bounds-checked reader over one payload's bytes.

    Over a memoryview, :meth:`take` slices without copying.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: Union[bytes, memoryview]) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> Union[bytes, memoryview]:
        if n < 0 or self.pos + n > len(self.data):
            raise _truncated(n, self.pos, len(self.data))
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing bytes after payload"
            )


# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------


def frame(*parts: Union[bytes, bytearray, memoryview]) -> bytes:
    """Join ``parts`` into one payload behind its u32 length prefix.

    The prefix is written in the same join as the payload, so the
    payload bytes are copied once.
    """
    length = sum(map(len, parts))
    if not length:
        raise ProtocolError("cannot frame an empty payload")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"payload of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    return b"".join((_U32.pack(length), *parts))


def parse_frame_length(header: bytes, max_frame: int = MAX_FRAME_BYTES) -> int:
    """Validate a 4-byte length prefix; returns the payload length."""
    if len(header) != 4:
        raise ProtocolError(f"frame header is {len(header)} bytes, expected 4")
    (length,) = _U32.unpack(header)
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte bound"
        )
    return length


# ---------------------------------------------------------------------------
# Keys.
# ---------------------------------------------------------------------------


def _qubit_struct(n_qubits: int) -> struct.Struct:
    compiled = _QUBIT_STRUCTS.get(n_qubits)
    if compiled is None:
        compiled = _QUBIT_STRUCTS.setdefault(
            n_qubits, struct.Struct(f"<B{n_qubits}H")
        )
    return compiled


def _encode_key_batch(keys: Sequence[Tuple[str, Sequence[int]]]) -> List[bytes]:
    """A key batch as the parts :func:`frame` joins: the u16 count, then
    per key its gate length, gate bytes and one qubit-struct pack."""
    if not keys:
        raise ProtocolError("a key batch must name at least one pulse")
    if len(keys) > MAX_KEYS_PER_REQUEST:
        raise ProtocolError(
            f"{len(keys)} keys exceed the {MAX_KEYS_PER_REQUEST}-key bound"
        )
    parts = [_U16.pack(len(keys))]
    append = parts.append
    for gate, qubits in keys:
        gate_bytes = gate.encode("utf-8")
        if not gate_bytes or len(gate_bytes) > 0xFFFF:
            raise ProtocolError(f"gate name {gate!r} does not fit the wire key")
        qubits = tuple(map(int, qubits))
        n_qubits = len(qubits)
        if n_qubits > 0xFF:
            raise ProtocolError(f"{n_qubits} qubits exceed the u8 key bound")
        try:
            tail = _qubit_struct(n_qubits).pack(n_qubits, *qubits)
        except struct.error:
            raise ProtocolError(f"qubit indices {qubits} do not fit u16") from None
        append(_U16.pack(len(gate_bytes)))
        append(gate_bytes)
        append(tail)
    return parts


def _decode_key_batch(cursor: _Cursor) -> Tuple[_Key, ...]:
    """Walk a key batch from the cursor's offset with ``unpack_from``."""
    n_keys = cursor.u16()
    if n_keys == 0:
        raise ProtocolError("a key batch must name at least one pulse")
    if n_keys > MAX_KEYS_PER_REQUEST:
        raise ProtocolError(
            f"{n_keys} keys exceed the {MAX_KEYS_PER_REQUEST}-key bound"
        )
    data, pos, end = cursor.data, cursor.pos, len(cursor.data)
    keys = []
    append = keys.append
    for _ in range(n_keys):
        if pos + 2 > end:
            raise _truncated(2, pos, end)
        (gate_len,) = _U16.unpack_from(data, pos)
        if gate_len == 0:
            raise ProtocolError("wire key has an empty gate name")
        pos += 2
        stop = pos + gate_len
        if stop >= end:  # the gate bytes and the qubit-count byte
            raise _truncated(gate_len + 1, pos, end)
        try:
            gate = str(data[pos:stop], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"wire key gate is not utf-8: {exc}") from None
        n_qubits = data[stop]
        pos = stop + 1
        if n_qubits:
            if pos + 2 * n_qubits > end:
                raise _truncated(2 * n_qubits, pos, end)
            qubits = _qubit_struct(n_qubits).unpack_from(data, stop)[1:]
            pos += 2 * n_qubits
        else:
            qubits = ()
        append((gate, qubits))
    cursor.pos = pos
    return tuple(keys)


# ---------------------------------------------------------------------------
# Requests.
# ---------------------------------------------------------------------------


def encode_fetch(
    keys: Sequence[Tuple[str, Sequence[int]]],
    mode: int = MODE_SAMPLES,
    trace: Optional[Tuple[int, int]] = None,
) -> bytes:
    """Encode a FETCH request frame for a batch of pulse keys.

    With ``trace=(trace_id, parent_span_id)`` the frame is a
    ``FETCH_TRACED`` carrying that context; without it the bytes are
    identical to the pre-extension ``FETCH`` frame.
    """
    if mode not in (MODE_RECORD, MODE_SAMPLES):
        raise ProtocolError(f"unknown fetch mode {mode}")
    if trace is None:
        return frame(bytes([MSG_FETCH, mode]), *_encode_key_batch(keys))
    trace_id, parent_span_id = trace
    if not 0 < trace_id <= 0xFFFFFFFFFFFFFFFF:
        raise ProtocolError(f"trace id {trace_id} does not fit a non-zero u64")
    if not 0 <= parent_span_id <= 0xFFFFFFFFFFFFFFFF:
        raise ProtocolError(f"parent span id {parent_span_id} does not fit u64")
    return frame(
        bytes([MSG_FETCH_TRACED, OBS_EXT_VERSION, mode]),
        _U64.pack(trace_id),
        _U64.pack(parent_span_id),
        *_encode_key_batch(keys),
    )


def encode_ping() -> bytes:
    return frame(bytes([MSG_PING]))


def encode_stats() -> bytes:
    return frame(bytes([MSG_STATS]))


def encode_keys() -> bytes:
    return frame(bytes([MSG_KEYS]))


def encode_metrics() -> bytes:
    """Encode a METRICS request (versioned telemetry extension)."""
    return frame(bytes([MSG_METRICS, OBS_EXT_VERSION]))


def encode_traces(limit: int = 16) -> bytes:
    """Encode a TRACES request for up to ``limit`` recent traces."""
    if not 1 <= limit <= MAX_TRACES_PER_REQUEST:
        raise ProtocolError(
            f"traces limit must be in [1, {MAX_TRACES_PER_REQUEST}], got {limit}"
        )
    return frame(bytes([MSG_TRACES, OBS_EXT_VERSION]), _U16.pack(limit))


Request = Union[
    FetchRequest, PingRequest, StatsRequest, KeysRequest, MetricsRequest, TracesRequest
]


def _check_ext_version(cursor: _Cursor, msg_type: int) -> None:
    version = cursor.u8()
    if version != OBS_EXT_VERSION:
        raise ProtocolError(
            f"request 0x{msg_type:02x} speaks telemetry extension version "
            f"{version}; this server speaks {OBS_EXT_VERSION}"
        )


def decode_request(payload: bytes) -> Request:
    """Decode one request payload (total: malformed bytes raise)."""
    cursor = _Cursor(payload)
    msg_type = cursor.u8()
    if msg_type not in _REQUEST_TYPES:
        raise ProtocolError(f"unknown request type 0x{msg_type:02x}")
    if msg_type in (MSG_FETCH, MSG_FETCH_TRACED):
        trace_id = None
        parent_span_id = 0
        if msg_type == MSG_FETCH_TRACED:
            _check_ext_version(cursor, msg_type)
            mode = cursor.u8()
            trace_id = cursor.u64()
            if trace_id == 0:
                raise ProtocolError("traced fetch carries a zero trace id")
            parent_span_id = cursor.u64()
        else:
            mode = cursor.u8()
        if mode not in (MODE_RECORD, MODE_SAMPLES):
            raise ProtocolError(f"unknown fetch mode {mode}")
        keys = _decode_key_batch(cursor)
        cursor.finish()
        return FetchRequest(
            mode=mode, keys=keys, trace_id=trace_id, parent_span_id=parent_span_id
        )
    if msg_type == MSG_METRICS:
        _check_ext_version(cursor, msg_type)
        cursor.finish()
        return MetricsRequest()
    if msg_type == MSG_TRACES:
        _check_ext_version(cursor, msg_type)
        limit = cursor.u16()
        if not 1 <= limit <= MAX_TRACES_PER_REQUEST:
            raise ProtocolError(
                f"traces limit must be in [1, {MAX_TRACES_PER_REQUEST}], got {limit}"
            )
        cursor.finish()
        return TracesRequest(limit=limit)
    cursor.finish()
    if msg_type == MSG_PING:
        return PingRequest()
    if msg_type == MSG_STATS:
        return StatsRequest()
    return KeysRequest()


# ---------------------------------------------------------------------------
# Replies.
# ---------------------------------------------------------------------------


def encode_reply_fetch(mode: int, items: Sequence[bytes]) -> bytes:
    """Encode an OK fetch reply carrying one payload blob per key.

    The items are joined once, behind the frame's length prefix.
    """
    if mode not in (MODE_RECORD, MODE_SAMPLES):
        raise ProtocolError(f"unknown fetch mode {mode}")
    parts = [bytes([MSG_REPLY, STATUS_OK, MSG_FETCH, mode]), _U32.pack(len(items))]
    append = parts.append
    for item in items:
        append(_U32.pack(len(item)))
        append(item)
    return frame(*parts)


def encode_reply_ping() -> bytes:
    return frame(bytes([MSG_REPLY, STATUS_OK, MSG_PING]))


def encode_reply_stats(stats_json: bytes) -> bytes:
    return frame(
        bytes([MSG_REPLY, STATUS_OK, MSG_STATS]), _U32.pack(len(stats_json)), stats_json
    )


def encode_reply_keys(keys: Sequence[Tuple[str, Sequence[int]]]) -> bytes:
    return frame(bytes([MSG_REPLY, STATUS_OK, MSG_KEYS]), *_encode_key_batch(keys))


def encode_reply_metrics(metrics_json: bytes) -> bytes:
    """OK reply to METRICS: one length-prefixed JSON blob (STATS shape)."""
    return frame(
        bytes([MSG_REPLY, STATUS_OK, MSG_METRICS]),
        _U32.pack(len(metrics_json)),
        metrics_json,
    )


def encode_reply_traces(traces_json: bytes) -> bytes:
    """OK reply to TRACES: one length-prefixed JSON blob (STATS shape)."""
    return frame(
        bytes([MSG_REPLY, STATUS_OK, MSG_TRACES]),
        _U32.pack(len(traces_json)),
        traces_json,
    )


def encode_reply_overload() -> bytes:
    """Explicit admission-control shed: no body, the client backs off."""
    return frame(bytes([MSG_REPLY, STATUS_OVERLOAD]))


def encode_reply_error(message: str) -> bytes:
    data = message.encode("utf-8")[:0xFFFF]
    return frame(bytes([MSG_REPLY, STATUS_ERROR]), _U16.pack(len(data)), data)


def decode_reply(payload: Union[bytes, bytearray, memoryview]) -> Reply:
    """Decode one reply payload (total: malformed bytes raise).

    Fetch items come back as memoryviews of ``payload``: nothing is
    copied until a consumer copies it.
    """
    cursor = _Cursor(memoryview(payload))
    msg_type = cursor.u8()
    if msg_type != MSG_REPLY:
        raise ProtocolError(f"expected a reply frame, got type 0x{msg_type:02x}")
    status = cursor.u8()
    if status == STATUS_OVERLOAD:
        cursor.finish()
        return Reply(status=STATUS_OVERLOAD)
    if status == STATUS_ERROR:
        length = cursor.u16()
        try:
            message = str(cursor.take(length), "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"error reply is not utf-8: {exc}") from None
        cursor.finish()
        return Reply(status=STATUS_ERROR, message=message)
    if status != STATUS_OK:
        raise ProtocolError(f"unknown reply status {status}")
    echo_type = cursor.u8()
    if echo_type == MSG_FETCH:
        mode = cursor.u8()
        if mode not in (MODE_RECORD, MODE_SAMPLES):
            raise ProtocolError(f"unknown fetch mode {mode}")
        n_items = cursor.u32()
        if n_items > MAX_KEYS_PER_REQUEST:
            raise ProtocolError(
                f"{n_items} reply items exceed the "
                f"{MAX_KEYS_PER_REQUEST}-key bound"
            )
        data, pos, end = cursor.data, cursor.pos, len(cursor.data)
        items = []
        append = items.append
        for _ in range(n_items):
            if pos + 4 > end:
                raise _truncated(4, pos, end)
            (length,) = _U32.unpack_from(data, pos)
            pos += 4
            stop = pos + length
            if stop > end:
                raise _truncated(length, pos, end)
            append(data[pos:stop])
            pos = stop
        cursor.pos = pos
        cursor.finish()
        return Reply(
            status=STATUS_OK, echo_type=MSG_FETCH, mode=mode, items=tuple(items)
        )
    if echo_type in (MSG_STATS, MSG_METRICS, MSG_TRACES):
        blob = bytes(cursor.take(cursor.u32()))
        cursor.finish()
        return Reply(status=STATUS_OK, echo_type=echo_type, items=(blob,))
    if echo_type == MSG_KEYS:
        keys = _decode_key_batch(cursor)
        cursor.finish()
        return Reply(status=STATUS_OK, echo_type=MSG_KEYS, keys=keys)
    if echo_type == MSG_PING:
        cursor.finish()
        return Reply(status=STATUS_OK, echo_type=MSG_PING)
    raise ProtocolError(f"reply echoes unknown request type 0x{echo_type:02x}")


# ---------------------------------------------------------------------------
# Decoded-sample items.
# ---------------------------------------------------------------------------


def encode_samples_item(waveform: Waveform) -> bytes:
    """Serialize one decoded waveform as a fetch-reply item.

    The complex128 sample bytes go over the wire verbatim, so the
    client-side reconstruction is bit-identical to the server's decoded
    waveform -- no re-quantization anywhere on the path.  The join reads
    the sample buffer in place: one copy.
    """
    name_bytes = waveform.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ProtocolError(f"waveform name {waveform.name!r} does not fit u16")
    samples = np.ascontiguousarray(waveform.samples, dtype=np.complex128)
    return b"".join(
        (
            _U16.pack(len(name_bytes)),
            name_bytes,
            _DT_COUNT.pack(float(waveform.dt), samples.size),
            memoryview(samples).cast("B"),
        )
    )


def decode_samples_item(
    item: Union[bytes, memoryview], gate: str, qubits: Tuple[int, ...]
) -> Waveform:
    """Rebuild a decoded waveform from its fetch-reply item bytes.

    The samples are copied once, out of ``item``, and the result is
    built through :class:`Waveform`, so every constructor check runs on
    bytes that came from outside the process.
    """
    end = len(item)
    if end < 2:
        raise _truncated(2, 0, end)
    (name_len,) = _U16.unpack_from(item, 0)
    start = 2 + name_len
    if start + _DT_COUNT.size > end:
        raise _truncated(name_len + _DT_COUNT.size, 2, end)
    dt, n_samples = _DT_COUNT.unpack_from(item, start)
    start += _DT_COUNT.size
    stop = start + 16 * n_samples
    if stop > end:
        raise _truncated(16 * n_samples, start, end)
    if stop < end:
        raise ProtocolError(f"{end - stop} trailing bytes after payload")
    try:
        name = str(item[2 : 2 + name_len], "utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"waveform name is not utf-8: {exc}") from None
    samples = np.frombuffer(
        item, dtype=np.complex128, count=n_samples, offset=start
    ).copy()
    try:
        return Waveform(
            name=name, samples=samples, dt=dt, gate=gate, qubits=qubits
        )
    except Exception as exc:
        raise ProtocolError(f"reply samples are not a valid waveform: {exc}") from None
