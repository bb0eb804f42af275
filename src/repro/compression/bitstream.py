"""Wire-format bitstream for compressed waveform libraries.

The compiler's output so far lived only as Python objects; shipping a
compiled library to the microarchitecture simulator (or persisting it
across calibration cycles) needs the paper's actual storage layout: a
stream of uniform-width tagged memory words with per-window headers
(Section IV-C / Fig 12).  This module packs a
:class:`~repro.compression.pipeline.CompressedWaveform` into that layout
and parses it back losslessly.

Memory words are 32-bit little-endian integers::

    bits  0..15   payload: int16 coefficient (two's complement) or the
                  unsigned zero-run length
    bits 16..17   tag: 00 coefficient, 01 zero-run codeword
    bits 18..31   reserved, must be zero

(Real hardware packs the two signature bits inside an 18-bit BRAM word;
the file format rounds up to 32 bits so the stream is byte-addressable.)

A **waveform record** is::

    magic   b"CQW1"
    u8      codec id (the codec's registered wire id: 0 DCT-N, 1 DCT-W,
            2 int-DCT-W, 3 delta, 4 dictionary, ...)
    u8      flags (reserved, zero)
    u32     window size (full-frame codecs: the whole pulse length)
    u16+s   name (utf-8, length-prefixed)
    u16+s   gate
    u8      qubit count, then u16 per qubit index
    f64     dt (seconds)
    2x      channel block (I then Q):
              u32 original sample count
              u32 window count
              per window: u16 word-count header, then that many words

A window must decode to exactly ``codec.coeff_count(window_size)``
coefficient slots (``window_size`` for the DCT family and delta;
``window_size + 1`` for the dictionary codec, whose leading slot is the
per-window dictionary entry).

A **library container** (magic ``b"CQL1"``) carries the device name and
compile configuration, then one length-prefixed waveform record per
entry together with its gate/qubit binding, MSE and threshold.  One
framer writes it (:func:`frame_library`): :func:`serialize_library_indexed`
hands it freshly serialized records, the store's compaction copies
existing records through it verbatim.

**Versioning.**  The codec id byte is the registry's wire id
(:func:`repro.compression.codecs.codec_for_wire_id`); ids 0..2 are the
frozen v1 layout, so every pre-registry ``CQW1``/``CQL1`` blob parses
byte-for-byte identically (a golden-bytes test pins this).  New codecs
claim new ids; an id this build does not know raises
:class:`~repro.errors.CompressionError` instead of guessing.

Parsing is total: every malformed input -- truncation, bad magic, an
unknown tag, a window size the codec cannot invert, a zero-run
overflowing its window, payload after the codeword, trailing garbage --
raises :class:`~repro.errors.CompressionError` rather than yielding
garbage samples.  Serialization is canonical, so ``serialize(parse(b)) == b``
for every stream this module produced.

**Fast path.**  :func:`parse_waveform` and :func:`parse_library`
dispatch to the vectorized zero-copy engine in
:mod:`repro.compression.fastpath` (numpy word gathers instead of
per-word ``struct`` loops); the original word-at-a-time reader is kept
as :func:`parse_waveform_scalar` / :func:`parse_library_scalar` -- the
conformance oracle the fuzz suite and the perf bench hold the fast
path equal to, byte for byte and error for error.  Serialization packs
each channel's word stream as one numpy array write
(:func:`_write_channel`); the scalar writer survives as
:func:`_write_channel_scalar` for the same oracle role.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import CompressionError
from repro.compression.codecs import Codec, codec_for_wire_id, get_codec
from repro.compression.pipeline import (
    CompressedChannel,
    CompressedWaveform,
)
from repro.compression.window import n_windows as expected_n_windows
from repro.transforms.rle import TAG_COEFF, TAG_ZERO_RUN, EncodedWindow

__all__ = [
    "WAVEFORM_MAGIC",
    "LIBRARY_MAGIC",
    "WORD_BYTES",
    "LibraryEntry",
    "LibraryBitstream",
    "RecordSpan",
    "serialize_waveform",
    "parse_waveform",
    "parse_waveform_scalar",
    "serialize_library",
    "serialize_library_indexed",
    "frame_library",
    "parse_library",
    "parse_library_scalar",
]

WAVEFORM_MAGIC = b"CQW1"
LIBRARY_MAGIC = b"CQL1"

#: Bytes per tagged memory word on the wire.
WORD_BYTES = 4

_TAG_SHIFT = 16
_PAYLOAD_MASK = 0xFFFF
_TAG_MASK = 0x3
_RESERVED_MASK = 0xFFFFFFFF ^ (_PAYLOAD_MASK | (_TAG_MASK << _TAG_SHIFT))


def _codec_for_name(name: str) -> Codec:
    """Resolve a codec name for serialization (must be registered)."""
    try:
        return get_codec(name)
    except CompressionError:
        raise CompressionError(f"unknown variant {name!r}") from None


def _codec_for_id(wire_id: int) -> Codec:
    """Resolve a parsed codec id (must be registered)."""
    try:
        return codec_for_wire_id(wire_id)
    except CompressionError:
        raise CompressionError(f"unknown variant id {wire_id}") from None


# ---------------------------------------------------------------------------
# Word packing.
# ---------------------------------------------------------------------------


def _pack_coeff_word(value: int) -> int:
    if not -32768 <= value <= 32767:
        raise CompressionError(
            f"coefficient {value} does not fit the 16-bit word payload"
        )
    return (TAG_COEFF << _TAG_SHIFT) | (value & _PAYLOAD_MASK)


def _pack_zero_run_word(run: int) -> int:
    if not 1 <= run <= _PAYLOAD_MASK:
        raise CompressionError(
            f"zero run {run} does not fit the 16-bit word payload"
        )
    return (TAG_ZERO_RUN << _TAG_SHIFT) | run


def _unpack_word(word: int) -> Tuple[int, int]:
    """Split a wire word into (tag, payload); payload sign depends on tag."""
    if word & _RESERVED_MASK:
        raise CompressionError(
            f"reserved bits set in memory word 0x{word:08x}"
        )
    tag = (word >> _TAG_SHIFT) & _TAG_MASK
    payload = word & _PAYLOAD_MASK
    if tag == TAG_COEFF and payload >= 0x8000:
        payload -= 0x10000  # two's complement coefficient
    return tag, payload


# ---------------------------------------------------------------------------
# Bounded little-endian reader/writer.
# ---------------------------------------------------------------------------


class _Writer:
    def __init__(self) -> None:
        self._parts: List[bytes] = []
        self._n_bytes = 0

    def raw(self, data: bytes) -> None:
        self._parts.append(data)
        self._n_bytes += len(data)

    def tell(self) -> int:
        """Bytes written so far (the offset of the next write)."""
        return self._n_bytes

    def pack(self, fmt: str, *values) -> None:
        try:
            self.raw(struct.pack("<" + fmt, *values))
        except struct.error as exc:
            raise CompressionError(
                f"value {values!r} does not fit wire field {fmt!r}: {exc}"
            ) from None

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        if len(data) > 0xFFFF:
            raise CompressionError(f"string of {len(data)} bytes exceeds u16 length")
        self.pack("H", len(data))
        self.raw(data)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    """Bounds-checked cursor; every overrun raises CompressionError."""

    def __init__(self, data: bytes, offset: int = 0, end: int | None = None) -> None:
        self.data = data
        self.offset = offset
        self.end = len(data) if end is None else end

    def take(self, count: int, what: str) -> bytes:
        if self.offset + count > self.end:
            raise CompressionError(
                f"truncated bitstream: needed {count} bytes for {what}, "
                f"had {self.end - self.offset}"
            )
        out = self.data[self.offset : self.offset + count]
        self.offset += count
        return out

    def unpack(self, fmt: str, what: str):
        size = struct.calcsize("<" + fmt)
        values = struct.unpack("<" + fmt, self.take(size, what))
        return values[0] if len(values) == 1 else values

    def string(self, what: str) -> str:
        length = self.unpack("H", f"{what} length")
        try:
            return self.take(length, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CompressionError(f"invalid utf-8 in {what}: {exc}") from None

    def expect_end(self, what: str) -> None:
        if self.offset != self.end:
            raise CompressionError(
                f"{self.end - self.offset} trailing bytes after {what}"
            )


# ---------------------------------------------------------------------------
# Window and channel blocks.
# ---------------------------------------------------------------------------


def _write_window(writer: _Writer, window: EncodedWindow) -> None:
    words = [_pack_coeff_word(c) for c in window.coeffs]
    if window.zero_run > 0:
        words.append(_pack_zero_run_word(window.zero_run))
    if not words:
        raise CompressionError("cannot serialize an empty window")
    if len(words) > 0xFFFF:
        raise CompressionError(
            f"window of {len(words)} words exceeds the u16 header"
        )
    writer.pack("H", len(words))
    for word in words:
        writer.pack("I", word)


def _read_window(reader: _Reader, decoded_size: int) -> EncodedWindow:
    n_words = reader.unpack("H", "window header")
    if n_words < 1:
        raise CompressionError("window header declares zero words")
    coeffs: List[int] = []
    zero_run = 0
    for index in range(n_words):
        tag, payload = _unpack_word(reader.unpack("I", "memory word"))
        if tag == TAG_COEFF:
            coeffs.append(payload)
        elif tag == TAG_ZERO_RUN:
            if index != n_words - 1:
                raise CompressionError(
                    "zero-run codeword must be the last word of a window"
                )
            zero_run = payload  # _pack guarantees >= 1 on our own streams
            if zero_run < 1:
                raise CompressionError("zero-run codeword with empty run")
        else:
            raise CompressionError(f"unknown memory word tag {tag}")
    decoded = len(coeffs) + zero_run
    if decoded != decoded_size:
        raise CompressionError(
            f"window decodes to {decoded} samples, expected {decoded_size} "
            f"({len(coeffs)} coefficients + {zero_run}-zero run)"
        )
    return EncodedWindow(coeffs=tuple(coeffs), zero_run=zero_run)


def _write_channel_scalar(writer: _Writer, channel: CompressedChannel) -> None:
    """Word-at-a-time channel writer: the serialization oracle."""
    writer.pack("I", channel.original_length)
    writer.pack("I", channel.n_windows)
    for window in channel.windows:
        _write_window(writer, window)


def _channel_block_bytes(channel: CompressedChannel) -> bytes:
    """Pack a channel's window stream as one numpy array write.

    A channel block after its two u32s is, on the wire, a little-endian
    u16 stream: for each window the u16 word-count header, then each
    32-bit word as two u16s (payload low half, tag high half).  The
    whole stream is laid out with vectorized scatters and serialized
    with a single ``tobytes()`` -- byte-identical to the scalar writer
    (``tests/test_fastpath.py`` pins the equality).
    """
    windows = channel.windows
    n = len(windows)
    counts = np.fromiter((w.n_words for w in windows), dtype=np.int64, count=n)
    if n and int(counts.min()) < 1:
        raise CompressionError("cannot serialize an empty window")
    if n and int(counts.max()) > 0xFFFF:
        raise CompressionError(
            f"window of {int(counts.max())} words exceeds the u16 header"
        )
    runs = np.fromiter((w.zero_run for w in windows), dtype=np.int64, count=n)
    if n and int(runs.max()) > _PAYLOAD_MASK:
        bad = int(runs[runs > _PAYLOAD_MASK][0])
        raise CompressionError(
            f"zero run {bad} does not fit the 16-bit word payload"
        )
    n_coeffs = int((counts - (runs > 0)).sum())
    coeffs = np.fromiter(
        (c for w in windows for c in w.coeffs), dtype=np.int64, count=n_coeffs
    )
    if n_coeffs and (
        int(coeffs.min()) < -32768 or int(coeffs.max()) > 32767
    ):
        bad = int(coeffs[(coeffs < -32768) | (coeffs > 32767)][0])
        raise CompressionError(
            f"coefficient {bad} does not fit the 16-bit word payload"
        )

    total_words = int(counts.sum())
    word_payload = np.empty(total_words, dtype=np.int64)
    word_tag = np.zeros(total_words, dtype=np.int64)
    last = np.cumsum(counts) - 1
    has_run = runs > 0
    word_tag[last[has_run]] = TAG_ZERO_RUN
    word_payload[word_tag == TAG_COEFF] = coeffs & _PAYLOAD_MASK
    word_payload[last[has_run]] = runs[has_run]

    # u16 layout: window k owns slots [starts[k], starts[k] + 1 + 2*n_k).
    starts = np.cumsum(1 + 2 * counts) - (1 + 2 * counts)
    stream = np.empty(n + 2 * total_words, dtype="<u2")
    stream[starts] = counts
    within = np.arange(total_words, dtype=np.int64)
    within -= np.repeat(np.cumsum(counts) - counts, counts)
    slots = np.repeat(starts, counts) + 1 + 2 * within
    stream[slots] = word_payload
    stream[slots + 1] = word_tag
    return stream.tobytes()


def _write_channel(writer: _Writer, channel: CompressedChannel) -> None:
    writer.pack("I", channel.original_length)
    writer.pack("I", channel.n_windows)
    writer.raw(_channel_block_bytes(channel))


def _read_channel(
    reader: _Reader, codec: Codec, window_size: int
) -> CompressedChannel:
    original_length = reader.unpack("I", "channel length")
    count = reader.unpack("I", "window count")
    if original_length < 1:
        raise CompressionError("channel declares zero samples")
    if count != expected_n_windows(original_length, window_size):
        raise CompressionError(
            f"channel of {original_length} samples needs "
            f"{expected_n_windows(original_length, window_size)} windows "
            f"of {window_size}, stream declares {count}"
        )
    decoded_size = codec.coeff_count(window_size)
    windows = tuple(_read_window(reader, decoded_size) for _ in range(count))
    return CompressedChannel(
        windows=windows,
        variant=codec.name,
        window_size=window_size,
        original_length=original_length,
    )


# ---------------------------------------------------------------------------
# Waveform records.
# ---------------------------------------------------------------------------


def serialize_waveform(compressed: CompressedWaveform) -> bytes:
    """Pack one compressed waveform into its canonical wire record."""
    codec = _codec_for_name(compressed.variant)
    if compressed.i_channel.variant != compressed.q_channel.variant:
        raise CompressionError(
            f"I and Q channels disagree on variant: "
            f"{compressed.i_channel.variant!r} vs "
            f"{compressed.q_channel.variant!r}"
        )
    if compressed.i_channel.window_size != compressed.q_channel.window_size:
        raise CompressionError("I and Q channels disagree on window size")
    writer = _Writer()
    writer.raw(WAVEFORM_MAGIC)
    writer.pack("BB", codec.wire_id, 0)
    writer.pack("I", compressed.window_size)
    writer.string(compressed.name)
    writer.string(compressed.gate)
    if len(compressed.qubits) > 0xFF:
        raise CompressionError(f"{len(compressed.qubits)} qubits exceed the u8 count")
    writer.pack("B", len(compressed.qubits))
    for qubit in compressed.qubits:
        writer.pack("H", qubit)
    writer.pack("d", compressed.dt)
    _write_channel(writer, compressed.i_channel)
    _write_channel(writer, compressed.q_channel)
    return writer.getvalue()


def _read_waveform(reader: _Reader) -> CompressedWaveform:
    if reader.take(4, "waveform magic") != WAVEFORM_MAGIC:
        raise CompressionError("not a COMPAQT waveform bitstream (bad magic)")
    variant_id, flags = reader.unpack("BB", "waveform header")
    codec = _codec_for_id(variant_id)
    if flags != 0:
        raise CompressionError(f"reserved flags 0x{flags:02x} set")
    window_size = reader.unpack("I", "window size")
    codec.check_window_size(window_size)
    name = reader.string("waveform name")
    gate = reader.string("gate name")
    n_qubits = reader.unpack("B", "qubit count")
    qubits = tuple(reader.unpack("H", "qubit index") for _ in range(n_qubits))
    dt = reader.unpack("d", "dt")
    if not dt > 0:
        raise CompressionError(f"dt must be positive, got {dt}")
    i_channel = _read_channel(reader, codec, window_size)
    q_channel = _read_channel(reader, codec, window_size)
    return CompressedWaveform(
        name=name,
        gate=gate,
        qubits=qubits,
        dt=dt,
        i_channel=i_channel,
        q_channel=q_channel,
    )


def parse_waveform_scalar(data: bytes) -> CompressedWaveform:
    """Word-at-a-time record parser: the conformance oracle.

    Functionally identical to :func:`parse_waveform` (which dispatches
    to the vectorized engine); kept as the reference the fuzz suite and
    the bench parity gates compare the fast path against.
    """
    reader = _Reader(bytes(data))
    compressed = _read_waveform(reader)
    reader.expect_end("waveform record")
    return compressed


def parse_waveform(data) -> CompressedWaveform:
    """Parse one standalone waveform record; rejects trailing bytes.

    Accepts any bytes-like buffer (``bytes``, ``memoryview``, mmap
    slices) and parses it through the zero-copy vectorized engine
    (:func:`repro.compression.fastpath.parse_waveform_fast`), which is
    held bit-identical to :func:`parse_waveform_scalar`.
    """
    from repro.compression.fastpath import parse_waveform_fast

    return parse_waveform_fast(data)


# ---------------------------------------------------------------------------
# Library containers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LibraryEntry:
    """One library slot: a gate binding plus its compressed waveform."""

    gate: str
    qubits: Tuple[int, ...]
    mse: float
    threshold: float
    compressed: CompressedWaveform


@dataclass(frozen=True, slots=True)
class LibraryBitstream:
    """A parsed (or about-to-be-serialized) compressed library image."""

    device_name: str
    window_size: int
    variant: str
    entries: Tuple[LibraryEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_bytes(self) -> int:
        return len(serialize_library(self))


@dataclass(frozen=True, slots=True)
class RecordSpan:
    """Byte extent of one embedded ``CQW1`` record inside a container.

    The sharded store (:mod:`repro.store`) persists these spans in its
    manifest so a single pulse record can be read with one
    seek-and-read -- ``container[offset : offset + length]`` is a
    complete standalone record for :func:`parse_waveform` -- without
    parsing the rest of the shard.
    """

    gate: str
    qubits: Tuple[int, ...]
    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


def serialize_library(library: LibraryBitstream) -> bytes:
    """Pack a whole compiled library into one canonical container."""
    return serialize_library_indexed(library)[0]


def serialize_library_indexed(
    library: LibraryBitstream,
) -> Tuple[bytes, Tuple[RecordSpan, ...]]:
    """Serialize a container and report each record's byte extent.

    Returns ``(blob, spans)`` where ``blob`` is exactly what
    :func:`serialize_library` produces and ``spans[i]`` locates entry
    ``i``'s embedded waveform record inside it.  Each entry's waveform
    is serialized, then framed by :func:`frame_library`.
    """
    records = []
    for entry in library.entries:
        # Fail at save time, not at a (possibly much later) load: the
        # container is single-variant, and the duplicated binding must
        # agree with the embedded record.
        if entry.compressed.variant != library.variant:
            raise CompressionError(
                f"entry variant {entry.compressed.variant!r} disagrees "
                f"with container variant {library.variant!r}"
            )
        if (entry.gate, entry.qubits) != (
            entry.compressed.gate,
            entry.compressed.qubits,
        ):
            raise CompressionError(
                f"entry binding ({entry.gate!r}, {entry.qubits}) disagrees "
                f"with its waveform record "
                f"({entry.compressed.gate!r}, {entry.compressed.qubits})"
            )
        records.append(
            (
                entry.gate,
                entry.qubits,
                entry.mse,
                entry.threshold,
                serialize_waveform(entry.compressed),
            )
        )
    return frame_library(
        library.device_name, library.window_size, library.variant, records
    )


def frame_library(
    device_name: str,
    window_size: int,
    variant: str,
    records: Sequence[Tuple[str, Tuple[int, ...], float, float, bytes]],
) -> Tuple[bytes, Tuple[RecordSpan, ...]]:
    """Frame already-serialized waveform records as one container.

    ``records`` holds ``(gate, qubits, mse, threshold, record)`` per
    entry, where ``record`` is any bytes-like ``CQW1`` record; it is
    copied verbatim behind its entry header.  Returns ``(blob, spans)``
    as :func:`serialize_library_indexed` does.  The framer checks only
    what it writes: the caller vouches that each record is valid and
    bound to its entry (the store's compaction scans them first).
    """
    codec = _codec_for_name(variant)
    writer = _Writer()
    writer.raw(LIBRARY_MAGIC)
    writer.pack("BB", codec.wire_id, 0)
    writer.pack("I", window_size)
    writer.string(device_name)
    writer.pack("I", len(records))
    spans: List[RecordSpan] = []
    for gate, qubits, mse, threshold, record in records:
        writer.string(gate)
        if len(qubits) > 0xFF:
            raise CompressionError(f"{len(qubits)} qubits exceed the u8 count")
        writer.pack("B", len(qubits))
        for qubit in qubits:
            writer.pack("H", qubit)
        writer.pack("dd", mse, threshold)
        writer.pack("I", len(record))
        spans.append(
            RecordSpan(
                gate=gate,
                qubits=qubits,
                offset=writer.tell(),
                length=len(record),
            )
        )
        writer.raw(record)
    return writer.getvalue(), tuple(spans)


def parse_library(data) -> LibraryBitstream:
    """Parse a library container back into entries, losslessly.

    Dispatches to the vectorized engine
    (:func:`repro.compression.fastpath.parse_library_fast`); the scalar
    oracle remains available as :func:`parse_library_scalar`.
    """
    from repro.compression.fastpath import parse_library_fast

    return parse_library_fast(data)


def parse_library_scalar(data: bytes) -> LibraryBitstream:
    """Word-at-a-time container parser: the conformance oracle."""
    reader = _Reader(bytes(data))
    if reader.take(4, "library magic") != LIBRARY_MAGIC:
        raise CompressionError("not a COMPAQT library bitstream (bad magic)")
    variant_id, flags = reader.unpack("BB", "library header")
    variant = _codec_for_id(variant_id).name
    if flags != 0:
        raise CompressionError(f"reserved flags 0x{flags:02x} set")
    window_size = reader.unpack("I", "window size")
    device_name = reader.string("device name")
    n_entries = reader.unpack("I", "entry count")
    entries: List[LibraryEntry] = []
    for _ in range(n_entries):
        gate = reader.string("gate name")
        n_qubits = reader.unpack("B", "qubit count")
        qubits = tuple(reader.unpack("H", "qubit index") for _ in range(n_qubits))
        mse, threshold = reader.unpack("dd", "entry metrics")
        record_len = reader.unpack("I", "record length")
        record = _Reader(
            reader.data, reader.offset, reader.offset + record_len
        )
        if record.end > reader.end:
            raise CompressionError(
                f"truncated bitstream: record of {record_len} bytes "
                f"overruns the container"
            )
        compressed = _read_waveform(record)
        record.expect_end("waveform record")
        reader.offset = record.end
        if compressed.variant != variant:
            raise CompressionError(
                f"entry variant {compressed.variant!r} disagrees with "
                f"container variant {variant!r}"
            )
        if (gate, qubits) != (compressed.gate, compressed.qubits):
            raise CompressionError(
                f"entry binding ({gate!r}, {qubits}) disagrees with its "
                f"waveform record ({compressed.gate!r}, {compressed.qubits})"
            )
        entries.append(
            LibraryEntry(
                gate=gate,
                qubits=qubits,
                mse=mse,
                threshold=threshold,
                compressed=compressed,
            )
        )
    reader.expect_end("library container")
    return LibraryBitstream(
        device_name=device_name,
        window_size=window_size,
        variant=variant,
        entries=tuple(entries),
    )
