"""Zero-copy vectorized wire-format engine and fused parse→decode.

The scalar reader in :mod:`repro.compression.bitstream` walks a
``CQW1``/``CQL1`` blob one 32-bit word at a time through ``struct`` --
total and easy to audit, but it is pure Python on the serving cold-miss
critical path, which is exactly where COMPAQT says latency matters
(decompression happens at gate-issue time).  This module re-implements
the read side as numpy array passes over the same bytes:

* only the per-**window** u16 headers are walked in Python (their
  positions are data-dependent: each header says where the next one
  lives), and that walk just records offsets -- it never touches words;
* every per-**word** operation -- gathering the tagged 32-bit stream
  out of the buffer, splitting tags from payloads, checking reserved
  bits, zero-run placement, run lengths, per-window decoded sizes and
  stream canonicality -- happens in **one** batched numpy pass per
  call, covering every channel of every record in the call at once
  (per-channel passes would drown tiny windows in numpy fixed costs);
* the **fused** decode path (:func:`decode_record_bytes`,
  :func:`decode_records`, :func:`decode_library_bytes`) goes straight
  from those tag/payload arrays to one dense coefficient matrix and
  one grouped inverse kernel call per ``(codec, window size)`` --
  without ever materializing per-window
  :class:`~repro.transforms.rle.EncodedWindow` objects.

The scalar reader remains the conformance oracle:
:func:`parse_waveform_fast` / :func:`parse_library_fast` must return
objects equal to
:func:`~repro.compression.bitstream.parse_waveform_scalar` /
``parse_library_scalar`` on every input -- and raise
:class:`~repro.errors.CompressionError` on exactly the inputs the
oracle rejects (the object path may bypass ``EncodedWindow.__init__``
only because the batched pass has already enforced every invariant the
constructor checks).  ``tests/test_fastpath.py`` fuzzes this
equivalence on random, golden and malformed bytes across all
registered codecs, and the perf bench enforces it together with the
>=10x cold-miss speedup gate.

All entry points accept any C-contiguous bytes-like object (``bytes``,
``bytearray``, ``memoryview``, mmap slices), so the sharded store can
feed mmap-backed shard views through without copies; every array the
engine returns owns its data (gathers copy), so no view outlives the
call.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import CompressionError
from repro.compression.codecs import Codec
from repro.compression.pipeline import (
    CompressedChannel,
    CompressedWaveform,
)
from repro.compression.window import n_windows as expected_n_windows
from repro.pulses.waveform import Waveform
from repro.transforms.rle import TAG_ZERO_RUN, EncodedWindow

__all__ = [
    "parse_waveform_fast",
    "parse_library_fast",
    "decode_record_bytes",
    "decode_records",
    "decode_library_bytes",
    "scan_records",
]

_TAG_SHIFT = 16
_PAYLOAD_MASK = 0xFFFF
_TAG_MASK = 0x3
_RESERVED_MASK = np.uint32(
    0xFFFFFFFF ^ (_PAYLOAD_MASK | (_TAG_MASK << _TAG_SHIFT))
)


_BITSTREAM = None


def _bitstream():
    """Late import: bitstream dispatches here, so import lazily."""
    global _BITSTREAM
    if _BITSTREAM is None:
        from repro.compression import bitstream

        _BITSTREAM = bitstream
    return _BITSTREAM


def _as_u8(data) -> np.ndarray:
    """Zero-copy uint8 view of any C-contiguous bytes-like buffer."""
    try:
        return np.frombuffer(data, dtype=np.uint8)
    except (ValueError, TypeError, BufferError) as exc:
        raise CompressionError(f"unreadable bitstream buffer: {exc}") from None


def _make_window(coeffs: tuple, zero_run: int) -> EncodedWindow:
    """Construct an EncodedWindow without re-running its validation.

    The batched word pass has already enforced the constructor's
    invariants (non-negative run, trailing zeros folded into the
    codeword), so the object path skips the dataclass ``__init__`` /
    ``__post_init__`` -- the dominant cost of materializing thousands
    of tiny windows.
    """
    window = object.__new__(EncodedWindow)
    object.__setattr__(window, "coeffs", coeffs)
    object.__setattr__(window, "zero_run", zero_run)
    return window


def _make_waveform(name, samples, dt, gate, qubits) -> Waveform:
    """Construct a Waveform without re-running its validation.

    Every constructor invariant already holds by construction here:
    samples are a non-empty 1-D complex128 slice of a read-only batch
    array with magnitude clamped to <= 1, and dt was validated at scan
    time -- so the fused path skips the per-record ``asarray`` /
    ``abs``/``max`` pass.
    """
    waveform = object.__new__(Waveform)
    set_ = object.__setattr__
    set_(waveform, "name", name)
    set_(waveform, "samples", samples)
    set_(waveform, "dt", dt)
    set_(waveform, "gate", gate)
    set_(waveform, "qubits", qubits)
    set_(waveform, "metadata", {})
    return waveform


# Precompiled wire structs (struct.calcsize per call is measurable on
# the per-record header path).
_S_H = struct.Struct("<H")
_S_B = struct.Struct("<B")
_S_I = struct.Struct("<I")
_S_II = struct.Struct("<II")
_S_D = struct.Struct("<d")
_S_DD = struct.Struct("<dd")
_S_RECORD_HEAD = struct.Struct("<4sBBI")
_S_QUBITS: Dict[int, struct.Struct] = {}

#: Column offsets of a wire word's four little-endian bytes.
_BYTE_LANES = np.arange(4, dtype=np.int64)


# ---------------------------------------------------------------------------
# Bounds-checked header cursor (the scalar part: magics, strings, dt).
# ---------------------------------------------------------------------------


class _Cursor:
    """Tiny bounds-checked reader over any bytes-like buffer.

    Mirrors the scalar ``_Reader`` error phrasing so the fast path is
    indistinguishable from the oracle on malformed headers, but works
    on memoryviews/mmaps without copying the underlying buffer.
    """

    __slots__ = ("data", "offset", "end")

    def __init__(self, data, offset: int = 0, end: int | None = None) -> None:
        self.data = data
        self.offset = offset
        self.end = len(data) if end is None else end

    def take(self, count: int, what: str) -> bytes:
        start = self.offset
        stop = start + count
        if stop > self.end:
            raise CompressionError(
                f"truncated bitstream: needed {count} bytes for {what}, "
                f"had {self.end - start}"
            )
        self.offset = stop
        return bytes(self.data[start:stop])

    def unpack(self, compiled: struct.Struct, what: str) -> tuple:
        """Read one precompiled struct; always returns the value tuple."""
        start = self.offset
        stop = start + compiled.size
        if stop > self.end:
            raise CompressionError(
                f"truncated bitstream: needed {compiled.size} bytes for "
                f"{what}, had {self.end - start}"
            )
        self.offset = stop
        return compiled.unpack_from(self.data, start)

    def string(self, what: str) -> str:
        start = self.offset
        if start + 2 > self.end:
            raise CompressionError(
                f"truncated bitstream: needed 2 bytes for {what} length, "
                f"had {self.end - start}"
            )
        (length,) = _S_H.unpack_from(self.data, start)
        stop = start + 2 + length
        if stop > self.end:
            raise CompressionError(
                f"truncated bitstream: needed {length} bytes for {what}, "
                f"had {self.end - start - 2}"
            )
        self.offset = stop
        try:
            return bytes(self.data[start + 2 : stop]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CompressionError(f"invalid utf-8 in {what}: {exc}") from None

    def expect_end(self, what: str) -> None:
        if self.offset != self.end:
            raise CompressionError(
                f"{self.end - self.offset} trailing bytes after {what}"
            )


# ---------------------------------------------------------------------------
# Batched channel scan.
#
# Phase 1 (Python, cheap): walk the u16 window-header chain of each
# channel, recording absolute word positions.  Phase 2 (numpy, once per
# call): gather and validate every word of every recorded channel.
# ---------------------------------------------------------------------------


class _ChannelRef:
    """One channel's slice of the batch: windows [start, end)."""

    __slots__ = ("start", "end", "original_length")

    def __init__(self, start: int, end: int, original_length: int) -> None:
        self.start = start
        self.end = end
        self.original_length = original_length


class _ScanBatch:
    """Accumulates window geometry across every channel of one call."""

    __slots__ = ("u8", "counts", "ch_base", "decoded_sizes", "ch_windows")

    def __init__(self, u8: np.ndarray) -> None:
        self.u8 = u8
        self.counts: List[int] = []  # stored words per window
        self.ch_base: List[int] = []  # first header's absolute offset, per channel
        self.decoded_sizes: List[int] = []  # expected decode size, per channel
        self.ch_windows: List[int] = []  # window count, per channel

    def scan_channel(
        self, cursor: _Cursor, codec: Codec, window_size: int
    ) -> _ChannelRef:
        """Walk one channel block's headers; words are handled later.

        The loop only collects word counts -- absolute header offsets
        are reconstructed vectorized in :meth:`finalize` from the
        channel's base offset (each window is ``2 + 4 * n_words`` bytes
        past the previous one).  The cursor's buffer must be the
        batch's gather buffer (multi-record callers join their blobs
        before scanning), so cursor offsets are already absolute.
        """
        original_length, count = cursor.unpack(
            _S_II, "channel length and window count"
        )
        if original_length < 1:
            raise CompressionError("channel declares zero samples")
        if count != expected_n_windows(original_length, window_size):
            raise CompressionError(
                f"channel of {original_length} samples needs "
                f"{expected_n_windows(original_length, window_size)} windows "
                f"of {window_size}, stream declares {count}"
            )
        data, end = cursor.data, cursor.end
        offset = cursor.offset
        counts = self.counts
        append = counts.append
        start = len(counts)
        self.ch_base.append(offset)
        try:
            for _ in range(count):
                # One bounds check per window: if even the 2-byte header
                # overruns, the combined bound below fails too (and a
                # read past the physical buffer raises IndexError).
                n_words = data[offset] | (data[offset + 1] << 8)
                if n_words < 1:
                    raise CompressionError("window header declares zero words")
                step = 2 + 4 * n_words
                if offset + step > end:
                    raise CompressionError(
                        f"truncated bitstream: needed {step} bytes for a "
                        f"{n_words}-word window, had {end - offset}"
                    )
                append(n_words)
                offset += step
        except IndexError:
            raise CompressionError(
                f"truncated bitstream: needed 2 bytes for window header, "
                f"had {end - offset}"
            ) from None
        cursor.offset = offset
        self.decoded_sizes.append(codec.coeff_count(window_size))
        self.ch_windows.append(count)
        return _ChannelRef(start, len(counts), int(original_length))

    def finalize(self) -> "_WordData":
        """One vectorized gather + validation pass over every word."""
        counts = np.asarray(self.counts, dtype=np.int64)
        n_windows = counts.size
        total = int(counts.sum()) if n_windows else 0
        if not total:
            return _WordData(
                counts=counts,
                coeff_counts=counts,
                zero_runs=counts,
                coeff_values=np.empty(0, dtype=np.int64),
                coeff_bounds=counts,
            )

        # Rebuild each window's absolute header offset: within a
        # channel, window k starts 2 + 4 * n_words past window k - 1.
        steps = 4 * counts + 2
        rel = np.cumsum(steps) - steps
        ch_nw = np.asarray(self.ch_windows, dtype=np.int64)
        ch_first = np.cumsum(ch_nw) - ch_nw
        headers = rel + np.repeat(
            np.asarray(self.ch_base, dtype=np.int64) - rel[ch_first], ch_nw
        )

        starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        byte0 = np.repeat(headers + 2, counts) + 4 * within
        # One 2-D gather of each word's 4 bytes, reinterpreted as
        # little-endian u32 (fancy indexing yields a fresh contiguous
        # array, so the view is safe on any host endianness).
        words = self.u8[byte0[:, None] + _BYTE_LANES].view("<u4").ravel()

        reserved = words & _RESERVED_MASK
        if reserved.any():
            bad = int(words[np.flatnonzero(reserved)[0]])
            raise CompressionError(
                f"reserved bits set in memory word 0x{bad:08x}"
            )
        tags = (words >> _TAG_SHIFT) & _TAG_MASK
        if (tags > TAG_ZERO_RUN).any():
            bad_tag = int(tags[np.flatnonzero(tags > TAG_ZERO_RUN)[0]])
            raise CompressionError(f"unknown memory word tag {bad_tag}")

        payloads = (words & _PAYLOAD_MASK).astype(np.int64)
        is_run = tags == TAG_ZERO_RUN
        last_index = starts + counts - 1
        is_last = np.zeros(total, dtype=bool)
        is_last[last_index] = True
        if (is_run & ~is_last).any():
            raise CompressionError(
                "zero-run codeword must be the last word of a window"
            )
        run_last = is_run[last_index]
        zero_runs = np.where(run_last, payloads[last_index], 0)
        if (zero_runs[run_last] < 1).any():
            raise CompressionError("zero-run codeword with empty run")

        coeff_counts = counts - run_last
        decoded = coeff_counts + zero_runs
        expected = np.repeat(
            np.asarray(self.decoded_sizes, dtype=np.int64),
            np.asarray(self.ch_windows, dtype=np.int64),
        )
        if (decoded != expected).any():
            k = int(np.flatnonzero(decoded != expected)[0])
            raise CompressionError(
                f"window decodes to {int(decoded[k])} samples, expected "
                f"{int(expected[k])} ({int(coeff_counts[k])} coefficients "
                f"+ {int(zero_runs[k])}-zero run)"
            )
        # Canonicality: a window whose last explicit coefficient is
        # zero while a run codeword follows is one the serializer never
        # emits; the scalar oracle rejects it in
        # EncodedWindow.__post_init__, so both fast paths must too.
        check = run_last & (coeff_counts > 0)
        if check.any() and (payloads[last_index[check] - 1] == 0).any():
            raise CompressionError(
                "trailing zeros must be folded into the codeword"
            )

        is_coeff = ~is_run
        coeff_values = payloads[is_coeff]
        np.subtract(
            coeff_values,
            0x10000,
            out=coeff_values,
            where=coeff_values >= 0x8000,
        )  # two's complement int16
        return _WordData(
            counts=counts,
            coeff_counts=coeff_counts,
            zero_runs=zero_runs,
            coeff_values=coeff_values,
            coeff_bounds=np.cumsum(coeff_counts),
        )


class _WordData:
    """The batch's words, separated: per-window geometry + coefficients.

    ``coeff_values`` holds every explicit (sign-extended) coefficient
    of every window in stream order; window ``k`` owns
    ``coeff_values[coeff_bounds[k] - coeff_counts[k] : coeff_bounds[k]]``.
    """

    __slots__ = (
        "counts",
        "coeff_counts",
        "zero_runs",
        "coeff_values",
        "coeff_bounds",
        "_values_list",
    )

    def __init__(
        self, counts, coeff_counts, zero_runs, coeff_values, coeff_bounds
    ) -> None:
        self.counts = counts
        self.coeff_counts = coeff_counts
        self.zero_runs = zero_runs
        self.coeff_values = coeff_values
        self.coeff_bounds = coeff_bounds
        self._values_list = None

    # -- object path ---------------------------------------------------------

    def windows(self, ref: _ChannelRef) -> Tuple[EncodedWindow, ...]:
        """Materialize one channel's EncodedWindow objects."""
        if self._values_list is None:
            self._values_list = self.coeff_values.tolist()
        values = self._values_list
        bounds = self.coeff_bounds[ref.start : ref.end].tolist()
        runs = self.zero_runs[ref.start : ref.end].tolist()
        start = (
            int(self.coeff_bounds[ref.start] - self.coeff_counts[ref.start])
            if ref.end > ref.start
            else 0
        )
        out = []
        append = out.append
        for end, run in zip(bounds, runs):
            append(_make_window(tuple(values[start:end]), run))
            start = end
        return tuple(out)

    # -- fused path ----------------------------------------------------------

    def coeff_matrix(self, refs: Sequence[_ChannelRef], width: int) -> np.ndarray:
        """Dense coefficient matrix for the given channels, stacked.

        Row ``j`` is bit-identical to ``rle_decode_window`` of the
        ``j``-th window object: one zero allocation, one fancy-indexed
        scatter.
        """
        n_refs = len(refs)
        lens = np.fromiter(
            (ref.end - ref.start for ref in refs), dtype=np.int64, count=n_refs
        )
        n = int(lens.sum()) if n_refs else 0
        if n:
            ref_starts = np.fromiter(
                (ref.start for ref in refs), dtype=np.int64, count=n_refs
            )
            window_ids = np.repeat(
                ref_starts - (np.cumsum(lens) - lens), lens
            ) + np.arange(n, dtype=np.int64)
        else:
            window_ids = np.empty(0, dtype=np.int64)
        out = np.zeros((n, width), dtype=np.int64)
        cc = self.coeff_counts[window_ids]
        total = int(cc.sum())
        if total:
            rows = np.repeat(np.arange(n, dtype=np.int64), cc)
            local = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(cc) - cc, cc
            )
            src = np.repeat(self.coeff_bounds[window_ids] - cc, cc) + local
            out[rows, local] = self.coeff_values[src]
        return out


# ---------------------------------------------------------------------------
# Record scan.
# ---------------------------------------------------------------------------


class _RecordScan:
    """One scanned ``CQW1`` record: binding metadata + channel refs."""

    __slots__ = ("name", "gate", "qubits", "dt", "codec", "window_size",
                 "i_ref", "q_ref")

    def __init__(self, name, gate, qubits, dt, codec, window_size,
                 i_ref, q_ref) -> None:
        self.name = name
        self.gate = gate
        self.qubits = qubits
        self.dt = dt
        self.codec = codec
        self.window_size = window_size
        self.i_ref = i_ref
        self.q_ref = q_ref


def _read_qubits(cursor: _Cursor) -> Tuple[int, ...]:
    (n_qubits,) = cursor.unpack(_S_B, "qubit count")
    if not n_qubits:
        return ()
    compiled = _S_QUBITS.get(n_qubits)
    if compiled is None:
        compiled = _S_QUBITS.setdefault(n_qubits, struct.Struct(f"<{n_qubits}H"))
    return cursor.unpack(compiled, "qubit indices")


def _scan_record(cursor: _Cursor, batch: _ScanBatch) -> _RecordScan:
    bitstream = _bitstream()
    magic, variant_id, flags, window_size = cursor.unpack(
        _S_RECORD_HEAD, "waveform header"
    )
    if magic != bitstream.WAVEFORM_MAGIC:
        raise CompressionError("not a COMPAQT waveform bitstream (bad magic)")
    codec = bitstream._codec_for_id(variant_id)
    if flags != 0:
        raise CompressionError(f"reserved flags 0x{flags:02x} set")
    codec.check_window_size(window_size)
    name = cursor.string("waveform name")
    gate = cursor.string("gate name")
    qubits = _read_qubits(cursor)
    (dt,) = cursor.unpack(_S_D, "dt")
    if not dt > 0:
        raise CompressionError(f"dt must be positive, got {dt}")
    i_ref = batch.scan_channel(cursor, codec, window_size)
    q_ref = batch.scan_channel(cursor, codec, window_size)
    if i_ref.end - i_ref.start != q_ref.end - q_ref.start:
        raise CompressionError("I and Q channels must have equal window counts")
    return _RecordScan(
        name=name, gate=gate, qubits=qubits, dt=dt, codec=codec,
        window_size=window_size, i_ref=i_ref, q_ref=q_ref,
    )


def _record_to_waveform(scan: _RecordScan, words: _WordData) -> CompressedWaveform:
    def channel(ref: _ChannelRef) -> CompressedChannel:
        return CompressedChannel(
            windows=words.windows(ref),
            variant=scan.codec.name,
            window_size=scan.window_size,
            original_length=ref.original_length,
        )

    return CompressedWaveform(
        name=scan.name,
        gate=scan.gate,
        qubits=scan.qubits,
        dt=scan.dt,
        i_channel=channel(scan.i_ref),
        q_channel=channel(scan.q_ref),
    )


# ---------------------------------------------------------------------------
# Public object-parse fast paths.
# ---------------------------------------------------------------------------


def parse_waveform_fast(data) -> CompressedWaveform:
    """Vectorized :func:`~repro.compression.bitstream.parse_waveform`.

    Accepts any bytes-like buffer; returns objects equal to the scalar
    oracle's on every well-formed input and raises
    :class:`CompressionError` on every malformed one.
    """
    cursor = _Cursor(data)
    batch = _ScanBatch(_as_u8(data))
    scan = _scan_record(cursor, batch)
    cursor.expect_end("waveform record")
    return _record_to_waveform(scan, batch.finalize())


def _scan_library(cursor: _Cursor, batch: _ScanBatch):
    """Common library walk: yields (gate, qubits, mse, threshold, scan)."""
    bitstream = _bitstream()
    magic, variant_id, flags, window_size = cursor.unpack(
        _S_RECORD_HEAD, "library header"
    )
    if magic != bitstream.LIBRARY_MAGIC:
        raise CompressionError("not a COMPAQT library bitstream (bad magic)")
    variant = bitstream._codec_for_id(variant_id).name
    if flags != 0:
        raise CompressionError(f"reserved flags 0x{flags:02x} set")
    device_name = cursor.string("device name")
    (n_entries,) = cursor.unpack(_S_I, "entry count")
    rows = []
    for _ in range(n_entries):
        gate = cursor.string("gate name")
        qubits = _read_qubits(cursor)
        mse, threshold = cursor.unpack(_S_DD, "entry metrics")
        (record_len,) = cursor.unpack(_S_I, "record length")
        if cursor.offset + record_len > cursor.end:
            raise CompressionError(
                f"truncated bitstream: record of {record_len} bytes "
                f"overruns the container"
            )
        record = _Cursor(cursor.data, cursor.offset, cursor.offset + record_len)
        scan = _scan_record(record, batch)
        record.expect_end("waveform record")
        cursor.offset = record.end
        if scan.codec.name != variant:
            raise CompressionError(
                f"entry variant {scan.codec.name!r} disagrees with "
                f"container variant {variant!r}"
            )
        if (gate, qubits) != (scan.gate, scan.qubits):
            raise CompressionError(
                f"entry binding ({gate!r}, {qubits}) disagrees with its "
                f"waveform record ({scan.gate!r}, {scan.qubits})"
            )
        rows.append((gate, qubits, mse, threshold, scan))
    cursor.expect_end("library container")
    return device_name, window_size, variant, rows


def parse_library_fast(data):
    """Vectorized :func:`~repro.compression.bitstream.parse_library`."""
    bitstream = _bitstream()
    cursor = _Cursor(data)
    batch = _ScanBatch(_as_u8(data))
    device_name, window_size, variant, rows = _scan_library(cursor, batch)
    words = batch.finalize()
    entries = tuple(
        bitstream.LibraryEntry(
            gate=gate,
            qubits=qubits,
            mse=mse,
            threshold=threshold,
            compressed=_record_to_waveform(scan, words),
        )
        for gate, qubits, mse, threshold, scan in rows
    )
    return bitstream.LibraryBitstream(
        device_name=device_name,
        window_size=window_size,
        variant=variant,
        entries=entries,
    )


# ---------------------------------------------------------------------------
# Fused decode: bytes -> tag/payload arrays -> grouped inverse kernels.
# ---------------------------------------------------------------------------


def _decode_scans(
    scans: Sequence[_RecordScan], words: _WordData
) -> List[Waveform]:
    """Decode scanned records through one inverse kernel per group.

    Channels are grouped by ``(window_size, codec)``, expanded into one
    dense coefficient matrix per group, and inverted with one
    ``inverse_blocks`` call per group.  The codecs' block kernels are
    row-wise identical to their scalar ``inverse``, so the output is
    bit-identical to the scalar reference
    (:func:`~repro.compression.pipeline.decompress_waveform`), which
    ``tests/test_batch_decompression.py`` pins.
    """
    channels: List[Tuple[_ChannelRef, Codec, int]] = []
    for scan in scans:
        channels.append((scan.i_ref, scan.codec, scan.window_size))
        channels.append((scan.q_ref, scan.codec, scan.window_size))

    groups: Dict[Tuple[int, str], List[int]] = {}
    for index, (_ref, codec, ws) in enumerate(channels):
        groups.setdefault((ws, codec.name), []).append(index)

    for scan in scans:
        if scan.i_ref.original_length != scan.q_ref.original_length:
            # The scalar decoder would fail this record at the I/Q
            # combine; the fused path rejects it as the corruption it
            # is (the serializer always writes equal-length channels).
            raise CompressionError(
                f"I channel decodes {scan.i_ref.original_length} samples "
                f"but Q decodes {scan.q_ref.original_length}"
            )

    codes: List[np.ndarray] = [None] * len(channels)
    for (ws, _name), indices in groups.items():
        codec = channels[indices[0]][1]
        refs = [channels[i][0] for i in indices]
        recon = codec.inverse_blocks(
            words.coeff_matrix(refs, codec.coeff_count(ws))
        )
        flat = recon.reshape(-1)
        np.clip(flat, -32768, 32767, out=flat)
        width = recon.shape[1] if recon.ndim == 2 else ws
        offset = 0
        for i, ref in zip(indices, refs):
            count = ref.end - ref.start
            # Inline merge_windows: drop the tail window's zero padding.
            codes[i] = flat[
                offset * width : offset * width + ref.original_length
            ]
            offset += count

    # Finish in the sample domain once for the whole batch: gather and
    # dequantize the clipped I and Q codes straight into the real and
    # imaginary halves of one complex envelope, then magnitude-clamp
    # it, each in single array passes.  Elementwise, so bit-identical
    # to the per-record Waveform.from_fixed_point sequence: its
    # ``i + 1j * q`` adds only a signed zero to the real part, which
    # ``i / 32767 + (+-0.0)`` absorbs.  Each record then gets a slice.
    samples = np.empty(
        sum(scan.i_ref.original_length for scan in scans), dtype=np.complex128
    )
    for half, parts in ((samples.real, codes[0::2]), (samples.imag, codes[1::2])):
        np.concatenate(parts, out=half)
        half /= 32767.0
    magnitude = np.abs(samples)
    over = magnitude > 1.0
    if over.any():
        samples[over] /= magnitude[over]

    waveforms: List[Waveform] = []
    start = 0
    for scan in scans:
        end = start + scan.i_ref.original_length
        # Each record owns its samples (a shared-base slice would let
        # one cached pulse pin the whole batch's decoded memory).
        owned = samples if len(scans) == 1 else samples[start:end].copy()
        owned.setflags(write=False)
        waveforms.append(
            _make_waveform(
                name=f"{scan.name}~{scan.codec.name}",
                samples=owned,
                dt=scan.dt,
                gate=scan.gate,
                qubits=scan.qubits,
            )
        )
        start = end
    return waveforms


def decode_record_bytes(data) -> Waveform:
    """Fused bytes -> decoded waveform for one ``CQW1`` record.

    Bit-identical to
    ``decompress_waveform(parse_waveform(data))`` without building the
    intermediate ``EncodedWindow`` objects -- the serving cold-miss
    fast path for a single pulse.
    """
    cursor = _Cursor(data)
    batch = _ScanBatch(_as_u8(data))
    scan = _scan_record(cursor, batch)
    cursor.expect_end("waveform record")
    return _decode_scans([scan], batch.finalize())[0]


def _scan_joined(blobs: Sequence) -> Tuple[List[_RecordScan], _ScanBatch]:
    """Scan many standalone ``CQW1`` records out of one gather buffer.

    The blobs are joined once (one small copy of already-compressed
    bytes): the word gather becomes a single pass for all records,
    per-record cursors are reused, and the header walk always indexes
    plain bytes even when the caller handed us mmap views.
    """
    sizes = [len(blob) for blob in blobs]
    joined = b"".join(blobs)  # bytes.join accepts any buffer objects
    batch = _ScanBatch(_as_u8(joined))
    cursor = _Cursor(joined)
    scans: List[_RecordScan] = []
    base = 0
    for size in sizes:
        base += size
        cursor.end = base
        scan = _scan_record(cursor, batch)
        cursor.expect_end("waveform record")
        scans.append(scan)
    return scans, batch


def scan_records(blobs: Sequence) -> List[Tuple[str, Tuple[int, ...], Codec, int]]:
    """Validate many standalone ``CQW1`` records without decoding them.

    Runs the fused decoder's header scan and batched word pass -- every
    check :func:`parse_waveform_fast` makes -- and builds no per-window
    objects.  Returns each record's ``(gate, qubits, codec,
    window_size)``; raises :class:`CompressionError` on the first
    malformed record.  The store's compaction uses this to vouch for
    the records it copies verbatim.
    """
    scans, batch = _scan_joined(list(blobs))
    batch.finalize()
    return [(scan.gate, scan.qubits, scan.codec, scan.window_size) for scan in scans]


def decode_records(blobs: Sequence) -> List[Waveform]:
    """Fused decode of many standalone ``CQW1`` records.

    The records are scanned out of one gather buffer and decoded
    through one grouped inverse kernel call per ``(codec, window
    size)``; entry ``i`` is bit-identical to
    ``decompress_waveform(parse_waveform(blobs[i]))``.
    """
    blobs = list(blobs)
    if not blobs:
        raise CompressionError("cannot decode an empty record list")
    if len(blobs) == 1:
        return [decode_record_bytes(blobs[0])]
    scans, batch = _scan_joined(blobs)
    return _decode_scans(scans, batch.finalize())


def decode_library_bytes(
    data,
) -> List[Tuple[str, Tuple[int, ...], Waveform]]:
    """Fused decode of a whole ``CQL1`` container.

    Returns ``(gate, qubits, waveform)`` per entry, in container order,
    each waveform bit-identical to the scalar decode of that entry --
    the engine behind
    :meth:`repro.core.compiler.CompressedPulseLibrary.from_bytes`.
    """
    cursor = _Cursor(data)
    batch = _ScanBatch(_as_u8(data))
    _device, _ws, _variant, rows = _scan_library(cursor, batch)
    scans = [scan for _g, _q, _m, _t, scan in rows]
    waveforms = _decode_scans(scans, batch.finalize()) if scans else []
    return [
        (gate, qubits, waveform)
        for (gate, qubits, _m, _t, _s), waveform in zip(rows, waveforms)
    ]
