"""The sharded pulse store: on-disk layout and reader.

A compiled :class:`~repro.core.compiler.CompressedPulseLibrary` so far
persisted as one monolithic ``CQL1`` container that every consumer had
to parse -- and decode -- in full.  A serving system wants the opposite
read path (the paper's whole premise is that decompression happens at
gate-issue time, not at load time): keep the *compressed* image on
disk, fetch single pulse records on demand, and decode only what is
actually played.

A **store** is a directory of committed generations::

    mystore.cqs/
      manifest-0000000001.json    generation 1 (magic ``CQS2``)
      shard-g0000000001-0000.cql  a plain CQL1 library container
      shard-g0000000001-0001.cql
      ...

:func:`repro.store.save_store` publishes generation 1; every
:class:`repro.store.StoreWriter` commit or compaction publishes the
next one (see :mod:`repro.store.writable`).  Each shard file is a
complete, standalone ``CQL1`` container (parseable by
:func:`repro.compression.bitstream.parse_library`).  Generation 1 holds
the entries whose channel key hashes to each shard:
``shard = crc32("gate|q0,q1") % n_shards``.  The hash is stable across
processes and platforms, so any client can route a request to its shard
without the manifest.

The manifest is JSON with a ``"magic": "CQS2"`` tag carrying the
generation, the library metadata (device, codec, window size), the
shard file table, tombstones for deleted keys, and a **byte-offset
index**: for every live pulse, its record version, the shard it lives
in and the ``(offset, length)`` span of its embedded ``CQW1`` waveform
record (:class:`~repro.compression.bitstream.RecordSpan`).  Reading one
pulse is therefore a single seek-and-read plus
:func:`~repro.compression.bitstream.parse_waveform` -- no shard parse,
no decode of neighbours.  A legacy ``CQS1`` ``manifest.json`` (the
same index without versions or tombstones) still opens, as generation
0; nothing writes one any more.

Everything that can be validated cheaply at open time is (magic,
version, shard files present with the recorded sizes, spans in range);
record reads re-validate through the total ``CQW1`` parser, so a
corrupt shard raises :class:`~repro.errors.StoreError` or
:class:`~repro.errors.CompressionError` instead of yielding garbage
samples.

**Read path.**  All shard reads go through an mmap pool
(:class:`_MmapPool`) that holds one mapping (and one file descriptor)
per file of the served generation: a shard file is opened and mapped
on its first read and stays mapped, record spans are served as
zero-copy memoryview slices of the mapping, and the vectorized
parse/decode engine (:mod:`repro.compression.fastpath`) consumes those
views directly -- no per-call ``open``/``seek``/``read``, no remap and
no intermediate byte copies on the cold-miss path.  ``close()`` (or
the context manager) releases every mapping deterministically; a store
remains usable after ``close`` -- the pool simply maps again on the
next read, which keeps shared-store setups (several servers over one
store) safe.
"""

from __future__ import annotations

import json
import mmap
import pathlib
import re
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import CompressionError, StoreError
from repro.obs import DEFAULT_SIZE_BOUNDS, default_registry
from repro.compression.bitstream import (
    LibraryBitstream,
    parse_library,
    parse_waveform,
)
from repro.compression.codecs import get_codec
from repro.compression.fastpath import decode_records
from repro.compression.pipeline import CompressedWaveform
from repro.pulses.waveform import Waveform

__all__ = [
    "STORE_MAGIC",
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC_V2",
    "STORE_FORMAT_VERSION_V2",
    "MANIFEST_NAME",
    "generation_manifest_name",
    "list_generation_manifests",
    "StoreRecord",
    "normalize_key",
    "ShardedStore",
    "shard_index",
    "open_store",
]

#: The legacy read-only format: one ``manifest.json``, opened as
#: generation 0 (unversioned entries, no tombstones).
STORE_MAGIC = "CQS1"
STORE_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
#: The format every store is written in: one manifest per committed
#: generation, with per-record versions and tombstones (see
#: :mod:`repro.store.writable`).  Shard files are plain ``CQL1``
#: containers either way.
STORE_MAGIC_V2 = "CQS2"
STORE_FORMAT_VERSION_V2 = 2

_GEN_MANIFEST_RE = re.compile(r"^manifest-(\d{10})\.json$")


def generation_manifest_name(generation: int) -> str:
    """The manifest file name for one committed CQS2 generation."""
    if generation < 1:
        raise StoreError(f"generation must be >= 1, got {generation}")
    return f"manifest-{generation:010d}.json"


def list_generation_manifests(root: pathlib.Path) -> List[Tuple[int, pathlib.Path]]:
    """Every manifest under ``root``, newest generation first.

    A legacy ``manifest.json``, if present, comes last as generation 0.
    """
    found = []
    for path in root.glob("manifest-*.json"):
        match = _GEN_MANIFEST_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    found.sort(key=lambda pair: pair[0], reverse=True)
    if (root / MANIFEST_NAME).is_file():
        found.append((0, root / MANIFEST_NAME))
    return found


_Key = Tuple[str, Tuple[int, ...]]


def normalize_key(gate: str, qubits: Sequence[int]) -> _Key:
    """Canonical channel key: every layer of the store agrees on this."""
    return (gate, tuple(map(int, qubits)))


def shard_index(gate: str, qubits: Sequence[int], n_shards: int) -> int:
    """Stable shard assignment for one channel key.

    Uses CRC-32 over the canonical ``"gate|q0,q1"`` spelling so the
    mapping is identical across Python processes, platforms, and hash
    randomization -- a request router does not need the manifest to
    know where a pulse lives.
    """
    if n_shards < 1:
        raise StoreError(f"n_shards must be >= 1, got {n_shards}")
    gate, qubits = normalize_key(gate, qubits)
    key = f"{gate}|{','.join(str(q) for q in qubits)}".encode("utf-8")
    return zlib.crc32(key) % n_shards


@dataclass(frozen=True, slots=True)
class StoreRecord:
    """One manifest index row: where a pulse lives and its metadata.

    ``version`` is the record's logical version: 1 for every record of
    a freshly saved (or legacy CQS1) store, bumped on each re-put by
    :class:`repro.store.writable.StoreWriter`.
    Caches invalidate on ``(key, version)`` change at generation
    adoption.
    """

    gate: str
    qubits: Tuple[int, ...]
    shard: int
    offset: int
    length: int
    mse: float
    threshold: float
    version: int = 1


class _MmapPool:
    """Thread-safe shard mmaps: one mapping per file of the served generation.

    Each shard file of the handle's generation is opened and
    memory-mapped at most once, on its first read, and stays mapped
    until ``close()``; record reads are zero-copy memoryview slices of
    the mapping.  Nothing is evicted, so a decode call that walks every
    file of its batch never remaps one.  The cost is one file
    descriptor (``mmap`` dups it) and one mapping per shard file read:
    the base layout's ``n_shards`` plus one file per commit since the
    last :meth:`~repro.store.StoreWriter.compact`, which only runs when
    a caller invokes it.

    ``close()`` drops every mapping.  A mapping whose buffer is still
    exported to a live view cannot be unmapped (Python raises
    ``BufferError``); the pool then simply drops its reference and the
    OS reclaims the mapping when the last view dies -- release is
    deterministic in the common case and never blocks or corrupts a
    concurrent reader.  A read after ``close()`` maps its file again
    (counted in ``store.mmap_reopens``; first maps count in
    ``store.mmap_opens``).

    ``fault_hook`` is the chaos harness's low-level injection point
    (see :mod:`repro.chaos`): when set, it is called as
    ``hook("view", shard)`` on every read (outside the pool lock, so a
    slow-I/O hook delays only its own reader) and ``hook("map", shard)``
    right before a shard file is mapped -- an ``OSError`` raised there
    takes the exact same translation path as a real failed ``mmap`` and
    surfaces as a typed :class:`~repro.errors.StoreError`.  ``None``
    (the default) costs one attribute read per view.
    """

    def __init__(
        self,
        paths: Tuple[pathlib.Path, ...],
        fault_hook: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self._paths = paths
        self._lock = threading.Lock()
        self._maps: Dict[int, mmap.mmap] = {}
        self._ever_mapped: set = set()
        self.fault_hook = fault_hook

    @staticmethod
    def _release(mapping: mmap.mmap) -> None:
        try:
            mapping.close()
        except BufferError:
            # A live view still borrows the buffer; dropping our
            # reference lets the OS reclaim it when the view dies.
            pass

    def view(self, shard: int) -> memoryview:
        """Zero-copy view over one whole shard file (mapped on first use)."""
        hook = self.fault_hook
        if hook is not None:
            hook("view", shard)
        with self._lock:
            mapping = self._maps.get(shard)
            if mapping is None:
                path = self._paths[shard]
                try:
                    if hook is not None:
                        hook("map", shard)
                    with path.open("rb") as handle:
                        # mmap dups the descriptor, so the handle can
                        # close immediately.
                        mapping = mmap.mmap(
                            handle.fileno(), 0, access=mmap.ACCESS_READ
                        )
                except (OSError, ValueError) as exc:
                    raise StoreError(
                        f"cannot map shard file {path}: {exc}"
                    ) from None
                # Resolved at event time so a swapped default registry
                # (the overhead bench's disabled leg) takes effect;
                # mapping is rare, the lookup cost is noise.
                registry = default_registry()
                if shard in self._ever_mapped:
                    registry.counter("store.mmap_reopens").inc()
                else:
                    registry.counter("store.mmap_opens").inc()
                    self._ever_mapped.add(shard)
                self._maps[shard] = mapping
            return memoryview(mapping)

    @property
    def open_count(self) -> int:
        with self._lock:
            return len(self._maps)

    def close(self) -> None:
        with self._lock:
            maps, self._maps = list(self._maps.values()), {}
        for mapping in maps:
            self._release(mapping)


class ShardedStore:
    """Read-side handle on one store generation: lazy, offset-indexed access.

    Opening a store reads and validates only the manifest; pulse bytes
    stay on disk until :meth:`read_record` (one zero-copy mmap view per
    pulse) or :meth:`read_shard` / :meth:`load_library` (eager paths)
    ask for them.  The object is safe to share across threads; call
    :meth:`close` (or use the store as a context manager) to release
    the mmap pool deterministically -- reads after ``close`` reopen on
    demand.  See :class:`repro.store.PulseCache` and
    :class:`repro.store.PulseServer` for the decoded-cache and
    concurrent front ends.
    """

    def __init__(
        self,
        path: pathlib.Path,
        device_name: str,
        variant: str,
        window_size: int,
        n_shards: int,
        shard_files: Tuple[str, ...],
        shard_sizes: Tuple[int, ...],
        index: Dict[_Key, StoreRecord],
        generation: int = 0,
        tombstones: Optional[Dict[_Key, int]] = None,
    ) -> None:
        self.path = path
        self.device_name = device_name
        self.variant = variant
        self.window_size = window_size
        # Hash-routing width (shard_index modulus).  A generation's
        # shard *table* can be wider: staged commit files append beyond
        # the base layout, so use ``shard_count`` to iterate files.
        self.n_shards = n_shards
        #: Committed generation this handle is pinned to (0 for a legacy
        #: CQS1 store).  The mmap pool below maps exactly this
        #: generation's files, so reads stay snapshot-consistent while
        #: a writer publishes newer generations into the directory.
        self.generation = generation
        #: Deleted keys -> the version at which they were deleted.
        self.tombstones: Dict[_Key, int] = dict(tombstones or {})
        # The shard table and index as validated at open (or as just
        # published by the writer, which builds the next generation's
        # handle from them instead of reopening the directory).
        self._shard_files = shard_files
        self._shard_sizes = shard_sizes
        self._index = index
        self._pool = _MmapPool(tuple(path / name for name in shard_files))

    @property
    def io_fault_hook(self) -> Optional[Callable[[str, int], None]]:
        """The mmap pool's chaos injection hook (see :class:`_MmapPool`).

        Settable; :class:`repro.chaos.FaultyStore` installs its fault
        plan here to reach the map/read path without subclassing.
        """
        return self._pool.fault_hook

    @io_fault_hook.setter
    def io_fault_hook(self, hook: Optional[Callable[[str, int], None]]) -> None:
        self._pool.fault_hook = hook

    # -- opening -------------------------------------------------------------

    @classmethod
    def open(cls, path: Union[str, pathlib.Path]) -> "ShardedStore":
        """Open a store directory, validating its manifest and layout.

        Recovery-on-open: generation manifests are tried newest first,
        a legacy ``manifest.json`` (generation 0) last.  The first
        candidate that fully validates -- parse, magic, shard files
        present at the recorded sizes, spans in range -- wins, so a
        crash that left a torn temp manifest or an orphaned staged shard
        reopens as the newest *committed* generation, never a hybrid.

        Args:
            path: The ``*.cqs`` store directory.
        """
        root = pathlib.Path(path)
        candidates = list_generation_manifests(root)
        if not candidates:
            raise StoreError(f"no store manifest in {root}")
        failures: List[str] = []
        for _generation, manifest_path in candidates:
            try:
                return cls._open_manifest(root, manifest_path)
            except StoreError as exc:
                if len(candidates) == 1:
                    raise
                failures.append(f"{manifest_path.name}: {exc}")
        raise StoreError(
            "no openable manifest generation in "
            f"{root}: " + "; ".join(failures)
        )

    @classmethod
    def _open_manifest(
        cls, root: pathlib.Path, manifest_path: pathlib.Path
    ) -> "ShardedStore":
        """Parse and fully validate one manifest candidate.

        A ``CQS2`` manifest is one committed generation.  A legacy
        ``CQS1`` manifest reads as generation 0: every entry at version
        1, no tombstones, and a shard table exactly ``n_shards`` wide.
        Unknown top-level fields are tolerated (forward compatibility);
        structural damage -- duplicate entry keys, a tombstone colliding
        with a live entry, bad versions or generations -- is a typed
        :class:`StoreError`.
        """
        try:
            manifest = json.loads(manifest_path.read_text())
        except OSError as exc:
            raise StoreError(f"cannot read manifest {manifest_path}: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreError(f"corrupt store manifest: {exc}") from None
        magic = manifest.get("magic") if isinstance(manifest, dict) else None
        if magic not in (STORE_MAGIC, STORE_MAGIC_V2):
            raise StoreError(f"{manifest_path} is not a store manifest (bad magic)")
        legacy = magic == STORE_MAGIC
        readable = STORE_FORMAT_VERSION if legacy else STORE_FORMAT_VERSION_V2
        version = manifest.get("format_version")
        if version != readable:
            raise StoreError(
                f"unsupported {magic} format version {version!r} "
                f"(this build reads version {readable})"
            )
        try:
            generation = 0 if legacy else int(manifest["generation"])
            n_shards = int(manifest["n_shards"])
            shard_table = list(manifest["shards"])
            device_name = manifest["device_name"]
            variant = manifest["variant"]
            window_size = int(manifest["window_size"])
            entry_rows = list(manifest["entries"])
            declared_entries = int(manifest.get("n_entries", len(entry_rows)))
            tombstone_rows = [] if legacy else list(manifest.get("tombstones", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed {magic} manifest: {exc!r}") from None
        if not legacy and generation < 1:
            raise StoreError(f"CQS2 generation must be >= 1, got {generation}")
        if n_shards < 1:
            raise StoreError(f"n_shards must be >= 1, got {n_shards}")
        if not shard_table or (legacy and len(shard_table) != n_shards):
            raise StoreError(
                f"manifest declares {n_shards} shards but lists "
                f"{len(shard_table)} shard files"
            )
        shard_files, shard_sizes = cls._validate_shard_table(root, shard_table)
        index = cls._validate_entries(entry_rows, shard_sizes, versioned=not legacy)
        if len(index) != declared_entries:
            raise StoreError(
                f"manifest declares {declared_entries} entries, "
                f"index holds {len(index)}"
            )
        tombstones: Dict[_Key, int] = {}
        for row in tombstone_rows:
            try:
                key = (str(row["gate"]), tuple(int(q) for q in row["qubits"]))
                dead_version = int(row["version"])
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(f"malformed tombstone row: {exc!r}") from None
            if dead_version < 1:
                raise StoreError(
                    f"tombstone for {key} has version {dead_version} (< 1)"
                )
            if key in index:
                raise StoreError(
                    f"tombstone for {key[0]!r} {key[1]} collides with a "
                    "live manifest entry"
                )
            if key in tombstones:
                raise StoreError(f"duplicate tombstone for {key[0]!r} {key[1]}")
            tombstones[key] = dead_version
        return cls(
            path=root,
            device_name=device_name,
            variant=variant,
            window_size=window_size,
            n_shards=n_shards,
            shard_files=tuple(shard_files),
            shard_sizes=tuple(shard_sizes),
            index=index,
            generation=generation,
            tombstones=tombstones,
        )

    @staticmethod
    def _validate_shard_table(
        root: pathlib.Path, shard_table: List
    ) -> Tuple[List[str], List[int]]:
        """Check every listed shard file exists at its recorded size."""
        shard_sizes: List[int] = []
        shard_files: List[str] = []
        seen: set = set()
        for shard, row in enumerate(shard_table):
            try:
                file_name = str(row["file"])
                recorded_bytes = int(row["n_bytes"])
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(
                    f"malformed shard table row {shard}: {exc!r}"
                ) from None
            if file_name in seen:
                raise StoreError(f"duplicate shard file {file_name!r} in manifest")
            seen.add(file_name)
            shard_path = root / file_name
            if not shard_path.is_file():
                raise StoreError(f"missing shard file {shard_path}")
            actual = shard_path.stat().st_size
            if actual != recorded_bytes:
                raise StoreError(
                    f"shard {shard} is {actual} bytes on disk, manifest "
                    f"records {recorded_bytes}"
                )
            shard_sizes.append(actual)
            shard_files.append(file_name)
        return shard_files, shard_sizes

    @staticmethod
    def _validate_entries(
        entry_rows: List, shard_sizes: List[int], versioned: bool
    ) -> Dict[_Key, StoreRecord]:
        """Range-check and index the manifest's entry rows."""
        index: Dict[_Key, StoreRecord] = {}
        n_files = len(shard_sizes)
        for row in entry_rows:
            try:
                record = StoreRecord(
                    gate=row["gate"],
                    qubits=tuple(int(q) for q in row["qubits"]),
                    shard=int(row["shard"]),
                    offset=int(row["offset"]),
                    length=int(row["length"]),
                    mse=float(row["mse"]),
                    threshold=float(row["threshold"]),
                    version=int(row["version"]) if versioned else 1,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(f"malformed manifest entry: {exc!r}") from None
            if record.version < 1:
                raise StoreError(
                    f"entry {record.gate!r} {record.qubits} has version "
                    f"{record.version} (< 1)"
                )
            if not 0 <= record.shard < n_files:
                raise StoreError(
                    f"entry {record.gate!r} {record.qubits} names shard "
                    f"{record.shard} of {n_files}"
                )
            if record.offset < 0 or record.length < 1 or (
                record.offset + record.length > shard_sizes[record.shard]
            ):
                raise StoreError(
                    f"entry {record.gate!r} {record.qubits} span "
                    f"[{record.offset}, {record.offset + record.length}) "
                    f"overruns shard {record.shard} "
                    f"({shard_sizes[record.shard]} bytes)"
                )
            key = (record.gate, record.qubits)
            if key in index:
                raise StoreError(
                    f"duplicate manifest entry for {record.gate!r} "
                    f"{record.qubits}"
                )
            index[key] = record
        return index

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release every pooled shard mapping (idempotent).

        The store stays usable: a later read simply remaps its shard.
        This keeps ``close`` safe for shared-store setups while still
        releasing descriptors deterministically.
        """
        self._pool.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def open_shard_handles(self) -> int:
        """Currently mapped shard files (at most ``shard_count``)."""
        return self._pool.open_count

    @property
    def shard_count(self) -> int:
        """Shard *files* in this generation's table.

        Equal to ``n_shards`` for a freshly saved or compacted
        generation; a commit appends its staged file beyond the
        hash-routing width, so iterate files with this, route keys with
        ``n_shards``.
        """
        return len(self._shard_files)

    # -- inventory -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: _Key) -> bool:
        return normalize_key(*key) in self._index

    def keys(self) -> List[_Key]:
        return list(self._index.keys())

    def shard_of(self, gate: str, qubits: Sequence[int]) -> int:
        """The shard holding one pulse (hash-routed, manifest-checked)."""
        return self.record_info(gate, qubits).shard

    def record_info(self, gate: str, qubits: Sequence[int]) -> StoreRecord:
        """The manifest index row for one pulse."""
        key = normalize_key(gate, qubits)
        try:
            return self._index[key]
        except KeyError:
            raise StoreError(
                f"store {self.device_name!r} holds no pulse for gate "
                f"{key[0]!r} on qubits {key[1]}"
            ) from None

    def shard_path(self, shard: int) -> pathlib.Path:
        if not 0 <= shard < self.shard_count:
            raise StoreError(f"shard {shard} out of range [0, {self.shard_count})")
        return self.path / self._shard_files[shard]

    # -- demand reads --------------------------------------------------------

    def _read_span(self, info: StoreRecord) -> memoryview:
        """Zero-copy view of one record span out of the mmap pool.

        Span bounds were validated against the recorded shard sizes at
        open time; a shard file that shrank since raises StoreError.
        """
        view = self._pool.view(info.shard)
        if info.offset + info.length > len(view):
            raise StoreError(
                f"short read from shard {info.shard}: wanted {info.length} "
                f"bytes at {info.offset}, had {len(view)}"
            )
        return view[info.offset : info.offset + info.length]

    @staticmethod
    def _check_binding(key: _Key, gate: str, qubits: Tuple[int, ...]) -> None:
        if (gate, qubits) != key:
            raise StoreError(f"record for {key} is bound to ({gate!r}, {qubits})")

    def check_record(
        self,
        key: _Key,
        gate: str,
        qubits: Tuple[int, ...],
        variant: str,
        window_size: int,
    ) -> None:
        """Raise :class:`StoreError` unless a record belongs at ``key``.

        It belongs when it is bound to ``key`` and encoded with this
        store's codec at this store's window size.  A full-frame
        codec's window is its pulse length, so only windowed codecs
        compare window sizes.  Staging, the scrub and compaction all
        hold records to this.
        """
        self._check_binding(key, gate, tuple(qubits))
        if variant != self.variant:
            raise StoreError(
                f"record for {key} is encoded with {variant!r}, the store "
                f"with {self.variant!r}"
            )
        if window_size != self.window_size and get_codec(variant).windowed:
            raise StoreError(
                f"record for {key} has window size {window_size}, the store "
                f"{self.window_size}"
            )

    def _spans_in_read_order(
        self, requests: Iterable[Tuple[str, Sequence[int]]]
    ) -> Tuple[List[_Key], List[_Key]]:
        """Resolve requests to (request-order keys, shard/offset-order keys)."""
        keys = [normalize_key(*request) for request in requests]
        unique = list(dict.fromkeys(keys))
        infos = {key: self.record_info(*key) for key in unique}
        unique.sort(key=lambda k: (infos[k].shard, infos[k].offset))
        return keys, unique

    def read_record_bytes(self, gate: str, qubits: Sequence[int]) -> bytes:
        """Raw ``CQW1`` bytes of one pulse (copied out of the mmap pool)."""
        return bytes(self._read_span(self.record_info(gate, qubits)))

    def read_record(self, gate: str, qubits: Sequence[int]) -> CompressedWaveform:
        """Parse one pulse's compressed record without touching its shard.

        The returned waveform is still compressed; decode it through
        :meth:`decode_record` / :meth:`decode_many` (the fused fast
        path) or :func:`repro.compression.pipeline.decompress_waveform`.
        """
        return self.read_many([(gate, qubits)])[0]

    def read_many(
        self, requests: Iterable[Tuple[str, Sequence[int]]]
    ) -> List[CompressedWaveform]:
        """Read several records, grouping and ordering reads per shard.

        Reads are zero-copy span views served by the mmap pool in
        (shard, ascending offset) order -- sequential page touches --
        then parsed through the vectorized engine and returned in
        request order.
        """
        keys, unique = self._spans_in_read_order(requests)
        parsed: Dict[_Key, CompressedWaveform] = {}
        for key in unique:
            compressed = parse_waveform(self._read_span(self._index[key]))
            self._check_binding(key, compressed.gate, compressed.qubits)
            parsed[key] = compressed
        return [parsed[key] for key in keys]

    def decode_record(self, gate: str, qubits: Sequence[int]) -> Waveform:
        """Fused cold read: record bytes straight to a decoded waveform."""
        return self.decode_many([(gate, qubits)])[0]

    def decode_many(
        self, requests: Iterable[Tuple[str, Sequence[int]]]
    ) -> List[Waveform]:
        """Fused batch decode: mmap span views -> decoded waveforms.

        The serving cold-miss fast path: spans are read in (shard,
        offset) order as zero-copy views and pushed through
        :func:`repro.compression.fastpath.decode_records` -- one
        grouped inverse kernel per (codec, window size), no per-window
        Python objects.  Output is bit-identical to
        ``decompress_waveform(self.read_record(...))`` per request.
        """
        keys, unique = self._spans_in_read_order(requests)
        views = [self._read_span(self._index[key]) for key in unique]
        started = time.perf_counter()
        waveforms = decode_records(views) if views else []
        if views:
            registry = default_registry()
            registry.counter("store.decode_batches").inc()
            registry.counter("store.decode_pulses").inc(len(views))
            registry.histogram("store.decode_batch_pulses", DEFAULT_SIZE_BOUNDS).observe(
                len(views)
            )
            registry.histogram("store.decode_seconds").observe(
                time.perf_counter() - started
            )
        decoded: Dict[_Key, Waveform] = {}
        for key, waveform in zip(unique, waveforms):
            self._check_binding(key, waveform.gate, waveform.qubits)
            decoded[key] = waveform
        return [decoded[key] for key in keys]

    # -- eager paths ---------------------------------------------------------

    def read_shard(self, shard: int) -> LibraryBitstream:
        """Parse one whole shard file as its ``CQL1`` container."""
        self.shard_path(shard)  # range check
        try:
            return parse_library(self._pool.view(shard))
        except CompressionError as exc:
            raise StoreError(f"corrupt shard {shard}: {exc}") from None

    def load_library(self):
        """Eagerly load and decode every live record.

        Returns a :class:`~repro.core.compiler.CompressedPulseLibrary`
        interchangeable with one loaded from the monolithic ``CQL1``
        file -- the compatibility bridge for consumers that still want
        everything decoded up front.  Records come from the live index
        (a generation's shard files can still hold superseded and
        tombstoned bytes); samples come from the fused decoder
        (:meth:`decode_many`).
        """
        from repro.compression.pipeline import CompressionResult
        from repro.core.compiler import CompressedPulseLibrary

        if self.generation == 0:
            # A legacy CQS1 store's shards hold exactly its records; a
            # container that disagrees with the index is damage on disk.
            held = sum(
                len(self.read_shard(shard).entries)
                for shard in range(self.shard_count)
            )
            if held != len(self._index):
                raise StoreError(
                    f"shards hold {held} entries, manifest indexes "
                    f"{len(self._index)}"
                )
        library = CompressedPulseLibrary(
            device_name=self.device_name,
            window_size=self.window_size,
            variant=self.variant,
        )
        keys = self.keys()
        for key, parsed, waveform in zip(
            keys, self.read_many(keys), self.decode_many(keys)
        ):
            info = self._index[key]
            library.add(
                key,
                CompressionResult(
                    compressed=parsed,
                    reconstructed=waveform,
                    mse=info.mse,
                    threshold=info.threshold,
                ),
            )
        return library

    @property
    def total_shard_bytes(self) -> int:
        """Compressed on-disk footprint across all shard files."""
        return sum(
            self.shard_path(s).stat().st_size for s in range(self.shard_count)
        )

    def __repr__(self) -> str:
        return (
            f"ShardedStore({self.device_name!r}, variant={self.variant!r}, "
            f"n_shards={self.n_shards}, generation={self.generation}, "
            f"n_entries={len(self)})"
        )


def open_store(path: Union[str, pathlib.Path]) -> ShardedStore:
    """Open a store directory (alias of :meth:`ShardedStore.open`)."""
    return ShardedStore.open(path)
