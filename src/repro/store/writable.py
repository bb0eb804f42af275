"""The CQS2 store writer: generation 1, staged updates, atomic commit.

:func:`save_store` publishes a compiled library as generation 1 --
every record at version 1, hash-routed into ``n_shards`` fresh shard
files -- through the same atomic publish every commit uses (below).

COMPAQT's pulse library is recompiled continuously -- qubits drift, the
adaptive layer recalibrates, and the controller's waveform memory must
pick up new pulses *while serving*.  :class:`StoreWriter` publishes
each later generation without ever breaking a concurrent reader:

* **Staging.**  ``put`` / ``delete`` accumulate in memory; ``put``
  rejects a record that is not bound to its key or not encoded with
  the store's codec and window size.  ``commit`` serializes every
  staged record through the fused indexed serializer into **one fresh
  shard file** (``shard-g<generation>.cql``) -- the existing shard
  files are never rewritten, so a reader's pinned mmap snapshot stays
  valid byte for byte.

* **Versioned manifests.**  Each commit publishes
  ``manifest-<generation>.json`` (magic ``CQS2``, the one manifest
  format, compact JSON): a generation counter, the full live index
  with a per-record **version** (bumped on every re-put), and
  **tombstones** for deletes.  Readers open the newest *valid*
  generation; caches invalidate by (key, version) on adoption
  (:meth:`repro.store.cache.PulseCache.adopt_store`).

* **No reopen.**  The handle a commit returns (and adopts as the
  writer's next base) is built from the shard table and index rows
  the commit just published: the base's records for untouched keys,
  plus the staged rows validated exactly as ``ShardedStore.open``
  validates them.  The only directory read after publishing is a
  check that the newest manifest is the one just written.

* **Atomic publish.**  Every file lands via temp-file + ``fsync`` +
  ``os.replace`` + directory ``fsync``.  The manifest rename is the
  commit point: a crash anywhere before it leaves the previous
  generation intact (orphaned temp files and staged shards are ignored
  and later swept); a crash anywhere after it leaves the new generation
  fully durable.  There is no state in between -- the crash matrix in
  the README and the chaos harness's ``crash_commit`` fault enumerate
  every hook point below and assert exactly this.

* **Compaction.**  ``compact`` copies each live record's bytes
  verbatim into fresh hash-routed shard files -- the layout
  :func:`save_store` writes, byte for byte -- drops tombstones and
  superseded bytes, and publishes the result as a new generation
  under the very same protocol -- crash-safe for free.  Nothing is
  re-encoded: every copied record first passes the fused decoder's
  scan (no per-window objects) and the store's binding, codec and
  window-size checks, and a damaged record fails the compaction with
  a typed error before anything is published.

The writer assumes a **single writer per store directory** (the usual
control-stack arrangement: one recalibration loop, many readers).
Readers need no coordination at all.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from collections import Counter
from typing import Callable, Dict, List, Sequence, Set, Tuple, Union

from repro.errors import StoreError
from repro.compression.bitstream import (
    LibraryBitstream,
    LibraryEntry,
    RecordSpan,
    frame_library,
    serialize_library_indexed,
)
from repro.compression.fastpath import scan_records
from repro.store.atomic import fsync_dir
from repro.store.hooks import preempt
from repro.store.sharded import (
    STORE_FORMAT_VERSION_V2,
    STORE_MAGIC_V2,
    ShardedStore,
    StoreRecord,
    generation_manifest_name,
    list_generation_manifests,
    normalize_key,
    shard_index,
)

__all__ = ["COMMIT_HOOK_POINTS", "COMPACT_HOOK_POINTS", "StoreWriter", "save_store"]

_Key = Tuple[str, Tuple[int, ...]]
#: Turns a shard's slots into its container bytes and record spans.
_Framer = Callable[[list], Tuple[bytes, Tuple[RecordSpan, ...]]]

#: Every yield point the commit protocol passes through, in order.  The
#: chaos harness and the crash property tests abort at each one and
#: assert the store reopens as exactly the old or the new generation.
#: ``writer.manifest.published`` is the commit point: aborts strictly
#: before it reopen old, at-or-after it reopen new.
COMMIT_HOOK_POINTS = (
    "writer.commit.begin",
    "writer.commit.staged",
    "writer.shard.tmp_written",
    "writer.shard.published",
    "writer.manifest.tmp_written",
    "writer.manifest.published",
    "writer.commit.cleanup",
)

#: The compaction pass's points; the shard pair fires once per rewritten
#: shard file.  Same old-or-new guarantee, same commit point.
COMPACT_HOOK_POINTS = (
    "writer.compact.begin",
    "writer.compact.staged",
    "writer.shard.tmp_written",
    "writer.shard.published",
    "writer.manifest.tmp_written",
    "writer.manifest.published",
    "writer.compact.cleanup",
)


def _staged_shard_name(generation: int) -> str:
    return f"shard-g{generation:010d}.cql"


def _routed_shard_name(generation: int, shard: int) -> str:
    return f"shard-g{generation:010d}-{shard:04d}.cql"


def save_store(
    compiled,
    path: Union[str, pathlib.Path],
    n_shards: int = 4,
) -> ShardedStore:
    """Write a compiled library as a store directory at generation 1.

    Args:
        compiled: A :class:`~repro.core.compiler.CompressedPulseLibrary`.
        path: Store directory to create (conventionally ``*.cqs``).
            Created if missing; a store already there is replaced --
            its manifests, shard files and publish debris all go.
        n_shards: Shard file count: the hash-routing width, and so the
            number of fetch units ``prewarm`` and compaction walk;
            empty shards are legal (they serialize as zero-entry
            containers).

    Returns:
        A :class:`ShardedStore` on generation 1, built from the shard
        table and index rows just published (validated as
        ``ShardedStore.open`` validates them, without reopening).
    """
    if n_shards < 1:
        raise StoreError(f"n_shards must be >= 1, got {n_shards}")
    if len(compiled) == 0:
        raise StoreError("cannot store an empty compressed library")
    root = pathlib.Path(path)
    root.mkdir(parents=True, exist_ok=True)
    # Replacing a store: none of its manifests may outrank or outlive
    # generation 1, and its shard files and publish debris go too.
    for _generation, stale in list_generation_manifests(root):
        stale.unlink()
    for stale in (*root.glob("shard-*.cql"), *root.glob("*.tmp-*")):
        stale.unlink(missing_ok=True)
    records = [
        (_library_entry(normalize_key(*key), result), 1) for key, result in compiled
    ]
    blobs, index_rows = _hash_routed_shards(
        records, n_shards, 1, _serializer(compiled)
    )
    return _publish_generation(
        root, compiled, n_shards, generation=1, parent_generation=0,
        base_shards=[], blobs=blobs, kept={}, index_rows=index_rows,
        tombstones={},
    )


class StoreWriter:
    """Single-writer update handle over a store directory.

    Args:
        path: An existing ``*.cqs`` store directory (the writer
            rebases on its newest valid generation).

    Use as a context manager or call :meth:`close`; the writer keeps a
    read handle on its base generation for index/version lookups.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._store = ShardedStore.open(self.path)
        self._puts: Dict[_Key, object] = {}
        self._deletes: Set[_Key] = set()
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    @property
    def store(self) -> ShardedStore:
        """The writer's base snapshot (the parent of the next commit)."""
        return self._store

    @property
    def generation(self) -> int:
        return self._store.generation

    def close(self) -> None:
        self._store.close()

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- staging -------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Staged mutations (puts + deletes) awaiting :meth:`commit`."""
        with self._lock:
            return len(self._puts) + len(self._deletes)

    def put(self, gate: str, qubits: Sequence[int], result) -> None:
        """Stage one new or updated pulse.

        ``result`` is a :class:`~repro.compression.pipeline.CompressionResult`
        (what the compiler emits).  Its compressed record must be bound
        to the same (gate, qubits) it is stored under and encoded with
        the store's codec and (for windowed codecs) window size
        (:meth:`ShardedStore.check_record`); otherwise
        :class:`StoreError`, and nothing is staged.
        """
        key = normalize_key(gate, qubits)
        compressed = result.compressed
        self._store.check_record(
            key,
            compressed.gate,
            compressed.qubits or (),
            compressed.variant,
            compressed.window_size,
        )
        with self._lock:
            self._puts[key] = result
            self._deletes.discard(key)

    def delete(self, gate: str, qubits: Sequence[int]) -> None:
        """Stage one deletion (published as a tombstone)."""
        key = normalize_key(gate, qubits)
        with self._lock:
            if key in self._puts:
                del self._puts[key]
                if key not in self._store:
                    return
            elif key not in self._store:
                raise StoreError(
                    f"store {self._store.device_name!r} holds no pulse for "
                    f"gate {key[0]!r} on qubits {key[1]}"
                )
            self._deletes.add(key)

    def discard_pending(self) -> None:
        """Drop every staged mutation without committing."""
        with self._lock:
            self._puts.clear()
            self._deletes.clear()

    # -- commit --------------------------------------------------------------

    def commit(self) -> ShardedStore:
        """Publish every staged mutation as one new generation.

        Returns a read handle on the new generation (also adopted as
        the writer's base), built from the rows just published.  A
        no-op commit (nothing staged) returns the current base
        unchanged.  On any failure -- including an injected crash --
        the store directory still opens as either the old or the new
        generation.
        """
        with self._lock:
            if not self._puts and not self._deletes:
                return self._store
            base = self._store
            generation = base.generation + 1
            preempt("writer.commit.begin")

            puts, deletes = self._puts, self._deletes
            kept = {
                key: record
                for key, record in base._index.items()
                if key not in puts and key not in deletes
            }
            staged = []
            for key in sorted(puts):
                held = base._index.get(key)
                version = (
                    held.version if held is not None else base.tombstones.get(key, 0)
                ) + 1
                staged.append((_library_entry(key, puts[key]), version))
            blobs: Dict[str, bytes] = {}
            index_rows: List[Dict] = []
            if staged:
                blob, index_rows = _shard_file(
                    base.shard_count, staged, _serializer(base)
                )
                blobs[_staged_shard_name(generation)] = blob
            preempt("writer.commit.staged")

            tombstones = {
                key: version
                for key, version in base.tombstones.items()
                if key not in puts
            }
            for key in sorted(deletes):
                tombstones[key] = base.record_info(*key).version + 1

            base_shards = list(zip(base._shard_files, base._shard_sizes))
            fresh = _publish_generation(
                self.path, base, base.n_shards, generation, base.generation,
                base_shards=base_shards, blobs=blobs, kept=kept,
                index_rows=index_rows, tombstones=tombstones,
            )
            preempt("writer.commit.cleanup")
            self._cleanup(
                keep_files=set(base._shard_files) | set(blobs),
                parent_generation=base.generation,
            )
            self._puts.clear()
            self._deletes.clear()
            return self._adopt(fresh)

    # -- compaction ----------------------------------------------------------

    def compact(self) -> ShardedStore:
        """Copy live records into fresh shards; drop dead bytes.

        Publishes a new generation whose shard table is exactly
        ``n_shards`` hash-routed files, each live record's bytes copied
        verbatim -- the files :func:`save_store` would write for the
        same records: superseded record bytes and tombstones are gone,
        per-record versions are preserved (compaction moves bytes, it
        does not change logical content, so caches stay valid).  Every
        record is scanned and checked against its key before anything
        is published; a damaged one raises a typed
        :class:`~repro.errors.ReproError`.  Requires a clean slate --
        commit or discard staged mutations first.
        """
        with self._lock:
            if self._puts or self._deletes:
                raise StoreError(
                    "commit or discard staged mutations before compacting"
                )
            base = self._store
            generation = base.generation + 1
            preempt("writer.compact.begin")

            records = [(record, record.version) for record in base._index.values()]
            blobs, index_rows = _hash_routed_shards(
                records, base.n_shards, generation, _verbatim(base)
            )
            preempt("writer.compact.staged")
            fresh = _publish_generation(
                self.path, base, base.n_shards, generation, base.generation,
                base_shards=[], blobs=blobs, kept={}, index_rows=index_rows,
                tombstones={},
            )
            preempt("writer.compact.cleanup")
            self._cleanup(
                keep_files=set(blobs) | set(base._shard_files),
                parent_generation=base.generation,
            )
            return self._adopt(fresh)

    # -- cleanup -------------------------------------------------------------

    def _cleanup(self, keep_files: Set[str], parent_generation: int) -> None:
        """Sweep state no crash-recovery path can need any more.

        Runs strictly *after* the new manifest is durable, so a crash
        mid-sweep only leaves extra files behind (which open() ignores
        and the next commit's sweep retires).  The parent generation's
        manifest and files are retained on purpose: they are the
        fallback if the just-published manifest is later found torn.
        Every older manifest goes.
        """
        for gen, manifest_path in list_generation_manifests(self.path):
            if gen < parent_generation:
                manifest_path.unlink(missing_ok=True)
        for shard_file in self.path.glob("shard-*.cql"):
            if shard_file.name not in keep_files:
                shard_file.unlink(missing_ok=True)
        for orphan in self.path.glob("*.tmp-*"):
            orphan.unlink(missing_ok=True)

    def _adopt(self, fresh: ShardedStore) -> ShardedStore:
        """Make the just-published generation the writer's base.

        ``fresh`` was built from the rows this writer published, so the
        directory is not reopened; it is only asked whether its newest
        manifest is still that generation.  If another one landed on
        top, the writer's base would silently fall behind it, so the
        commit fails instead.
        """
        manifests = list_generation_manifests(self.path)
        newest = manifests[0][0] if manifests else None
        if newest != fresh.generation:
            fresh.close()
            raise StoreError(
                f"published generation {fresh.generation} but the "
                f"directory's newest manifest is generation {newest}"
            )
        old, self._store = self._store, fresh
        old.close()
        return fresh


# -- the shared layout and publish machinery -----------------------------------


def _library_entry(key: _Key, result) -> LibraryEntry:
    """The serializer entry for one compiled ``CompressionResult``."""
    return LibraryEntry(
        gate=key[0],
        qubits=key[1],
        mse=result.mse,
        threshold=result.threshold,
        compressed=result.compressed,
    )


def _serializer(source) -> _Framer:
    """Frame compiled :class:`LibraryEntry` slots, serializing each one.

    ``source`` carries the library metadata (a :class:`ShardedStore`
    or a compiled library).
    """

    def frame(entries: list) -> Tuple[bytes, Tuple[RecordSpan, ...]]:
        return serialize_library_indexed(
            LibraryBitstream(
                device_name=source.device_name,
                window_size=source.window_size,
                variant=source.variant,
                entries=tuple(entries),
            )
        )

    return frame


def _verbatim(base: ShardedStore) -> _Framer:
    """Frame ``base``'s live :class:`StoreRecord` slots by copying bytes.

    Each record's span is copied out of ``base``'s mapping untouched,
    so the container is byte-identical to re-serializing the parsed
    record.  Before framing, every record passes the fused decoder's
    scan and word pass (:func:`~repro.compression.fastpath.scan_records`)
    and :meth:`ShardedStore.check_record` against its manifest key:
    compaction must not carry damage into a generation that looks
    freshly written.
    """

    def frame(records: list) -> Tuple[bytes, Tuple[RecordSpan, ...]]:
        views = [base._read_span(record) for record in records]
        for record, (gate, qubits, codec, window_size) in zip(
            records, scan_records(views)
        ):
            base.check_record(
                (record.gate, record.qubits), gate, qubits, codec.name, window_size
            )
        return frame_library(
            base.device_name,
            base.window_size,
            base.variant,
            [
                (record.gate, record.qubits, record.mse, record.threshold, view)
                for record, view in zip(records, views)
            ],
        )

    return frame


def _shard_file(
    shard: int, records: Sequence[Tuple[object, int]], frame: _Framer
) -> Tuple[bytes, List[Dict]]:
    """Frame ``(slot, version)`` records as shard file ``shard``.

    A slot is anything with ``gate``, ``qubits``, ``mse`` and
    ``threshold`` that ``frame`` accepts.  Returns the file's bytes and
    its records' manifest index rows.
    """
    blob, spans = frame([slot for slot, _version in records])
    rows = [
        _entry_row(
            StoreRecord(
                gate=slot.gate,
                qubits=slot.qubits,
                shard=shard,
                offset=span.offset,
                length=span.length,
                mse=slot.mse,
                threshold=slot.threshold,
                version=version,
            )
        )
        for (slot, version), span in zip(records, spans)
    ]
    return blob, rows


def _hash_routed_shards(
    records: Sequence[Tuple[object, int]],
    n_shards: int,
    generation: int,
    frame: _Framer,
) -> Tuple[Dict[str, bytes], List[Dict]]:
    """Frame ``(slot, version)`` records into ``n_shards`` files.

    Each record goes to shard ``shard_index(gate, qubits, n_shards)``,
    in the order given.  Returns generation ``generation``'s new files'
    bytes by name, plus their index rows.
    """
    by_shard: List[list] = [[] for _ in range(n_shards)]
    for slot, version in records:
        by_shard[shard_index(slot.gate, slot.qubits, n_shards)].append(
            (slot, version)
        )
    blobs: Dict[str, bytes] = {}
    index_rows: List[Dict] = []
    for shard, members in enumerate(by_shard):
        blob, rows = _shard_file(shard, members, frame)
        blobs[_routed_shard_name(generation, shard)] = blob
        index_rows += rows
    return blobs, index_rows


def _publish(
    root: pathlib.Path, name: str, data: bytes, tmp_point: str, done_point: str
) -> None:
    """temp + fsync + rename + dir-fsync, with chaos yield points.

    ``tmp_point`` fires after the payload is durable under the temp
    name (a crash here orphans one ``*.tmp-*`` file); ``done_point``
    fires after the rename is durable.
    """
    target = root / name
    tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        preempt(tmp_point)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(root)
    preempt(done_point)


def _publish_generation(
    root: pathlib.Path,
    source,
    n_shards: int,
    generation: int,
    parent_generation: int,
    *,
    base_shards: List[Tuple[str, int]],
    blobs: Dict[str, bytes],
    kept: Dict[_Key, StoreRecord],
    index_rows: List[Dict],
    tombstones: Dict[_Key, int],
) -> ShardedStore:
    """Publish a generation's new shard files, then its manifest.

    The shard table is ``base_shards`` (existing ``(file, n_bytes)``
    pairs) followed by ``blobs``; the index is ``kept`` (already
    validated records) followed by the new ``index_rows``, which are
    validated against the new table before anything is written.  The
    manifest rename is the commit point: until it lands, the directory
    still opens as the parent generation.  Returns the new
    generation's handle, built from exactly what was published.
    """
    shards = base_shards + [(name, len(blob)) for name, blob in blobs.items()]
    sizes = tuple(size for _name, size in shards)
    index = dict(kept)
    index.update(ShardedStore._validate_entries(index_rows, sizes))
    live = Counter(record.shard for record in index.values())
    tombstones = dict(sorted(tombstones.items()))
    for name, blob in blobs.items():
        _publish(root, name, blob, "writer.shard.tmp_written", "writer.shard.published")
    manifest = {
        "magic": STORE_MAGIC_V2,
        "format_version": STORE_FORMAT_VERSION_V2,
        "generation": generation,
        "parent_generation": parent_generation,
        "device_name": source.device_name,
        "variant": source.variant,
        "window_size": source.window_size,
        "n_shards": n_shards,
        "n_entries": len(index),
        "shards": [
            {"file": name, "n_entries": live[position], "n_bytes": size}
            for position, (name, size) in enumerate(shards)
        ],
        "entries": [_entry_row(record) for record in kept.values()] + index_rows,
        "tombstones": [
            {"gate": key[0], "qubits": list(key[1]), "version": version}
            for key, version in tombstones.items()
        ],
    }
    _publish(
        root,
        generation_manifest_name(generation),
        (json.dumps(manifest) + "\n").encode("utf-8"),
        "writer.manifest.tmp_written",
        "writer.manifest.published",
    )
    return ShardedStore(
        path=root,
        device_name=source.device_name,
        variant=source.variant,
        window_size=source.window_size,
        n_shards=n_shards,
        shard_files=tuple(name for name, _size in shards),
        shard_sizes=sizes,
        index=index,
        generation=generation,
        tombstones=tombstones,
    )


def _entry_row(record: StoreRecord) -> Dict:
    return {
        "gate": record.gate,
        "qubits": list(record.qubits),
        "shard": record.shard,
        "offset": record.offset,
        "length": record.length,
        "mse": record.mse,
        "threshold": record.threshold,
        "version": record.version,
    }
