"""The CQS2 store writer: generation 1, staged updates, atomic commit.

:func:`save_store` publishes a compiled library as generation 1 --
every record at version 1, hash-routed into ``n_shards`` fresh shard
files -- through the same atomic publish every commit uses (below).

COMPAQT's pulse library is recompiled continuously -- qubits drift, the
adaptive layer recalibrates, and the controller's waveform memory must
pick up new pulses *while serving*.  :class:`StoreWriter` publishes
each later generation without ever breaking a concurrent reader:

* **Staging.**  ``put`` / ``delete`` accumulate in memory.  ``commit``
  serializes every staged record through the fused indexed serializer
  into **one fresh shard file** (``shard-g<generation>.cql``) -- the
  existing shard files are never rewritten, so a reader's pinned mmap
  snapshot stays valid byte for byte.

* **Versioned manifests.**  Each commit publishes
  ``manifest-<generation>.json`` (magic ``CQS2``): a generation
  counter, the full live index with a per-record **version** (bumped on
  every re-put), and **tombstones** for deletes.  Readers open the
  newest *valid* generation; caches invalidate by (key, version) on
  adoption (:meth:`repro.store.cache.PulseCache.adopt_store`).

* **Atomic publish.**  Every file lands via temp-file + ``fsync`` +
  ``os.replace`` + directory ``fsync``.  The manifest rename is the
  commit point: a crash anywhere before it leaves the previous
  generation intact (orphaned temp files and staged shards are ignored
  and later swept); a crash anywhere after it leaves the new generation
  fully durable.  There is no state in between -- the crash matrix in
  the README and the chaos harness's ``crash_commit`` fault enumerate
  every hook point below and assert exactly this.

* **Compaction.**  ``compact`` re-encodes the live records through the
  fused serializer into fresh hash-routed shard files -- the layout
  :func:`save_store` writes -- drops tombstones and superseded bytes,
  and publishes the result as a new generation under the very same
  protocol -- crash-safe for free.

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
from typing import Dict, List, Sequence, Set, Tuple, Union

from repro.errors import StoreError
from repro.compression.bitstream import (
    LibraryBitstream,
    LibraryEntry,
    serialize_library_indexed,
)
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
        n_shards: Shard file count.  More shards mean smaller fetch
            units and more single-flight parallelism; empty shards are
            legal (they serialize as zero-entry containers).

    Returns:
        The opened :class:`ShardedStore` (reads go through the same
        code path every other client uses, so a just-written store is
        verified openable).
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
    blobs, shard_table, index_rows = _hash_routed_shards(
        compiled, records, n_shards, generation=1
    )
    _publish_generation(
        root, compiled, n_shards, generation=1, parent_generation=0,
        blobs=blobs, shard_table=shard_table, index_rows=index_rows,
        tombstones={},
    )
    return ShardedStore.open(root)


class StoreWriter:
    """Single-writer update handle over a store directory.

    Args:
        path: An existing ``*.cqs`` store directory (any generation, a
            legacy CQS1 store included -- the writer rebases on the
            newest valid one).

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
        (what the compiler emits); its compressed record must be bound
        to the same (gate, qubits) it is stored under -- enforced here
        and again by the serializer at commit.
        """
        key = normalize_key(gate, qubits)
        compressed = result.compressed
        if (compressed.gate, tuple(compressed.qubits or ())) != key:
            raise StoreError(
                f"staged record for {key} is bound to "
                f"({compressed.gate!r}, {compressed.qubits})"
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
        the writer's base).  A no-op commit (nothing staged) returns
        the current base unchanged.  On any failure -- including an
        injected crash -- the store directory still opens as either the
        old or the new generation.
        """
        with self._lock:
            if not self._puts and not self._deletes:
                return self._store
            base = self._store
            generation = base.generation + 1
            preempt("writer.commit.begin")

            base_files = [base.shard_path(s).name for s in range(base.shard_count)]
            staged = []
            for key in sorted(self._puts):
                if key in base:
                    version = base.record_info(*key).version + 1
                else:
                    version = base.tombstones.get(key, 0) + 1
                staged.append((_library_entry(key, self._puts[key]), version))
            index_rows = [
                _entry_row(base.record_info(*key))
                for key in base.keys()
                if key not in self._puts and key not in self._deletes
            ]
            blobs: Dict[str, bytes] = {}
            if staged:
                blob, rows = _shard_file(base, len(base_files), staged)
                blobs[_staged_shard_name(generation)] = blob
                index_rows += rows
            preempt("writer.commit.staged")

            tombstones = {
                key: version
                for key, version in base.tombstones.items()
                if key not in self._puts
            }
            for key in sorted(self._deletes):
                tombstones[key] = base.record_info(*key).version + 1

            live = Counter(row["shard"] for row in index_rows)
            sizes = [(self.path / name).stat().st_size for name in base_files]
            sizes += [len(blob) for blob in blobs.values()]
            shard_table = [
                {"file": name, "n_entries": live[position], "n_bytes": size}
                for position, (name, size) in enumerate(
                    zip(base_files + list(blobs), sizes)
                )
            ]
            _publish_generation(
                self.path, base, base.n_shards, generation, base.generation,
                blobs, shard_table, index_rows, tombstones,
            )
            preempt("writer.commit.cleanup")
            self._cleanup(
                keep_files=set(base_files) | set(blobs),
                parent_generation=base.generation,
            )
            self._puts.clear()
            self._deletes.clear()
            return self._rebase(generation)

    # -- compaction ----------------------------------------------------------

    def compact(self) -> ShardedStore:
        """Re-encode live records into fresh shards; drop dead bytes.

        Publishes a new generation whose shard table is exactly
        ``n_shards`` hash-routed files rebuilt through the fused
        serializer: superseded record bytes and tombstones are gone,
        per-record versions are preserved (compaction moves bytes, it
        does not change logical content, so caches stay valid).
        Requires a clean slate -- commit or discard staged mutations
        first.
        """
        with self._lock:
            if self._puts or self._deletes:
                raise StoreError(
                    "commit or discard staged mutations before compacting"
                )
            base = self._store
            generation = base.generation + 1
            preempt("writer.compact.begin")

            keys = base.keys()
            records = []
            for key, compressed in zip(keys, base.read_many(keys)):
                info = base.record_info(*key)
                entry = LibraryEntry(
                    gate=key[0],
                    qubits=key[1],
                    mse=info.mse,
                    threshold=info.threshold,
                    compressed=compressed,
                )
                records.append((entry, info.version))
            blobs, shard_table, index_rows = _hash_routed_shards(
                base, records, base.n_shards, generation
            )
            preempt("writer.compact.staged")
            _publish_generation(
                self.path, base, base.n_shards, generation, base.generation,
                blobs, shard_table, index_rows, {},
            )
            preempt("writer.compact.cleanup")
            base_files = [base.shard_path(s).name for s in range(base.shard_count)]
            self._cleanup(
                keep_files=set(blobs) | set(base_files),
                parent_generation=base.generation,
            )
            return self._rebase(generation)

    # -- cleanup -------------------------------------------------------------

    def _cleanup(self, keep_files: Set[str], parent_generation: int) -> None:
        """Sweep state no crash-recovery path can need any more.

        Runs strictly *after* the new manifest is durable, so a crash
        mid-sweep only leaves extra files behind (which open() ignores
        and the next commit's sweep retires).  The parent generation's
        manifest and files are retained on purpose: they are the
        fallback if the just-published manifest is later found torn.
        Every older manifest goes, a legacy ``manifest.json``
        (generation 0) included.
        """
        for gen, manifest_path in list_generation_manifests(self.path):
            if gen < parent_generation:
                manifest_path.unlink(missing_ok=True)
        for shard_file in self.path.glob("shard-*.cql"):
            if shard_file.name not in keep_files:
                shard_file.unlink(missing_ok=True)
        for orphan in self.path.glob("*.tmp-*"):
            orphan.unlink(missing_ok=True)

    def _rebase(self, expected_generation: int) -> ShardedStore:
        fresh = ShardedStore.open(self.path)
        if fresh.generation != expected_generation:
            raise StoreError(
                f"published generation {expected_generation} but the "
                f"directory reopened as generation {fresh.generation}"
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


def _shard_file(
    source, shard: int, records: List[Tuple[LibraryEntry, int]]
) -> Tuple[bytes, List[Dict]]:
    """Serialize ``(entry, version)`` records as shard file ``shard``.

    ``source`` carries the library metadata (a :class:`ShardedStore`
    or a compiled library).  Returns the file's bytes and its records'
    manifest index rows.
    """
    blob, spans = serialize_library_indexed(
        LibraryBitstream(
            device_name=source.device_name,
            window_size=source.window_size,
            variant=source.variant,
            entries=tuple(entry for entry, _version in records),
        )
    )
    rows = [
        _entry_row(
            StoreRecord(
                gate=entry.gate,
                qubits=entry.qubits,
                shard=shard,
                offset=span.offset,
                length=span.length,
                mse=entry.mse,
                threshold=entry.threshold,
                version=version,
            )
        )
        for (entry, version), span in zip(records, spans)
    ]
    return blob, rows


def _hash_routed_shards(
    source, records: List[Tuple[LibraryEntry, int]], n_shards: int, generation: int
) -> Tuple[Dict[str, bytes], List[Dict], List[Dict]]:
    """Serialize ``(entry, version)`` records into ``n_shards`` files.

    Each record goes to shard ``shard_index(gate, qubits, n_shards)``.
    Returns the new files' bytes by name, plus the shard table and the
    index rows of generation ``generation``'s manifest.
    """
    by_shard: List[List[Tuple[LibraryEntry, int]]] = [[] for _ in range(n_shards)]
    for entry, version in records:
        by_shard[shard_index(entry.gate, entry.qubits, n_shards)].append(
            (entry, version)
        )
    blobs: Dict[str, bytes] = {}
    shard_table: List[Dict] = []
    index_rows: List[Dict] = []
    for shard, members in enumerate(by_shard):
        blob, rows = _shard_file(source, shard, members)
        name = _routed_shard_name(generation, shard)
        blobs[name] = blob
        shard_table.append(
            {"file": name, "n_entries": len(members), "n_bytes": len(blob)}
        )
        index_rows += rows
    return blobs, shard_table, index_rows


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
    blobs: Dict[str, bytes],
    shard_table: List[Dict],
    index_rows: List[Dict],
    tombstones: Dict[_Key, int],
) -> None:
    """Publish a generation's new shard files, then its manifest.

    The manifest rename is the commit point: until it lands, the
    directory still opens as the parent generation.
    """
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
        "n_entries": len(index_rows),
        "shards": shard_table,
        "entries": index_rows,
        "tombstones": [
            {"gate": key[0], "qubits": list(key[1]), "version": version}
            for key, version in sorted(tombstones.items())
        ],
    }
    _publish(
        root,
        generation_manifest_name(generation),
        (json.dumps(manifest, indent=1) + "\n").encode("utf-8"),
        "writer.manifest.tmp_written",
        "writer.manifest.published",
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
