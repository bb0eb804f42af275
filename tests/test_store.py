"""Tests for the sharded store layout, ``save_store``, and the reader.

``save_store`` publishes CQS2 generation 1; :class:`TestLegacyCQS1`
keeps the read-only CQS1 ``manifest.json`` path covered on a legacy
directory built from a saved store.
"""

import json

import numpy as np
import pytest

from repro.errors import CompressionError, ReproError, StoreError
from repro.compression.bitstream import (
    LibraryBitstream,
    LibraryEntry,
    parse_waveform,
    serialize_library,
    serialize_library_indexed,
    serialize_waveform,
)
from repro.compression.pipeline import decompress_waveform
from repro.core import CompaqtCompiler
from repro.devices import ibm_device
from repro.store import (
    MANIFEST_NAME,
    PulseCache,
    ShardedStore,
    StoreWriter,
    generation_manifest_name,
    open_store,
    save_store,
    shard_index,
    verify_store,
)
from repro.store.sharded import normalize_key


@pytest.fixture(scope="module")
def compiled():
    library = ibm_device("bogota").pulse_library()
    return CompaqtCompiler(window_size=16).compile_library(library)


@pytest.fixture()
def store(compiled, tmp_path):
    return save_store(compiled, tmp_path / "bogota.cqs", n_shards=3)


#: The manifest ``save_store`` publishes.
GEN1_MANIFEST = generation_manifest_name(1)


def _container(compiled):
    entries = tuple(
        LibraryEntry(
            gate=gate,
            qubits=qubits,
            mse=result.mse,
            threshold=result.threshold,
            compressed=result.compressed,
        )
        for (gate, qubits), result in compiled
    )
    return LibraryBitstream(
        device_name=compiled.device_name,
        window_size=compiled.window_size,
        variant=compiled.variant,
        entries=entries,
    )


class TestNormalizeKey:
    @pytest.mark.parametrize(
        "qubits",
        [[0, 1], (0, 1), range(2), np.array([0, 1]), [np.int64(0), np.uint8(1)]],
        ids=["list", "tuple", "range", "ndarray", "numpy-ints"],
    )
    def test_qubits_become_plain_int_tuples(self, qubits):
        key = normalize_key("cx", qubits)
        assert key == ("cx", (0, 1))
        assert all(type(q) is int for q in key[1])

    @pytest.mark.parametrize(
        "qubits, error", [(["a"], ValueError), ([None], TypeError), (3, TypeError)]
    )
    def test_non_integer_qubits_raise(self, qubits, error):
        with pytest.raises(error):
            normalize_key("x", qubits)


class TestRecordSpans:
    def test_indexed_serialization_matches_plain(self, compiled):
        container = _container(compiled)
        blob, spans = serialize_library_indexed(container)
        assert blob == serialize_library(container)
        assert len(spans) == len(container.entries)

    def test_spans_slice_to_standalone_records(self, compiled):
        container = _container(compiled)
        blob, spans = serialize_library_indexed(container)
        for entry, span in zip(container.entries, spans):
            record = blob[span.offset : span.end]
            assert record == serialize_waveform(entry.compressed)
            assert record.startswith(b"CQW1")
            assert parse_waveform(record) == entry.compressed
            assert (span.gate, span.qubits) == (entry.gate, entry.qubits)


class TestSaveAndOpen:
    def test_layout_on_disk(self, store, tmp_path):
        root = tmp_path / "bogota.cqs"
        assert store.generation == 1
        assert sorted(p.name for p in root.iterdir()) == [
            GEN1_MANIFEST,
            "shard-g0000000001-0000.cql",
            "shard-g0000000001-0001.cql",
            "shard-g0000000001-0002.cql",
        ]
        manifest = json.loads((root / GEN1_MANIFEST).read_text())
        assert manifest["magic"] == "CQS2"
        assert manifest["format_version"] == 2
        assert manifest["generation"] == 1
        assert manifest["parent_generation"] == 0
        assert manifest["tombstones"] == []
        assert {row["version"] for row in manifest["entries"]} == {1}
        assert manifest["n_shards"] == 3
        assert len(manifest["shards"]) == 3
        for shard, row in enumerate(manifest["shards"]):
            shard_file = root / row["file"]
            assert shard_file.stat().st_size == row["n_bytes"]
            # every shard is a standalone CQL1 container
            assert shard_file.read_bytes().startswith(b"CQL1")
            assert row["n_entries"] == sum(
                1 for key in store.keys() if shard_index(*key, 3) == shard
            )

    def test_metadata_round_trips(self, store, compiled):
        assert store.device_name == compiled.device_name
        assert store.variant == compiled.variant
        assert store.window_size == compiled.window_size
        assert len(store) == len(compiled)
        assert set(store.keys()) == set(compiled.keys())

    def test_single_record_reads_are_bit_exact(self, store, compiled):
        for key in compiled.keys():
            assert store.read_record(*key) == compiled.result(*key).compressed

    def test_record_bytes_are_offset_indexed(self, store):
        key = store.keys()[0]
        info = store.record_info(*key)
        raw = store.read_record_bytes(*key)
        assert raw.startswith(b"CQW1")
        assert len(raw) == info.length
        shard_bytes = store.shard_path(info.shard).read_bytes()
        assert shard_bytes[info.offset : info.offset + info.length] == raw

    def test_entry_metrics_preserved(self, store, compiled):
        for key in compiled.keys():
            info = store.record_info(*key)
            result = compiled.result(*key)
            assert info.mse == result.mse
            assert info.threshold == result.threshold

    def test_sharding_is_stable_hash(self, store):
        for gate, qubits in store.keys():
            assert store.shard_of(gate, qubits) == shard_index(gate, qubits, 3)

    def test_read_many_orders_and_duplicates(self, store, compiled):
        keys = store.keys()
        requests = [keys[0], keys[5], keys[0], keys[-1]]
        records = store.read_many(requests)
        assert len(records) == 4
        for request, record in zip(requests, records):
            assert record == compiled.result(*request).compressed
        assert records[0] == records[2]

    def test_load_library_matches_monolithic_load(self, store, compiled):
        loaded = store.load_library()
        assert len(loaded) == len(compiled)
        for key in compiled.keys():
            twin = loaded.result(*key)
            original = compiled.result(*key)
            assert twin.compressed == original.compressed
            assert np.array_equal(
                twin.reconstructed.samples, original.reconstructed.samples
            )

    def test_empty_shards_are_legal(self, compiled, tmp_path):
        store = save_store(compiled, tmp_path / "wide.cqs", n_shards=41)
        assert store.n_shards == 41
        assert len(store) == len(compiled)
        for key in compiled.keys():
            assert store.read_record(*key) == compiled.result(*key).compressed

    def test_overwrite_with_fewer_shards_removes_stale_files(
        self, compiled, tmp_path
    ):
        root = tmp_path / "resharded.cqs"
        save_store(compiled, root, n_shards=8)
        store = save_store(compiled, root, n_shards=2)
        assert sorted(p.name for p in root.glob("shard-*.cql")) == [
            "shard-g0000000001-0000.cql",
            "shard-g0000000001-0001.cql",
        ]
        assert store.total_shard_bytes == sum(
            p.stat().st_size for p in root.glob("shard-*.cql")
        )
        for key in compiled.keys():
            assert store.read_record(*key) == compiled.result(*key).compressed

    def test_overwrite_drops_later_generations_and_debris(
        self, compiled, tmp_path
    ):
        root = tmp_path / "rewritten.cqs"
        first = save_store(compiled, root, n_shards=3)
        key = first.keys()[0]
        with StoreWriter(root) as writer:
            writer.put(key[0], key[1], _shifted(first, key))
            assert writer.commit().generation == 2
        first.close()
        (root / "manifest-0000000009.json.tmp-4242").write_bytes(b"{")
        store = save_store(compiled, root, n_shards=3)
        assert store.generation == 1
        assert sorted(p.name for p in root.iterdir()) == [
            GEN1_MANIFEST,
            "shard-g0000000001-0000.cql",
            "shard-g0000000001-0001.cql",
            "shard-g0000000001-0002.cql",
        ]
        assert store.read_record(*key) == compiled.result(*key).compressed

    def test_one_shard_store(self, compiled, tmp_path):
        store = save_store(compiled, tmp_path / "one.cqs", n_shards=1)
        assert store.shard_of(*store.keys()[0]) == 0
        assert store.load_library().overall_ratio == compiled.overall_ratio

    def test_compiler_facade(self, compiled, tmp_path):
        compiler = CompaqtCompiler(window_size=16)
        written = compiler.save_store(compiled, tmp_path / "f.cqs", n_shards=2)
        reopened = compiler.load_store(tmp_path / "f.cqs")
        assert isinstance(reopened, ShardedStore)
        assert set(reopened.keys()) == set(written.keys())


class TestValidation:
    def test_shard_index_validates(self):
        with pytest.raises(StoreError):
            shard_index("x", (0,), 0)

    def test_save_rejects_bad_shard_count(self, compiled, tmp_path):
        with pytest.raises(StoreError):
            save_store(compiled, tmp_path / "bad.cqs", n_shards=0)

    def test_open_missing_directory(self, tmp_path):
        root = tmp_path / "nothing.cqs"
        with pytest.raises(StoreError, match="no store manifest in") as info:
            open_store(root)
        assert str(root) in str(info.value)

    def test_open_corrupt_manifest(self, store, tmp_path):
        root = tmp_path / "bogota.cqs"
        (root / GEN1_MANIFEST).write_text("{not json")
        with pytest.raises(StoreError, match="corrupt store manifest"):
            open_store(root)

    def test_open_bad_magic(self, store, tmp_path):
        root = tmp_path / "bogota.cqs"
        original = (root / GEN1_MANIFEST).read_text()
        for magic in ("NOPE", ["CQS2"], None):
            manifest = json.loads(original)
            manifest["magic"] = magic
            (root / GEN1_MANIFEST).write_text(json.dumps(manifest))
            with pytest.raises(StoreError, match="bad magic"):
                open_store(root)

    def test_open_unsupported_version(self, store, tmp_path):
        root = tmp_path / "bogota.cqs"
        manifest = json.loads((root / GEN1_MANIFEST).read_text())
        manifest["format_version"] = 99
        (root / GEN1_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="format version"):
            open_store(root)

    def test_open_malformed_shard_table(self, store, tmp_path):
        root = tmp_path / "bogota.cqs"
        original = (root / GEN1_MANIFEST).read_text()
        for rows in (["x", "y", "z"], [{"n_bytes": 5}] * 3):
            manifest = json.loads(original)
            manifest["shards"] = rows
            (root / GEN1_MANIFEST).write_text(json.dumps(manifest))
            with pytest.raises(StoreError, match="malformed shard table"):
                open_store(root)

    def test_open_malformed_entry_count(self, store, tmp_path):
        root = tmp_path / "bogota.cqs"
        manifest = json.loads((root / GEN1_MANIFEST).read_text())
        manifest["n_entries"] = "lots"
        (root / GEN1_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="malformed CQS2 manifest"):
            open_store(root)

    def test_open_missing_shard_file(self, store, tmp_path):
        store.shard_path(1).unlink()
        with pytest.raises(StoreError, match="missing shard file"):
            open_store(tmp_path / "bogota.cqs")

    def test_open_detects_size_mismatch(self, store, tmp_path):
        root = tmp_path / "bogota.cqs"
        shard = store.shard_path(1)
        shard.write_bytes(shard.read_bytes() + b"\x00")
        with pytest.raises(StoreError, match="bytes on disk"):
            open_store(root)

    def test_open_detects_span_overrun(self, store, tmp_path):
        root = tmp_path / "bogota.cqs"
        manifest = json.loads((root / GEN1_MANIFEST).read_text())
        manifest["entries"][0]["offset"] = 10**9
        (root / GEN1_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="overruns shard"):
            open_store(root)

    def test_open_rejects_negative_offset(self, store, tmp_path):
        # A negative offset whose span still "fits" must not reach
        # handle.seek (OSError) or silently read the wrong bytes.
        root = tmp_path / "bogota.cqs"
        manifest = json.loads((root / GEN1_MANIFEST).read_text())
        manifest["entries"][0]["offset"] = -5000
        (root / GEN1_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="overruns shard"):
            open_store(root)

    def test_unknown_pulse_lookup(self, store):
        with pytest.raises(StoreError, match="no pulse"):
            store.read_record("nope", (0,))

    def test_corrupt_record_bytes_rejected(self, store, tmp_path):
        root = tmp_path / "bogota.cqs"
        key = store.keys()[0]
        info = store.record_info(*key)
        shard = store.shard_path(info.shard)
        blob = bytearray(shard.read_bytes())
        blob[info.offset] ^= 0xFF  # smash the record magic in place
        shard.write_bytes(bytes(blob))
        reopened = open_store(root)  # sizes unchanged: open succeeds
        with pytest.raises(CompressionError):
            reopened.read_record(*key)

    def test_store_error_is_repro_error(self):
        assert issubclass(StoreError, ReproError)


def _shifted(store, key, roll=1):
    """A CompressionResult for ``key`` with recognizably new samples."""
    waveform = store.decode_many([key])[0]
    return CompaqtCompiler(window_size=16).compile_waveform(
        waveform.with_samples(np.roll(waveform.samples, roll) * 0.9)
    )


def _legacy_cqs1(compiled, root, n_shards=2):
    """Build a legacy CQS1 directory: ``manifest.json`` + ``shard-NNNN.cql``.

    Starts from a saved store and rewrites its generation-1 manifest as
    magic ``CQS1``, format version 1, unversioned entries and a shard
    table as wide as ``n_shards``; the shard files take legacy names.
    """
    save_store(compiled, root, n_shards=n_shards).close()
    generation_1 = root / GEN1_MANIFEST
    manifest = json.loads(generation_1.read_text())
    for shard, row in enumerate(manifest["shards"]):
        legacy_name = f"shard-{shard:04d}.cql"
        (root / row["file"]).rename(root / legacy_name)
        row["file"] = legacy_name
    legacy = {
        "magic": "CQS1",
        "format_version": 1,
        "device_name": manifest["device_name"],
        "variant": manifest["variant"],
        "window_size": manifest["window_size"],
        "n_shards": n_shards,
        "n_entries": manifest["n_entries"],
        "shards": manifest["shards"],
        "entries": [
            {field: value for field, value in row.items() if field != "version"}
            for row in manifest["entries"]
        ],
    }
    (root / MANIFEST_NAME).write_text(json.dumps(legacy, indent=1) + "\n")
    generation_1.unlink()
    return root


@pytest.fixture()
def legacy_dir(compiled, tmp_path):
    return _legacy_cqs1(compiled, tmp_path / "legacy.cqs")


def _rewrite(path, **changes):
    manifest = json.loads(path.read_text())
    manifest.update(changes)
    path.write_text(json.dumps(manifest))
    return manifest


class TestLegacyCQS1:
    """The read-only CQS1 path: nothing writes it, every reader opens it."""

    def test_opens_as_generation_zero(self, legacy_dir, compiled):
        store = open_store(legacy_dir)
        assert store.generation == 0
        assert store.tombstones == {}
        assert store.shard_count == store.n_shards == 2
        assert set(store.keys()) == set(compiled.keys())
        assert {store.record_info(*key).version for key in store.keys()} == {1}

    def test_records_are_bit_identical(self, legacy_dir, compiled):
        store = open_store(legacy_dir)
        keys = store.keys()
        for key, waveform in zip(keys, store.decode_many(keys)):
            compressed = compiled.result(*key).compressed
            assert store.read_record_bytes(*key) == serialize_waveform(compressed)
            np.testing.assert_array_equal(
                waveform.samples, decompress_waveform(compressed).samples
            )

    def test_prewarm_fills_the_cache(self, legacy_dir, compiled):
        store = open_store(legacy_dir)
        cache = PulseCache(store, capacity=len(store))
        assert cache.prewarm() == len(store) == len(cache)
        for key in store.keys():
            np.testing.assert_array_equal(
                cache.peek(*key).samples,
                decompress_waveform(compiled.result(*key).compressed).samples,
            )

    def test_load_library_matches_compiled(self, legacy_dir, compiled):
        loaded = open_store(legacy_dir).load_library()
        assert len(loaded) == len(compiled)
        for key in compiled.keys():
            twin, original = loaded.result(*key), compiled.result(*key)
            assert twin.compressed == original.compressed
            np.testing.assert_array_equal(
                twin.reconstructed.samples, original.reconstructed.samples
            )

    def test_load_library_checks_shard_entry_counts(self, legacy_dir):
        path = legacy_dir / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        # A self-consistent index that forgets one record its shard holds.
        _rewrite(
            path,
            entries=manifest["entries"][1:],
            n_entries=manifest["n_entries"] - 1,
        )
        store = open_store(legacy_dir)
        with pytest.raises(StoreError, match="shards hold"):
            store.load_library()

    def test_shard_table_must_be_n_shards_wide(self, legacy_dir):
        _rewrite(legacy_dir / MANIFEST_NAME, n_shards=3)
        with pytest.raises(StoreError, match="declares 3 shards but lists 2"):
            open_store(legacy_dir)

    def test_unsupported_cqs1_version(self, legacy_dir):
        _rewrite(legacy_dir / MANIFEST_NAME, format_version=2)
        with pytest.raises(StoreError, match="unsupported CQS1 format version"):
            open_store(legacy_dir)

    def test_commit_yields_generation_one(self, legacy_dir):
        with StoreWriter(legacy_dir) as writer:
            key = writer.store.keys()[0]
            result = _shifted(writer.store, key)
            writer.put(key[0], key[1], result)
            fresh = writer.commit()
        assert fresh.generation == 1
        assert fresh.record_info(*key).version == 2
        np.testing.assert_array_equal(
            fresh.decode_many([key])[0].samples, result.reconstructed.samples
        )
        report = verify_store(legacy_dir)
        assert report.ok
        assert report.manifest_errors == []
        assert report.generations_found == [0, 1]

    def test_legacy_manifest_retires_once_older_than_the_parent(
        self, legacy_dir
    ):
        # Save, two commits, compact, two commits: compaction sweeps the
        # legacy shards, so a kept manifest.json could never load again.
        with StoreWriter(legacy_dir) as writer:
            key = writer.store.keys()[0]
            for step in range(1, 6):
                if step == 3:
                    writer.compact()
                    continue
                writer.put(key[0], key[1], _shifted(writer.store, key, roll=step))
                writer.commit()
            assert writer.generation == 5
        assert not (legacy_dir / MANIFEST_NAME).exists()
        report = verify_store(legacy_dir)
        assert report.ok
        assert report.manifest_errors == []
        assert report.chain_gaps == []
        assert report.generations_found == [4, 5]


class _BatchRecorder:
    """Test double: records the size of every ``decode_many`` batch."""

    def __init__(self, store):
        self._store = store
        self.batches = []

    def __getattr__(self, name):
        return getattr(self._store, name)

    def decode_many(self, requests):
        requests = list(requests)
        self.batches.append(len(requests))
        return self._store.decode_many(requests)


class TestPrewarm:
    def test_decodes_one_shard_at_a_time(self, store, compiled, tmp_path):
        moved = store.keys()[:3]
        with StoreWriter(tmp_path / "bogota.cqs") as writer:
            for key in moved:
                writer.put(key[0], key[1], _shifted(writer.store, key))
            committed = writer.commit()
        live = [0] * committed.shard_count
        for key in committed.keys():
            live[committed.record_info(*key).shard] += 1
        assert committed.shard_count == 4 and live[3] == len(moved)

        recorder = _BatchRecorder(committed)
        cache = PulseCache(recorder, capacity=len(committed))
        assert cache.prewarm() == len(committed) == len(cache)
        assert max(recorder.batches) <= max(live)
        assert sorted(recorder.batches) == sorted(n for n in live if n)
        for key in committed.keys():
            np.testing.assert_array_equal(
                cache.peek(*key).samples,
                committed.decode_many([key])[0].samples,
            )

    @pytest.mark.parametrize("layout", ["saved", "committed", "legacy"])
    def test_out_of_range_shard_raises_on_every_format(
        self, compiled, tmp_path, layout
    ):
        root = tmp_path / "prewarm.cqs"
        if layout == "legacy":
            _legacy_cqs1(compiled, root)
        else:
            save_store(compiled, root, n_shards=2).close()
        if layout == "committed":
            with StoreWriter(root) as writer:
                key = writer.store.keys()[0]
                writer.put(key[0], key[1], _shifted(writer.store, key))
                writer.commit()
        store = open_store(root)
        cache = PulseCache(store, capacity=len(store))
        for shard in (store.shard_count, -1):
            with pytest.raises(StoreError, match="out of range"):
                cache.prewarm(shards=[shard])
        assert len(cache) == 0
        assert cache.prewarm(shards=[0]) > 0
