"""Tests for the CQS2 writable store: staging, atomic commit, crash
recovery at every hook point, manifest fuzzing, snapshot adoption, and
the scrub tool."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError, ReproError, StoreError
from repro.compression import decompress_waveform, fastpath
from repro.compression.bitstream import (
    LibraryBitstream,
    LibraryEntry,
    serialize_library_indexed,
)
from repro.core import CompaqtCompiler, CompressedPulseLibrary
from repro.devices import ibm_device
from repro.pulses import Waveform
from repro.store import (
    COMMIT_HOOK_POINTS,
    COMPACT_HOOK_POINTS,
    PulseCache,
    PulseServer,
    ShardedStore,
    StoreWriter,
    atomic_write,
    generation_manifest_name,
    open_store,
    save_store,
    verify_store,
)
from repro.store.hooks import set_preempt_hook
from repro.store.sharded import list_generation_manifests, shard_index
from repro.store.verify import format_report
from repro.transforms.rle import EncodedWindow


@pytest.fixture(scope="module")
def compiled():
    library = ibm_device("bogota").pulse_library()
    return CompaqtCompiler(window_size=16).compile_library(library)


@pytest.fixture()
def store_dir(compiled, tmp_path):
    root = tmp_path / "bogota.cqs"
    save_store(compiled, root, n_shards=3).close()
    return root


def _recalibrated(store, key, roll=1, scale=0.9):
    """A CompressionResult for ``key`` with recognizably new samples."""
    waveform = store.decode_many([key])[0]
    return CompaqtCompiler().compile_waveform(
        waveform.with_samples(np.roll(waveform.samples, roll) * scale)
    )


def _assert_same_as_reopened(handle, root):
    """``handle`` equals a fresh ``ShardedStore.open(root)`` field by field."""
    reopened = ShardedStore.open(root)
    try:
        for attr in ("generation", "n_shards", "device_name", "variant", "window_size"):
            assert getattr(handle, attr) == getattr(reopened, attr), attr
        assert [handle.shard_path(s).name for s in range(handle.shard_count)] == [
            reopened.shard_path(s).name for s in range(reopened.shard_count)
        ]
        assert handle.keys() == reopened.keys()
        for key in reopened.keys():
            got, want = handle.record_info(*key), reopened.record_info(*key)
            assert got == want
            # Exact floats: == would let a sign-flipped zero through.
            assert (got.mse.hex(), got.threshold.hex()) == (
                want.mse.hex(),
                want.threshold.hex(),
            )
            assert handle.read_record_bytes(*key) == reopened.read_record_bytes(*key)
        assert handle.tombstones == reopened.tombstones
    finally:
        reopened.close()


def _reencoded_shards(store):
    """The compaction the writer used to run, kept as the oracle: parse
    every live record, then serialize it again into hash-routed files."""
    by_shard = [[] for _ in range(store.n_shards)]
    keys = store.keys()
    for key, compressed in zip(keys, store.read_many(keys)):
        info = store.record_info(*key)
        by_shard[shard_index(*key, store.n_shards)].append(
            LibraryEntry(
                gate=key[0],
                qubits=key[1],
                mse=info.mse,
                threshold=info.threshold,
                compressed=compressed,
            )
        )
    return [
        serialize_library_indexed(
            LibraryBitstream(
                device_name=store.device_name,
                window_size=store.window_size,
                variant=store.variant,
                entries=tuple(entries),
            )
        )[0]
        for entries in by_shard
    ]


def _with_window_8_record(compiled):
    """``compiled`` with its first pulse encoded at window size 8: a
    record no store of window size 16 may hold."""
    mixed = CompressedPulseLibrary(
        device_name=compiled.device_name,
        window_size=compiled.window_size,
        variant=compiled.variant,
    )
    for key, result in compiled:
        mixed.add(key, result)
    key = compiled.keys()[0]
    narrow = CompaqtCompiler(window_size=8)
    mixed.add(key, narrow.compile_waveform(compiled.waveform(*key)))
    return mixed, key


def _first_word_offset(record: bytes) -> int:
    """Offset of a CQW1 record's first memory word (I channel, window 0)."""
    offset = 10  # magic, codec id, flags, window size
    for _field in ("name", "gate"):
        (length,) = struct.unpack_from("<H", record, offset)
        offset += 2 + length
    offset += 1 + 2 * record[offset]  # qubit count and indices
    return offset + 8 + 8 + 2  # dt, channel length and window count, header


class _Crash(Exception):
    """Injected abort; deliberately NOT a ReproError, like a real crash."""


class _crash_at:
    """Raise _Crash the Nth time ``point`` fires (1-based)."""

    def __init__(self, point, occurrence=1):
        self.point = point
        self.occurrence = occurrence
        self._seen = 0

    def __enter__(self):
        def hook(point):
            if point == self.point:
                self._seen += 1
                if self._seen == self.occurrence:
                    raise _Crash(point)

        self._previous = set_preempt_hook(hook)
        return self

    def __exit__(self, *exc_info):
        set_preempt_hook(self._previous)


class TestAtomicWrite:
    def test_publishes_bytes_and_str(self, tmp_path):
        target = tmp_path / "blob.json"
        assert atomic_write(target, b"{}\n") == target
        assert target.read_bytes() == b"{}\n"
        atomic_write(target, "overwritten\n")
        assert target.read_text() == "overwritten\n"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write(tmp_path / "a.txt", b"x", fsync=False)
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


class TestStaging:
    def test_put_rejects_mismatched_binding(self, store_dir):
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            other = writer.store.keys()[1]
            result = _recalibrated(writer.store, other)
            with pytest.raises(StoreError, match="bound to"):
                writer.put(key[0], key[1], result)

    def test_put_rejects_another_window_size(self, store_dir, tmp_path):
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            waveform = writer.store.decode_many([key])[0]
            foreign = CompaqtCompiler(window_size=8).compile_waveform(waveform)
            with pytest.raises(StoreError, match="window size 8"):
                writer.put(key[0], key[1], foreign)
            assert writer.pending == 0
        # A full-frame codec's window is its pulse length: only
        # windowed codecs compare window sizes.
        library = ibm_device("bogota").pulse_library()
        full_frame = CompaqtCompiler(window_size=16, codec="DCT-N")
        root = tmp_path / "dct-n.cqs"
        save_store(full_frame.compile_library(library), root, n_shards=2).close()
        with StoreWriter(root) as writer:
            waveform = library.waveform(*key)
            writer.put(key[0], key[1], full_frame.compile_waveform(waveform))
            assert writer.commit().generation == 2
        assert verify_store(root).ok

    def test_put_rejects_another_codec(self, store_dir):
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            waveform = writer.store.decode_many([key])[0]
            foreign = CompaqtCompiler(window_size=16, codec="DCT-W").compile_waveform(
                waveform
            )
            with pytest.raises(StoreError, match="'DCT-W'"):
                writer.put(key[0], key[1], foreign)
            assert writer.pending == 0
            assert writer.commit().generation == 1

    def test_delete_unknown_key_raises(self, store_dir):
        with StoreWriter(store_dir) as writer:
            with pytest.raises(StoreError, match="no pulse"):
                writer.delete("no-such-gate", (0,))

    def test_delete_unstages_a_put(self, store_dir):
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            writer.put(key[0], key[1], _recalibrated(writer.store, key))
            assert writer.pending == 1
            writer.delete(*key)
            # The key exists in the base, so the delete still tombstones.
            assert writer.pending == 1

    def test_discard_and_noop_commit(self, store_dir):
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            writer.put(key[0], key[1], _recalibrated(writer.store, key))
            writer.discard_pending()
            assert writer.pending == 0
            same = writer.commit()
            assert same.generation == 1


class TestCommit:
    def test_update_bumps_generation_and_version(self, store_dir):
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            result = _recalibrated(writer.store, key)
            writer.put(key[0], key[1], result)
            fresh = writer.commit()
            assert fresh.generation == 2
            assert fresh.record_info(*key).version == 2
            got = fresh.decode_many([key])[0]
            assert np.array_equal(got.samples, result.reconstructed.samples)

    def test_readers_keep_their_snapshot(self, store_dir):
        old = ShardedStore.open(store_dir)
        key = old.keys()[0]
        before = old.decode_many([key])[0]
        with StoreWriter(store_dir) as writer:
            writer.put(key[0], key[1], _recalibrated(writer.store, key))
            writer.commit()
        # The pinned reader still serves the old bytes, bit for bit.
        again = old.decode_many([key])[0]
        assert np.array_equal(again.samples, before.samples)
        assert old.generation == 1
        old.close()

    def test_delete_tombstones_and_resurrect_bumps(self, store_dir):
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            resurrection = _recalibrated(writer.store, key)
            writer.delete(*key)
            gone = writer.commit()
            assert key not in gone
            assert gone.tombstones[key] == 2
            with pytest.raises(StoreError):
                gone.record_info(*key)
            writer.put(key[0], key[1], resurrection)
            back = writer.commit()
            assert back.record_info(*key).version == 3
            assert back.tombstones == {}

    def test_base_shards_never_rewritten(self, store_dir):
        shard_bytes = {
            p.name: p.read_bytes() for p in store_dir.glob("shard-*.cql")
        }
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            writer.put(key[0], key[1], _recalibrated(writer.store, key))
            writer.commit()
        for name, data in shard_bytes.items():
            assert (store_dir / name).read_bytes() == data

    def test_load_library_on_a_generation(self, store_dir):
        with StoreWriter(store_dir) as writer:
            keys = writer.store.keys()
            writer.put(keys[0][0], keys[0][1], _recalibrated(writer.store, keys[0]))
            writer.delete(*keys[1])
            fresh = writer.commit()
            library = fresh.load_library()
            assert len(library) == len(keys) - 1
            for key, result in library:
                want = decompress_waveform(fresh.read_record(*key))
                assert result.reconstructed.name == want.name
                np.testing.assert_array_equal(
                    result.reconstructed.samples, want.samples
                )


class TestCompact:
    def test_requires_clean_slate(self, store_dir):
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            writer.put(key[0], key[1], _recalibrated(writer.store, key))
            with pytest.raises(StoreError, match="commit or discard"):
                writer.compact()

    def test_drops_dead_bytes_preserves_content(self, store_dir):
        with StoreWriter(store_dir) as writer:
            keys = writer.store.keys()
            writer.put(keys[0][0], keys[0][1], _recalibrated(writer.store, keys[0]))
            writer.delete(*keys[1])
            before = writer.commit()
            expect = {
                key: before.decode_many([key])[0].samples
                for key in before.keys()
            }
            versions = {key: before.record_info(*key).version for key in expect}
            compacted = writer.compact()
            assert compacted.generation == before.generation + 1
            assert compacted.tombstones == {}
            assert compacted.shard_count == compacted.n_shards
            for key, samples in expect.items():
                assert np.array_equal(
                    compacted.decode_many([key])[0].samples, samples
                )
                assert compacted.record_info(*key).version == versions[key]
        assert verify_store(store_dir).ok


class TestPublishedHandles:
    """The handle a publish returns is built from the rows it wrote;
    it must be indistinguishable from reopening the directory."""

    def test_every_handle_equals_a_reopened_store(self, compiled, tmp_path):
        root = tmp_path / "handles.cqs"
        saved = save_store(compiled, root, n_shards=3)
        _assert_same_as_reopened(saved, root)
        saved.close()
        with StoreWriter(root) as writer:
            keys = writer.store.keys()
            template = writer.store.decode_many([keys[0]])[0]
            newcomer = Waveform(
                name="probe", samples=template.samples * 0.5, dt=template.dt,
                gate="probe", qubits=(0,),
            )
            removed = writer.store.decode_many([keys[2]])[0]
            steps = [
                lambda: writer.put(
                    "probe", (0,), CompaqtCompiler().compile_waveform(newcomer)
                ),
                lambda: writer.put(
                    keys[1][0], keys[1][1], _recalibrated(writer.store, keys[1])
                ),
                lambda: writer.delete(*keys[2]),
                lambda: writer.put(
                    keys[2][0], keys[2][1],
                    CompaqtCompiler().compile_waveform(
                        removed.with_samples(np.roll(removed.samples, 3) * 0.8)
                    ),
                ),
            ]
            for stage in steps:
                stage()
                handle = writer.commit()
                assert handle is writer.store
                _assert_same_as_reopened(handle, root)
            assert handle.record_info("probe", (0,)).version == 1
            assert handle.record_info(*keys[2]).version == 3
            compacted = writer.compact()
            assert compacted is writer.store
            _assert_same_as_reopened(compacted, root)

    def test_commit_and_compact_never_reopen(self, store_dir, monkeypatch):
        calls = []
        real_open = ShardedStore.open.__func__
        real_loads = json.loads

        def counting_open(cls, path):
            calls.append("ShardedStore.open")
            return real_open(cls, path)

        def counting_loads(*args, **kwargs):
            calls.append("json.loads")
            return real_loads(*args, **kwargs)

        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            result = _recalibrated(writer.store, key)
            monkeypatch.setattr(ShardedStore, "open", classmethod(counting_open))
            monkeypatch.setattr(json, "loads", counting_loads)
            writer.put(key[0], key[1], result)
            writer.commit()
            writer.compact()
        assert calls == []

    def test_a_newer_generation_on_top_fails_the_commit(self, store_dir):
        def publish_on_top(point):
            if point != "writer.commit.cleanup":
                return
            generation, path = list_generation_manifests(store_dir)[0]
            manifest = json.loads(path.read_text())
            manifest["generation"] = generation + 1
            manifest["parent_generation"] = generation
            (store_dir / generation_manifest_name(generation + 1)).write_text(
                json.dumps(manifest)
            )

        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            writer.put(key[0], key[1], _recalibrated(writer.store, key))
            previous = set_preempt_hook(publish_on_top)
            try:
                with pytest.raises(StoreError, match="published generation 2"):
                    writer.commit()
            finally:
                set_preempt_hook(previous)
            assert writer.generation == 1
        with ShardedStore.open(store_dir) as reopened:
            assert reopened.generation == 3


class TestVerbatimCompaction:
    def test_shards_equal_the_reencode_path(self, store_dir, monkeypatch):
        windows = []
        post_init = EncodedWindow.__post_init__
        make_window = fastpath._make_window

        def counting_post_init(window):
            windows.append(window)
            post_init(window)

        def counting_make_window(*args):
            windows.append(args)
            return make_window(*args)

        with StoreWriter(store_dir) as writer:
            for step in range(1, 23):
                live = writer.store.keys()
                key = live[step % len(live)]
                writer.put(key[0], key[1], _recalibrated(writer.store, key, roll=step))
                if step % 7 == 0:
                    writer.delete(*live[(step + 5) % len(live)])
                writer.commit()
            assert writer.generation == 23
            want = _reencoded_shards(writer.store)
            monkeypatch.setattr(EncodedWindow, "__post_init__", counting_post_init)
            monkeypatch.setattr(fastpath, "_make_window", counting_make_window)
            compacted = writer.compact()
            assert windows == []
            got = [
                compacted.shard_path(s).read_bytes()
                for s in range(compacted.shard_count)
            ]
            assert got == want
            # The counters do see the re-encode path's windows.
            _reencoded_shards(compacted)
            assert windows

    @pytest.mark.parametrize(
        "damage, error, match",
        [
            ("reserved_bit", CompressionError, "reserved bits"),
            ("binding", StoreError, "bound to"),
            ("window_size", StoreError, "window size 8"),
        ],
    )
    def test_damaged_record_fails_before_publishing(
        self, compiled, tmp_path, damage, error, match
    ):
        root = tmp_path / "damaged.cqs"
        if damage == "window_size":
            compiled, _key = _with_window_8_record(compiled)
        save_store(compiled, root, n_shards=3).close()
        store = ShardedStore.open(root)
        first, second = store.keys()[:2]
        info = store.record_info(*first)
        shard_path = store.shard_path(info.shard)
        store.close()
        damaged = set()
        if damage == "reserved_bit":
            damaged = {first}
            blob = bytearray(shard_path.read_bytes())
            record = bytes(blob[info.offset : info.offset + info.length])
            blob[info.offset + _first_word_offset(record) + 3] |= 0x80
            shard_path.write_bytes(bytes(blob))
        elif damage == "binding":
            damaged = {first, second}
            manifest_path = root / generation_manifest_name(1)
            manifest = json.loads(manifest_path.read_text())
            rows = {
                (row["gate"], tuple(row["qubits"])): row
                for row in manifest["entries"]
            }
            for field in ("shard", "offset", "length"):
                rows[first][field], rows[second][field] = (
                    rows[second][field],
                    rows[first][field],
                )
            manifest_path.write_text(json.dumps(manifest))

        before = sorted(path.name for path in root.iterdir())
        with ShardedStore.open(root) as old:
            bytes_before = {key: old.read_record_bytes(*key) for key in old.keys()}
        with StoreWriter(root) as writer:
            with pytest.raises(error, match=match) as raised:
                writer.compact()
            assert isinstance(raised.value, ReproError)
            assert writer.generation == 1
        assert sorted(path.name for path in root.iterdir()) == before
        with ShardedStore.open(root) as reopened:
            assert reopened.generation == 1
            for key, blob in bytes_before.items():
                assert reopened.read_record_bytes(*key) == blob
            reopened.decode_many([k for k in reopened.keys() if k not in damaged])


class TestCrashRecovery:
    """Abort the protocol at every yield point; reopen must be exactly
    the old or the new generation, bit-identical either way."""

    @pytest.mark.parametrize("point", COMMIT_HOOK_POINTS)
    def test_commit_crash_at_every_point(self, store_dir, point):
        base = ShardedStore.open(store_dir)
        keys = base.keys()
        old_samples = {
            key: base.decode_many([key])[0].samples for key in keys
        }
        base.close()

        writer = StoreWriter(store_dir)
        update_key, delete_key = keys[0], keys[1]
        result = _recalibrated(writer.store, update_key)
        writer.put(update_key[0], update_key[1], result)
        writer.delete(*delete_key)
        with _crash_at(point):
            with pytest.raises(_Crash):
                writer.commit()
        writer.close()

        reopened = ShardedStore.open(store_dir)
        assert reopened.generation in (1, 2)
        if reopened.generation == 1:
            # The old world, untouched.
            for key in keys:
                got = reopened.decode_many([key])[0]
                assert np.array_equal(got.samples, old_samples[key])
        else:
            # The new world, complete: update visible, delete applied.
            got = reopened.decode_many([update_key])[0]
            assert np.array_equal(got.samples, result.reconstructed.samples)
            assert delete_key not in reopened
        reopened.close()

        # A resynced writer commits cleanly on whatever survived.
        with StoreWriter(store_dir) as healed:
            key = healed.store.keys()[0]
            healed.put(key[0], key[1], _recalibrated(healed.store, key, roll=2))
            healed.commit()
        assert verify_store(store_dir).ok

    @pytest.mark.parametrize("point", COMPACT_HOOK_POINTS)
    def test_compact_crash_at_every_point(self, store_dir, point):
        writer = StoreWriter(store_dir)
        key = writer.store.keys()[0]
        writer.put(key[0], key[1], _recalibrated(writer.store, key))
        committed = writer.commit()
        expect = {
            k: committed.decode_many([k])[0].samples for k in committed.keys()
        }
        with _crash_at(point):
            with pytest.raises(_Crash):
                writer.compact()
        writer.close()

        reopened = ShardedStore.open(store_dir)
        assert reopened.generation in (2, 3)
        # Compaction moves bytes, never content: both outcomes serve
        # identical samples.
        for k, samples in expect.items():
            assert np.array_equal(reopened.decode_many([k])[0].samples, samples)
        reopened.close()
        assert verify_store(store_dir).ok

    def test_torn_manifest_falls_back_to_parent(self, store_dir):
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            writer.put(key[0], key[1], _recalibrated(writer.store, key))
            writer.commit()
            writer.put(key[0], key[1], _recalibrated(writer.store, key, roll=2))
            writer.commit()
        newest = list_generation_manifests(store_dir)[0][1]
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 2])
        reopened = ShardedStore.open(store_dir)
        assert reopened.generation == 2
        reopened.close()

    def test_orphan_debris_is_ignored_and_swept(self, store_dir):
        (store_dir / "manifest-0000000009.json.tmp-12345").write_bytes(b"{")
        (store_dir / "shard-g0000000042.cql").write_bytes(b"garbage")
        reopened = ShardedStore.open(store_dir)
        assert reopened.generation == 1
        reopened.close()
        with StoreWriter(store_dir) as writer:
            key = writer.store.keys()[0]
            writer.put(key[0], key[1], _recalibrated(writer.store, key))
            writer.commit()
        # The commit's sweep retires both pieces of debris.
        assert not list(store_dir.glob("*.tmp-*"))
        assert not (store_dir / "shard-g0000000042.cql").exists()

    def test_unopenable_everything_raises_typed(self, store_dir):
        (store_dir / generation_manifest_name(1)).write_text("not json")
        (store_dir / generation_manifest_name(2)).write_text("not json")
        with pytest.raises(StoreError, match="no openable manifest generation"):
            ShardedStore.open(store_dir)


def _committed_manifest(store_dir):
    """One real CQS2 manifest (dict) plus its generation path."""
    with StoreWriter(store_dir) as writer:
        key = writer.store.keys()[0]
        writer.put(key[0], key[1], _recalibrated(writer.store, key))
        fresh = writer.commit()
    path = store_dir / generation_manifest_name(fresh.generation)
    return json.loads(path.read_text()), path


class TestManifestFuzz:
    """Hostile CQS2 manifests: anything invalid must raise StoreError
    (and only StoreError); benign variation must still open."""

    def test_unknown_fields_are_tolerated(self, store_dir):
        manifest, path = _committed_manifest(store_dir)
        manifest["x-future-extension"] = {"anything": [1, 2, 3]}
        manifest["entries"][0]["x-note"] = "tolerated"
        path.write_text(json.dumps(manifest))
        fresh = ShardedStore.open(store_dir)
        assert fresh.generation == 2
        fresh.close()

    def test_generation_gaps_are_tolerated(self, store_dir):
        manifest, path = _committed_manifest(store_dir)
        manifest["generation"] = 7
        (store_dir / generation_manifest_name(7)).write_text(
            json.dumps(manifest)
        )
        path.unlink()
        fresh = ShardedStore.open(store_dir)
        assert fresh.generation == 7
        fresh.close()
        report = verify_store(store_dir)
        assert report.ok  # gaps are advisory
        assert report.chain_gaps

    def test_duplicate_entry_keys_raise(self, store_dir):
        manifest, path = _committed_manifest(store_dir)
        manifest["entries"].append(dict(manifest["entries"][0]))
        manifest["n_entries"] += 1
        path.write_text(json.dumps(manifest))
        # The torn-write fallback opens the parent instead; force the
        # single-candidate path by removing the fallbacks.
        (store_dir / generation_manifest_name(1)).unlink()
        with pytest.raises(StoreError, match="duplicate"):
            ShardedStore.open(store_dir)

    def test_tombstone_colliding_with_live_entry_raises(self, store_dir):
        manifest, path = _committed_manifest(store_dir)
        first = manifest["entries"][0]
        manifest["tombstones"].append(
            {"gate": first["gate"], "qubits": first["qubits"], "version": 9}
        )
        path.write_text(json.dumps(manifest))
        (store_dir / generation_manifest_name(1)).unlink()
        with pytest.raises(StoreError):
            ShardedStore.open(store_dir)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_manifests_fail_typed_or_open(
        self, tmp_path_factory, compiled, data
    ):
        root = tmp_path_factory.mktemp("fuzz") / "bogota.cqs"
        save_store(compiled, root, n_shards=2).close()
        manifest, path = _committed_manifest(root)

        mutation = data.draw(
            st.sampled_from(
                [
                    "unknown_field",
                    "bad_version",
                    "bad_generation",
                    "bad_shard",
                    "bad_span",
                    "dup_entry",
                    "dup_tombstone",
                    "stale_tombstone",
                    "wrong_count",
                    "truncate_json",
                ]
            )
        )
        if mutation == "unknown_field":
            manifest[data.draw(st.text(min_size=1, max_size=8))] = data.draw(
                st.integers()
            )
        elif mutation == "bad_version":
            manifest["entries"][0]["version"] = data.draw(
                st.integers(max_value=0)
            )
        elif mutation == "bad_generation":
            manifest["generation"] = data.draw(st.integers(max_value=0))
        elif mutation == "bad_shard":
            manifest["entries"][0]["shard"] = data.draw(
                st.integers(min_value=len(manifest["shards"]))
            )
        elif mutation == "bad_span":
            manifest["entries"][0]["offset"] = data.draw(
                st.integers(min_value=10**9)
            )
        elif mutation == "dup_entry":
            manifest["entries"].append(dict(manifest["entries"][0]))
            manifest["n_entries"] += 1
        elif mutation == "dup_tombstone":
            manifest["tombstones"] = [
                {"gate": "zz", "qubits": [0], "version": 1},
                {"gate": "zz", "qubits": [0], "version": 2},
            ]
        elif mutation == "stale_tombstone":
            first = manifest["entries"][0]
            manifest["tombstones"] = [
                {
                    "gate": first["gate"],
                    "qubits": first["qubits"],
                    "version": 1,
                }
            ]
        elif mutation == "wrong_count":
            manifest["n_entries"] += data.draw(
                st.integers(min_value=1, max_value=5)
            )
        blob = json.dumps(manifest)
        if mutation == "truncate_json":
            blob = blob[: data.draw(st.integers(min_value=0, max_value=len(blob) - 1))]
        path.write_text(blob)
        # Force the single-candidate path.
        (root / generation_manifest_name(1)).unlink()

        try:
            fresh = ShardedStore.open(root)
        except ReproError:
            pass  # typed failure is the contract
        else:
            fresh.close()


class TestAdoptionAndRefresh:
    def test_cache_adopt_evicts_only_changed_versions(self, store_dir):
        store = open_store(store_dir)
        keys = store.keys()
        cache = PulseCache(store, capacity=len(keys))
        cache.load_many(keys)
        assert len(cache) == len(keys)

        with StoreWriter(store_dir) as writer:
            changed, removed = keys[0], keys[1]
            writer.put(changed[0], changed[1], _recalibrated(writer.store, changed))
            writer.delete(*removed)
            fresh = writer.commit()

        invalidated = cache.adopt_store(fresh)
        assert invalidated == 2
        assert changed not in cache
        assert removed not in cache
        assert keys[2] in cache
        stats = cache.stats()
        assert stats["insertions"] - stats["evictions"] == stats["size"]
        # The changed key now decodes the new generation's bytes.
        got = cache.load_many([changed])[changed]
        assert np.array_equal(
            got.samples, fresh.decode_many([changed])[0].samples
        )
        store.close()

    def test_server_refresh_adopts_new_generation(self, store_dir):
        with PulseServer(open_store(store_dir), cache_capacity=32) as server:
            key = server.store.keys()[0]
            before = server.fetch(*key)
            assert server.refresh() is False

            with StoreWriter(store_dir) as writer:
                result = _recalibrated(writer.store, key)
                writer.put(key[0], key[1], result)
                writer.commit()

            assert server.refresh() is True
            assert server.store.generation == 2
            after = server.fetch(*key)
            assert np.array_equal(
                after.samples, result.reconstructed.samples
            )
            assert not np.array_equal(after.samples, before.samples)
            counters = server.metrics_snapshot()["counters"]
            assert counters["server.generation_adoptions"] == 1
            assert counters["cache.invalidations"] >= 1

    def test_server_store_is_the_cache_snapshot(self, store_dir):
        with PulseServer(open_store(store_dir), cache_capacity=8) as server:
            first = server.store
            assert first is server.cache.store
            with pytest.raises(AttributeError):
                server.store = first
            with StoreWriter(store_dir) as writer:
                key = writer.store.keys()[0]
                writer.put(key[0], key[1], _recalibrated(writer.store, key))
                writer.commit()
            assert server.refresh() is True
            assert server.store is server.cache.store
            assert server.store is not first
            assert server.store.generation == 2


class TestVerifyTool:
    def test_clean_store_is_ok(self, store_dir):
        report = verify_store(store_dir)
        assert report.ok
        assert report.generation == 1
        assert report.n_records > 0
        assert "status  OK" in format_report(report)

    def test_corrupt_record_is_reported(self, store_dir):
        store = ShardedStore.open(store_dir)
        record = store.record_info(*store.keys()[0])
        shard_path = store.shard_path(record.shard)
        store.close()
        blob = bytearray(shard_path.read_bytes())
        blob[record.offset + 10] ^= 0xFF
        shard_path.write_bytes(bytes(blob))

        report = verify_store(store_dir)
        assert not report.ok
        damaged = [s for s in report.shards if s.damage]
        assert damaged
        assert "DAMAGED" in format_report(report)

    def test_record_of_another_window_size_is_reported(self, compiled, tmp_path):
        root = tmp_path / "mixed.cqs"
        mixed, key = _with_window_8_record(compiled)
        save_store(mixed, root, n_shards=2).close()
        report = verify_store(root)
        assert not report.ok
        damage = [item for shard in report.shards for item in shard.damage]
        assert len(damage) == 1
        assert repr(key[0]) in damage[0] and "window size 8" in damage[0]

    def test_missing_shard_is_fatal(self, store_dir):
        next(store_dir.glob("shard-*.cql")).unlink()
        report = verify_store(store_dir)
        assert not report.ok
        assert report.fatal

    def test_cli_exit_codes(self, store_dir, capsys):
        from repro.cli import main

        assert main(["store", "verify", str(store_dir)]) == 0
        next(store_dir.glob("shard-*.cql")).unlink()
        assert main(["store", "verify", str(store_dir)]) == 1
        assert "DAMAGED" in capsys.readouterr().out
