"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.device == "guadalupe"
        assert args.window_size == 16
        assert args.codec == "int-DCT-W"

    def test_bad_window_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--window-size", "12"])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert not args.quick
        assert args.devices is None
        assert args.window_size == 16
        assert args.repeats is None
        assert not args.check

    def test_serve_net_worker_flags(self):
        build_parser().parse_args(["serve-net", "some.cqs"])
        # Cold misses always decode in-process, on the calling thread:
        # there is no decode process pool or fill thread pool to size.
        for flag in ("--workers", "--shm-limit"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve-net", "some.cqs", flag, "1"])

    def test_loadgen_retry_flags(self):
        args = build_parser().parse_args(["loadgen", "127.0.0.1:1"])
        assert args.retries == 0
        assert args.backoff == 0.05
        args = build_parser().parse_args(
            ["loadgen", "127.0.0.1:1", "--retries", "3", "--backoff", "0.01"]
        )
        assert (args.retries, args.backoff) == (3, 0.01)


class TestBenchCheckMode:
    def test_check_evaluates_gates_without_writing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["bench", "--devices", "bogota", "--codecs", "int-DCT-W", "--check"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "check mode" in out
        assert not (tmp_path / "BENCH_compression.json").exists()

    def test_explicit_output_still_writes_under_check(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        # Nested directory: the writers must create parents (CI points
        # --output at an artifact dir that does not exist yet).
        target = tmp_path / "bench-out" / "out.json"
        code = main(
            [
                "bench", "--devices", "bogota", "--codecs", "int-DCT-W",
                "--check", "--output", str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert target.is_file()
        assert not (tmp_path / "BENCH_compression.json").exists()


class TestCommands:
    def test_devices_lists_catalog(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "ibm_bogota" in out
        assert "ibm_washington" in out

    def test_report_runs(self, capsys):
        assert main(["report", "--device", "bogota"]) == 0
        out = capsys.readouterr().out
        assert "overall" in out
        assert "worst window: 3 words" in out

    def test_report_fidelity_aware(self, capsys):
        assert main(["report", "--device", "bogota", "--fidelity-aware"]) == 0
        assert "fidelity-aware" in capsys.readouterr().out

    def test_scalability(self, capsys):
        assert main(["scalability"]) == 0
        out = capsys.readouterr().out
        assert "192" in out  # WS=16 qubits
        assert "5.33x" in out


class TestPackCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["pack", "bogota"])
        assert args.device == "bogota"
        assert args.window_size == 16
        assert args.codec == "int-DCT-W"
        assert args.shards == 0
        assert args.output is None

    def test_codec_validated_against_registry(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pack", "bogota", "--codec", "nope"])

    def test_pack_writes_verified_bitstream(self, tmp_path, capsys):
        out = tmp_path / "bogota.cqt"
        assert main(["pack", "bogota", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "round-trip verified" in stdout
        data = out.read_bytes()
        assert data.startswith(b"CQL1")

        from repro.core import CompaqtCompiler, CompressedPulseLibrary
        from repro.devices import ibm_device

        loaded = CompressedPulseLibrary.load(out)
        compiled = CompaqtCompiler(window_size=16).compile_library(
            ibm_device("bogota").pulse_library()
        )
        assert len(loaded) == len(compiled)
        for key in compiled.keys():
            assert loaded.result(*key).compressed == compiled.result(*key).compressed

    def test_pack_variant_option(self, tmp_path, capsys):
        out = tmp_path / "f.cqt"
        code = main(
            [
                "pack",
                "fluxonium-3",
                "--codec",
                "DCT-W",
                "--window-size",
                "8",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        from repro.core import CompressedPulseLibrary

        loaded = CompressedPulseLibrary.load(out)
        assert loaded.variant == "DCT-W"
        assert loaded.window_size == 8

    def test_pack_prints_path_and_ratio_summary(self, tmp_path, capsys):
        out = tmp_path / "bogota.cqt"
        assert main(["pack", "bogota", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"-> {out}" in stdout
        assert "R(var)=" in stdout
        assert "packed 23 waveforms" in stdout

    def test_pack_shards_writes_store(self, tmp_path, capsys):
        out = tmp_path / "bogota.cqs"
        code = main(
            ["pack", "bogota", "--shards", "3", "--codec", "delta",
             "--output", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "3 shards" in stdout
        assert "round-trip verified" in stdout
        assert f"manifest: {out.resolve()}/manifest-0000000001.json" in stdout
        assert (out / "manifest-0000000001.json").is_file()
        assert not (out / "manifest.json").exists()

        from repro.store import open_store

        store = open_store(out)
        assert store.n_shards == 3
        assert store.variant == "delta"
        assert len(store) == 23

    def test_pack_rejects_negative_shards(self, capsys):
        assert main(["pack", "bogota", "--shards", "-1"]) == 2


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "some.cqs"])
        assert args.store == "some.cqs"
        assert args.requests is None
        assert args.cache_size == 64
        assert not args.no_verify
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "some.cqs", "--workers", "4"])

    def test_serve_synthetic_trace(self, tmp_path, capsys):
        out = tmp_path / "bogota.cqs"
        assert main(["pack", "bogota", "--shards", "2", "--output", str(out)]) == 0
        capsys.readouterr()
        code = main(
            ["serve", str(out), "--synthetic", "100", "--cache-size", "8"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "served 100 requests" in stdout
        assert "bit-identity vs scalar decode: ok" in stdout
        # printed counters describe the trace replay only: the verify
        # pass (one fetch_batch over all 23 keys) must not leak in
        lines = stdout.splitlines()
        header = next(i for i, row in enumerate(lines) if row.startswith("requests"))
        assert lines[header + 2].split()[0] == "100"

    def test_serve_trace_file(self, tmp_path, capsys):
        out = tmp_path / "bogota.cqs"
        assert main(["pack", "bogota", "--shards", "2", "--output", str(out)]) == 0
        capsys.readouterr()

        from repro.store import open_store, synthetic_trace, write_trace

        store = open_store(out)
        trace_path = write_trace(
            synthetic_trace(store.keys(), 40, seed=2), tmp_path / "trace.json"
        )
        code = main(["serve", str(out), "--requests", str(trace_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "served 40 requests" in stdout
        assert "trace.json" in stdout
