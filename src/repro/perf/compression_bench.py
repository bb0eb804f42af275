"""Encode/decode/bitstream benchmark with machine-readable output.

This is the repo's perf baseline: for every requested device (IBM
heavy-hex family, Google grid, fluxonium) and every registered codec
(all five built-ins by default -- the DCT family plus delta and
dictionary) it measures three pipelines over a full pulse-library
compile:

* **encode** -- a per-pulse loop over the scalar reference
  (:func:`~repro.compression.pipeline.compress_waveform`) vs the
  library compile through the vectorized batch engine, with a
  bit-identity parity check between the two;
* **decode** -- the **fused cold-miss path**
  (:func:`~repro.compression.fastpath.decode_records`: record bytes
  straight to decoded waveforms) vs the scalar reader + scalar decoder
  (:func:`~repro.compression.bitstream.parse_waveform_scalar` +
  :func:`~repro.compression.pipeline.decompress_waveform`), gated on
  bit-identical samples and on the repo's >=10x speedup on windowed
  codecs (:data:`FUSED_SPEEDUP_GATE`);
* **bitstream** -- wire-format serialize/parse throughput (the default
  vectorized parser and the scalar oracle side by side, with an
  object-equality parity gate) plus a canonical round-trip check
  (``serialize(parse(b)) == b`` and the parsed streams equal to the
  compiled ones).

The payload serializes to ``BENCH_compression.json`` (see
``python -m repro bench``) so CI and later PRs can diff numbers
mechanically; :func:`render_bench_table` renders the same payload as a
human-readable table through :mod:`repro.analysis.report`.  CI fails
when any parity or round-trip gate reports a mismatch.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import DeviceError
from repro.analysis.report import render_table
from repro.compression.bitstream import (
    parse_library,
    parse_library_scalar,
    parse_waveform_scalar,
    serialize_library,
    serialize_waveform,
)
from repro.compression.codecs import get_codec, list_codecs
from repro.compression.fastpath import decode_records
from repro.compression.pipeline import compress_waveform, decompress_waveform
from repro.core.compiler import CompaqtCompiler, CompressedPulseLibrary
from repro.devices import IBM_DEVICE_NAMES, fluxonium_device, google_device, ibm_device
from repro.perf.runner import TimingStats, time_callable
from repro.store.atomic import atomic_write
from repro.version import __version__

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_MODES",
    "DEFAULT_OUTPUT",
    "QUICK_DEVICE_SPECS",
    "FULL_DEVICE_SPECS",
    "FUSED_SPEEDUP_GATE",
    "resolve_device",
    "run_compression_bench",
    "render_bench_table",
    "write_bench_json",
]

BENCH_SCHEMA = "compaqt-bench-compression/v5"

#: Committed-baseline gate: the fused bytes->waveform cold-miss path
#: must beat the scalar reader + scalar decoder by at least this factor
#: on every windowed codec (full-frame codecs are reported, not gated:
#: their decode cost is one big matmul either way).
FUSED_SPEEDUP_GATE = 10.0

#: What to measure: the full pipeline, or just one side of the codec.
BENCH_MODES = ("all", "encode", "decode")

DEFAULT_OUTPUT = "BENCH_compression.json"

#: The quick (CI smoke) set still spans all three device families.
QUICK_DEVICE_SPECS = ("bogota", "lima", "guadalupe", "google-3x3", "fluxonium-3")

#: The full set: every IBM catalog entry plus the default Google grid
#: and fluxonium processor.
FULL_DEVICE_SPECS = tuple(IBM_DEVICE_NAMES) + ("google-6x9", "fluxonium-5")


def resolve_device(spec: str):
    """Build a device from a bench spec string.

    Accepted forms: an IBM catalog name (``"guadalupe"``),
    ``"google-<rows>x<cols>"``, or ``"fluxonium-<n_qubits>"``.
    """
    spec = spec.strip().lower()
    if spec.startswith("google-"):
        try:
            rows, cols = (int(p) for p in spec[len("google-") :].split("x"))
        except ValueError:
            raise DeviceError(f"bad google spec {spec!r}; expected google-RxC")
        return google_device(rows, cols)
    if spec.startswith("fluxonium-"):
        try:
            n_qubits = int(spec[len("fluxonium-") :])
        except ValueError:
            raise DeviceError(f"bad fluxonium spec {spec!r}; expected fluxonium-N")
        return fluxonium_device(n_qubits)
    return ibm_device(spec)


def _timing_dict(stats: TimingStats, samples: int, pulses: int) -> Dict[str, float]:
    out = stats.to_dict()
    out["samples_per_s"] = stats.throughput(samples)
    out["pulses_per_s"] = stats.throughput(pulses)
    return out


def _encode_parity_ok(keys, scalar_results, compiled) -> bool:
    """True iff the per-pulse loop and the library compile produced
    bit-identical compressed streams."""
    if len(compiled) != len(keys):
        return False
    for key, s in zip(keys, scalar_results):
        b = compiled.result(*key)
        if s.compressed != b.compressed or s.mse != b.mse:
            return False
    return True


def _decode_parity_ok(scalar_waveforms, fused_waveforms) -> bool:
    """True iff scalar and fused playback emit bit-identical samples."""
    if len(scalar_waveforms) != len(fused_waveforms):
        return False
    for s, f in zip(scalar_waveforms, fused_waveforms):
        if s.name != f.name or not np.array_equal(s.samples, f.samples):
            return False
    return True


def _bench_encode(
    library, compiler_kwargs: Dict, repeats: int, warmup: int
) -> tuple[Dict, "CompressedPulseLibrary"]:
    compiler = CompaqtCompiler(**compiler_kwargs)
    keys = library.keys()
    n_pulses = len(library)
    total_samples = library.total_samples
    scalar_stats, scalar_results = time_callable(
        lambda: [
            compress_waveform(library.waveform(*key), **compiler_kwargs)
            for key in keys
        ],
        repeats,
        warmup,
    )
    batched_stats, batched_lib = time_callable(
        lambda: compiler.compile_library(library), repeats, warmup
    )
    section = {
        "scalar": _timing_dict(scalar_stats, total_samples, n_pulses),
        "batched": _timing_dict(batched_stats, total_samples, n_pulses),
        "speedup": scalar_stats.best_s / batched_stats.best_s,
        "parity": _encode_parity_ok(keys, scalar_results, batched_lib),
    }
    return section, batched_lib


def _bench_decode(compiled, repeats: int, warmup: int) -> Dict:
    entries = [result.compressed for _key, result in compiled]
    total_samples = sum(e.original_samples for e in entries)
    n_pulses = len(entries)

    # The serving cold-miss pipeline, both generations: the scalar
    # reader + scalar decoder (record bytes -> objects -> samples, one
    # word and one window at a time) vs the fused vectorized path
    # (record bytes -> tag/payload arrays -> grouped inverse kernels).
    # This pair feeds the >=10x gate, so even the --quick profile takes
    # at least 5 timed samples of each side, with the collector held
    # off timeit-style (the fused side runs in well under a millisecond
    # on small libraries, where a single sample -- or one mid-run GC
    # pass over the bench's accumulated object graph -- is pure noise).
    gate_repeats = max(repeats, 5)
    blobs = [serialize_waveform(e) for e in entries]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        scalar_cold_stats, scalar_cold_out = time_callable(
            lambda: [
                decompress_waveform(parse_waveform_scalar(b)) for b in blobs
            ],
            gate_repeats,
            warmup,
        )
        fused_stats, fused_out = time_callable(
            lambda: decode_records(blobs), gate_repeats, warmup
        )
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "scalar_cold": _timing_dict(scalar_cold_stats, total_samples, n_pulses),
        "fused": _timing_dict(fused_stats, total_samples, n_pulses),
        "fused_speedup": scalar_cold_stats.best_s / fused_stats.best_s,
        "fused_parity": _decode_parity_ok(scalar_cold_out, fused_out),
    }


def _bench_bitstream(compiled, repeats: int, warmup: int) -> Dict:
    total_samples = sum(
        r.compressed.original_samples for _key, r in compiled
    )
    n_pulses = len(compiled)
    serialize_stats, blob = time_callable(compiled.to_bytes, repeats, warmup)
    parse_stats, parsed = time_callable(lambda: parse_library(blob), repeats, warmup)
    parse_scalar_stats, parsed_scalar = time_callable(
        lambda: parse_library_scalar(blob), repeats, warmup
    )
    roundtrip_ok = serialize_library(parsed) == blob
    if roundtrip_ok:
        loaded = CompressedPulseLibrary.from_bytes(blob)
        for key, result in compiled:
            twin = loaded.result(*key)
            if twin.compressed != result.compressed or not np.array_equal(
                twin.reconstructed.samples, result.reconstructed.samples
            ):
                roundtrip_ok = False
                break
    return {
        "serialize": _timing_dict(serialize_stats, total_samples, n_pulses),
        "parse": _timing_dict(parse_stats, total_samples, n_pulses),
        "parse_scalar": _timing_dict(parse_scalar_stats, total_samples, n_pulses),
        "parse_speedup": parse_scalar_stats.best_s / parse_stats.best_s,
        "parse_parity": parsed == parsed_scalar,
        "n_bytes": len(blob),
        "bytes_per_pulse": len(blob) / max(1, n_pulses),
        "roundtrip_ok": roundtrip_ok,
    }


def run_compression_bench(
    device_specs: Sequence[str] = QUICK_DEVICE_SPECS,
    variants: Optional[Sequence[str]] = None,
    window_size: int = 16,
    repeats: int = 3,
    warmup: int = 1,
    threshold: Optional[float] = None,
    mode: str = "all",
) -> Dict:
    """Run the encode/decode/bitstream library benchmark.

    Args:
        variants: Codec names to measure; defaults to every registered
            codec (``repro codecs``).
        mode: ``"all"`` measures everything; ``"encode"`` times only the
            compile side; ``"decode"`` skips the (slow) scalar compile
            timing and measures playback and the wire format.

    Returns the machine-readable payload (plain dicts/lists/floats, JSON
    serializable as-is; schema v3 adds the per-codec ``codecs``
    aggregation, v5 drops the batched-decode leg).  The ``summary``
    verdicts -- ``all_parity_ok`` (encode), ``all_fused_parity_ok``,
    ``all_parse_parity_ok``, ``all_roundtrip_ok`` and
    ``fused_speedup_gate_ok`` -- are what ``repro bench`` exits on.
    """
    if variants is None:
        variants = tuple(list_codecs())
    if not device_specs:
        raise DeviceError("bench needs at least one device spec")
    if not variants:
        raise DeviceError("bench needs at least one variant")
    if mode not in BENCH_MODES:
        raise DeviceError(f"unknown bench mode {mode!r}; expected one of {BENCH_MODES}")
    entries: List[Dict] = []
    for spec in device_specs:
        device = resolve_device(spec)
        library = device.pulse_library()
        n_pulses = len(library)
        total_samples = library.total_samples
        for variant in variants:
            kwargs = {"window_size": window_size, "codec": variant}
            if threshold is not None:
                kwargs["threshold"] = threshold
            if mode == "decode":
                compiled = CompaqtCompiler(**kwargs).compile_library(library)
                encode_section = None
            else:
                encode_section, compiled = _bench_encode(
                    library, kwargs, repeats, warmup
                )
            entry = {
                "device": device.name,
                "spec": spec,
                "variant": variant,
                "window_size": window_size,
                "n_pulses": n_pulses,
                "total_samples": int(total_samples),
                "encode": encode_section,
                "decode": None,
                "bitstream": None,
                "compression_ratio_uniform": float(compiled.overall_ratio),
                "compression_ratio_variable": float(
                    compiled.overall_ratio_variable
                ),
                "mean_mse": float(compiled.mean_mse),
            }
            if mode != "encode":
                entry["decode"] = _bench_decode(compiled, repeats, warmup)
                entry["bitstream"] = _bench_bitstream(compiled, repeats, warmup)
            entries.append(entry)

    def _gate(rows: List[Dict], section: str, key: str) -> bool:
        checked = [e[section][key] for e in rows if e[section] is not None]
        return all(checked) if checked else True

    def _speedups(
        rows: List[Dict], section: str, key: str = "speedup"
    ) -> List[float]:
        return [e[section][key] for e in rows if e[section] is not None]

    # Per-codec aggregation (schema v3): one encode/decode/bitstream
    # roll-up per registered codec so CI legs and later PRs can gate on
    # a single scheme without re-deriving it from the entry list.
    codecs_section: Dict[str, Dict] = {}
    for variant in variants:
        rows = [e for e in entries if e["variant"] == variant]
        enc = _speedups(rows, "encode")
        fused = _speedups(rows, "decode", "fused_speedup")
        parse = _speedups(rows, "bitstream", "parse_speedup")
        codecs_section[variant] = {
            "n_entries": len(rows),
            "windowed": get_codec(variant).windowed,
            "encode": {
                "parity_ok": _gate(rows, "encode", "parity"),
                "min_speedup": min(enc) if enc else None,
                "max_speedup": max(enc) if enc else None,
            },
            "decode": {
                "fused_parity_ok": _gate(rows, "decode", "fused_parity"),
                "min_fused_speedup": min(fused) if fused else None,
                "max_fused_speedup": max(fused) if fused else None,
            },
            "bitstream": {
                "roundtrip_ok": _gate(rows, "bitstream", "roundtrip_ok"),
                "parse_parity_ok": _gate(rows, "bitstream", "parse_parity"),
                "min_parse_speedup": min(parse) if parse else None,
            },
            "mean_compression_ratio_variable": float(
                np.mean([e["compression_ratio_variable"] for e in rows])
            ),
            "mean_mse": float(np.mean([e["mean_mse"] for e in rows])),
        }

    encode_speedups = _speedups(entries, "encode")
    fused_speedups = _speedups(entries, "decode", "fused_speedup")
    windowed_fused = [
        s
        for e in entries
        if e["decode"] is not None and get_codec(e["variant"]).windowed
        for s in (e["decode"]["fused_speedup"],)
    ]
    return {
        "schema": BENCH_SCHEMA,
        "version": __version__,
        "created_unix": time.time(),
        "config": {
            "devices": list(device_specs),
            "variants": list(variants),
            "window_size": window_size,
            "repeats": repeats,
            "warmup": warmup,
            "threshold": threshold,
            "mode": mode,
        },
        "entries": entries,
        "codecs": codecs_section,
        "summary": {
            "all_parity_ok": _gate(entries, "encode", "parity"),
            "all_roundtrip_ok": _gate(entries, "bitstream", "roundtrip_ok"),
            "all_fused_parity_ok": _gate(entries, "decode", "fused_parity"),
            "all_parse_parity_ok": _gate(entries, "bitstream", "parse_parity"),
            "min_speedup": min(encode_speedups) if encode_speedups else None,
            "max_speedup": max(encode_speedups) if encode_speedups else None,
            "min_fused_speedup": min(fused_speedups) if fused_speedups else None,
            "max_fused_speedup": max(fused_speedups) if fused_speedups else None,
            "min_fused_speedup_windowed": (
                min(windowed_fused) if windowed_fused else None
            ),
            "fused_speedup_gate": FUSED_SPEEDUP_GATE,
            "fused_speedup_gate_ok": (
                min(windowed_fused) >= FUSED_SPEEDUP_GATE
                if windowed_fused
                else True
            ),
            "n_entries": len(entries),
        },
    }


def _fmt_speedup(section: Optional[Dict]) -> str:
    return f"{section['speedup']:.1f}x" if section else "-"


def _entry_gates_ok(entry: Dict) -> bool:
    if entry["encode"] is not None and not entry["encode"]["parity"]:
        return False
    if entry["decode"] is not None and not entry["decode"]["fused_parity"]:
        return False
    if entry["bitstream"] is not None and not (
        entry["bitstream"]["roundtrip_ok"] and entry["bitstream"]["parse_parity"]
    ):
        return False
    return True


def render_bench_table(payload: Dict) -> str:
    """Render a bench payload as the repo's standard ASCII table."""
    rows = []
    for e in payload["entries"]:
        bitstream = e["bitstream"]
        decode = e["decode"]
        rows.append(
            [
                e["device"],
                e["variant"],
                e["n_pulses"],
                _fmt_speedup(e["encode"]),
                f"{decode['fused_speedup']:.1f}x" if decode else "-",
                f"{bitstream['parse_speedup']:.1f}x" if bitstream else "-",
                f"{e['compression_ratio_variable']:.2f}",
                "ok" if _entry_gates_ok(e) else "MISMATCH",
            ]
        )
    summary = payload["summary"]
    gates_ok = (
        summary["all_parity_ok"]
        and summary["all_roundtrip_ok"]
        and summary["all_fused_parity_ok"]
        and summary["all_parse_parity_ok"]
    )
    notes = []
    if summary["min_speedup"] is not None:
        notes.append(
            f"encode {summary['min_speedup']:.1f}x..{summary['max_speedup']:.1f}x"
        )
    if summary["min_fused_speedup"] is not None:
        notes.append(
            f"fused cold-miss {summary['min_fused_speedup']:.1f}x"
            f"..{summary['max_fused_speedup']:.1f}x "
            f"(windowed gate {summary['fused_speedup_gate']:.0f}x: "
            f"{'ok' if summary['fused_speedup_gate_ok'] else 'FAILED'})"
        )
    notes.append(f"parity {'ok' if gates_ok else 'FAILED'}")
    return render_table(
        "Library codec: scalar vs batched encode, scalar vs fused decode "
        f"(WS={payload['config']['window_size']}, "
        f"mode={payload['config']['mode']})",
        [
            "device",
            "variant",
            "pulses",
            "enc speedup",
            "fused miss",
            "parse",
            "R(var)",
            "parity",
        ],
        rows,
        note=", ".join(notes),
    )


def write_bench_json(payload: Dict, path: str = DEFAULT_OUTPUT) -> pathlib.Path:
    """Write the payload to disk (atomically); returns the resolved path."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(out, json.dumps(payload, indent=2) + "\n")
    return out.resolve()
