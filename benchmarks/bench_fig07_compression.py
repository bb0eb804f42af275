"""Fig 7: compressibility and distortion of the qft-4 working set.

(a) per-waveform R for five representative Guadalupe waveforms under
    delta / DCT-N / DCT-W / int-DCT-W;
(b) overall R for the qft-4 pulse inventory;
(c) mean MSE per variant and window size.
"""

import numpy as np

from conftest import once
from repro.compression import compress_waveform
from repro.compression.codecs.delta import delta_compress
from repro.core import CompaqtCompiler


def _qft4_library(guadalupe):
    """The waveforms a transpiled qft-4 on qubits 0-3 actually uses."""
    keys = []
    for q in range(4):
        keys += [("x", (q,)), ("sx", (q,)), ("measure", (q,))]
    for pair in [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]:
        if (("cx", pair)) in guadalupe.pulse_library():
            keys.append(("cx", pair))
    keys = [k for k in keys if k in guadalupe.pulse_library()]
    return guadalupe.pulse_library().subset(keys)


def _delta_ratio(waveform):
    """Paper-model delta compression over both channels (sign-magnitude)."""
    i_codes, q_codes = waveform.to_fixed_point()
    encoded = [
        delta_compress(c.astype(np.int64)) for c in (i_codes, q_codes)
    ]
    total_old = sum(e.original_bits for e in encoded)
    total_new = sum(e.encoded_bits for e in encoded)
    return total_old / total_new


def test_fig07a_per_waveform_ratios(benchmark, record_table, guadalupe):
    def experiment():
        picks = [
            ("sx", (2,)),
            ("sx", (3,)),
            ("sx", (5,)),
            ("sx", (8,)),
            ("measure", (0,)),
        ]
        rows = []
        for gate, qubits in picks:
            waveform = guadalupe.pulse_library().waveform(gate, qubits)
            rows.append(
                [
                    waveform.name,
                    f"{_delta_ratio(waveform):.2f}",
                    f"{compress_waveform(waveform, codec='DCT-N').compression_ratio_variable:.1f}",
                    f"{compress_waveform(waveform, 16, 'DCT-W').compression_ratio_variable:.2f}",
                    f"{compress_waveform(waveform, 16, 'int-DCT-W').compression_ratio_variable:.2f}",
                ]
            )
        return rows

    rows = once(benchmark, experiment)
    record_table(
        "Fig 7(a): per-waveform compression ratio (WS=16)",
        ["waveform", "delta", "DCT-N", "DCT-W", "int-DCT-W"],
        rows,
        note="paper: delta ~1-2x (zero crossings hurt), DCT variants 4-100x",
    )


def test_fig07b_overall_qft4_ratio(benchmark, record_table, guadalupe):
    def experiment():
        library = _qft4_library(guadalupe)
        rows = []
        delta_old = delta_new = 0
        for waveform in library:
            i_codes, q_codes = waveform.to_fixed_point()
            for codes in (i_codes, q_codes):
                encoded = delta_compress(codes.astype(np.int64))
                delta_old += encoded.original_bits
                delta_new += encoded.encoded_bits
        rows.append(["delta", "-", f"{delta_old / delta_new:.2f}", "1.9"])
        dctn = CompaqtCompiler(codec="DCT-N").compile_library(library)
        rows.append(["DCT-N", "-", f"{dctn.overall_ratio_variable:.1f}", "126.2"])
        for variant in ("DCT-W", "int-DCT-W"):
            for ws, max_k, paper in (
                (8, 1, "4.0"),
                (16, 2, "7.8" if variant == "DCT-W" else "8.0"),
            ):
                compiled = CompaqtCompiler(
                    window_size=ws, codec=variant, max_coefficients=max_k
                ).compile_library(library)
                rows.append(
                    [
                        variant,
                        f"WS={ws}",
                        f"{compiled.overall_ratio_variable:.2f}",
                        paper,
                    ]
                )
        return rows

    rows = once(benchmark, experiment)
    record_table(
        "Fig 7(b): overall compression of the qft-4 inventory",
        ["scheme", "window", "R (ours)", "R (paper)"],
        rows,
        note="windowed schemes capped at WS / (k+1) by the RLE word",
    )


def test_fig07c_mse(benchmark, record_table, guadalupe):
    def experiment():
        library = _qft4_library(guadalupe)
        rows = []
        for variant in ("DCT-N", "DCT-W", "int-DCT-W"):
            for ws in (8, 16):
                if variant == "DCT-N" and ws == 8:
                    continue
                compiled = CompaqtCompiler(
                    window_size=ws, codec=variant
                ).compile_library(library)
                label = "full" if variant == "DCT-N" else f"WS={ws}"
                rows.append([variant, label, f"{compiled.mean_mse:.2e}"])
        return rows

    rows = once(benchmark, experiment)
    record_table(
        "Fig 7(c): mean MSE over qft-4 waveforms",
        ["variant", "window", "MSE (ours)"],
        rows,
        note="paper band: 1e-7 .. 5e-6; int-DCT-W highest (integer rounding)",
    )
