"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures -- these quantify the trade-offs behind COMPAQT's
design points:

- window-size sweep (8/16/32): compression vs resources vs clock;
- uniform vs variable memory packing;
- fidelity-aware vs fixed thresholding;
- RLE tail encoding vs adaptive plateau bypass;
- delta compression's sample-format sensitivity.
"""

import numpy as np

from conftest import once
from repro.compression import compress_waveform
from repro.compression.codecs.delta import delta_compress
from repro.core import CompaqtCompiler, adaptive_compress, qubit_gain
from repro.microarch import ClockModel, idct_resources
from repro.pulses import Waveform, gaussian_square


def test_ablation_window_size_sweep(benchmark, record_table, guadalupe):
    """WS=16 is the sweet spot: WS=8 halves the gain, WS=32 blows the
    LUT budget and the clock for <1.4x extra compression."""

    def experiment():
        clock = ClockModel()
        rows = []
        for ws in (8, 16, 32):
            compiled = CompaqtCompiler(window_size=ws).compile_library(
                guadalupe.pulse_library()
            )
            rows.append(
                [
                    ws,
                    f"{compiled.overall_ratio_variable:.2f}",
                    f"{qubit_gain(ws):.2f}",
                    idct_resources(ws).luts,
                    f"{clock.normalized_fmax(ws):.2f}",
                ]
            )
        return rows

    rows = once(benchmark, experiment)
    record_table(
        "Ablation: window size",
        ["WS", "library R", "qubit gain", "engine LUTs", "norm. fmax"],
        rows,
        note="WS=32 costs 3.4x the LUTs of WS=16 for diminishing R",
    )


def test_ablation_packing(benchmark, record_table, guadalupe_compiled_ws16):
    """Uniform packing trades ~25% capacity for deterministic banked
    fetches (Section V-A's 'sacrifices compressibility')."""

    def experiment():
        compiled = guadalupe_compiled_ws16
        uniform = compiled.overall_ratio
        variable = compiled.overall_ratio_variable
        assert variable >= uniform
        return [
            ["uniform (RFSoC)", f"{uniform:.2f}"],
            ["variable (ASIC)", f"{variable:.2f}"],
            ["capacity sacrificed", f"{(1 - uniform / variable) * 100:.1f}%"],
        ]

    rows = once(benchmark, experiment)
    record_table(
        "Ablation: memory packing",
        ["packing", "library R"],
        rows,
    )


def test_ablation_fidelity_aware_threshold(benchmark, record_table, guadalupe):
    """Algorithm 1 vs a fixed threshold: same compression regime, but
    the per-pulse search bounds worst-case MSE."""

    def experiment():
        library = guadalupe.pulse_library()
        fixed = CompaqtCompiler(window_size=16, threshold=128).compile_library(library)
        aware = CompaqtCompiler(
            window_size=16, fidelity_aware=True, target_mse=1e-6
        ).compile_library(library)
        assert aware.max_mse <= 1e-6
        return [
            ["fixed threshold=128", f"{fixed.overall_ratio_variable:.2f}",
             f"{fixed.mean_mse:.1e}", f"{fixed.max_mse:.1e}"],
            ["fidelity-aware (eps=1e-6)", f"{aware.overall_ratio_variable:.2f}",
             f"{aware.mean_mse:.1e}", f"{aware.max_mse:.1e}"],
        ]

    rows = once(benchmark, experiment)
    record_table(
        "Ablation: thresholding policy",
        ["policy", "library R", "mean MSE", "max MSE"],
        rows,
        note="Algorithm 1 caps the tail of the MSE distribution",
    )


def test_ablation_adaptive_vs_plain(benchmark, record_table):
    """Plateau bypass on flat-tops: storage and engine work drop ~3x."""

    def experiment():
        n = 1360
        waveform = Waveform(
            "cr", gaussian_square(n, 0.3, 64.0, n - 256), dt=1 / 4.54e9,
            gate="cx", qubits=(0, 1),
        )
        plain = compress_waveform(waveform, window_size=16)
        adaptive = adaptive_compress(waveform, window_size=16)
        return [
            ["plain int-DCT-W", plain.compressed.stored_words("uniform"),
             n // 16, "0%"],
            ["adaptive", adaptive.stored_words, adaptive.idct_windows,
             f"{adaptive.bypass_fraction * 100:.0f}%"],
        ]

    rows = once(benchmark, experiment)
    record_table(
        "Ablation: adaptive plateau bypass (1360-sample CR pulse)",
        ["scheme", "stored words/chan", "IDCT windows", "bypass"],
        rows,
    )


def test_ablation_overlapping_windows(benchmark, record_table, guadalupe):
    """Section VII-B's proposed fix for WS=8 boundary distortion:
    50%-overlapping windows with crossfade synthesis."""

    def experiment():
        from repro.compression import compress_waveform_overlapping

        rows = []
        for gate, qubits in [("sx", (0,)), ("x", (3,)), ("cx", (0, 1))]:
            waveform = guadalupe.pulse_library().waveform(gate, qubits)
            plain = compress_waveform(waveform, window_size=8, max_coefficients=1)
            overlap = compress_waveform_overlapping(
                waveform, window_size=8, max_coefficients=1
            )
            rows.append(
                [
                    waveform.name,
                    f"{plain.mse:.1e}",
                    f"{overlap.mse:.1e}",
                    f"{plain.mse / overlap.mse:.0f}x",
                    f"{plain.compression_ratio_variable:.2f}",
                    f"{overlap.compression_ratio:.2f}",
                ]
            )
            assert overlap.mse < plain.mse
        return rows

    rows = once(benchmark, experiment)
    record_table(
        "Ablation: overlapping windows at WS=8",
        ["waveform", "plain MSE", "overlap MSE", "MSE gain", "plain R", "overlap R"],
        rows,
        note="boundary distortion drops ~10x for ~1.5-2x storage",
    )


def test_ablation_delta_sample_format(benchmark, record_table, guadalupe):
    """The paper's delta-compression failure is a sample-format artifact:
    two's-complement deltas survive zero crossings."""

    def experiment():
        waveform = guadalupe.pulse_library().waveform("sx", (0,))
        _i, q_codes = waveform.to_fixed_point()
        q_codes = q_codes.astype(np.int64)  # the zero-crossing channel
        sm = delta_compress(q_codes, representation="sign-magnitude")
        tc = delta_compress(q_codes, representation="twos-complement")
        assert tc.compression_ratio > sm.compression_ratio
        return [
            ["sign-magnitude (paper)", f"{sm.compression_ratio:.2f}", sm.delta_bits],
            ["twos-complement", f"{tc.compression_ratio:.2f}", tc.delta_bits],
        ]

    rows = once(benchmark, experiment)
    record_table(
        "Ablation: delta compression vs sample format (SX quadrature)",
        ["format", "R", "delta bits"],
        rows,
        note="even rescued, delta lacks DCT's bandwidth expansion property",
    )
