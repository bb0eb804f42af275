"""Fig 9 + Table III: two-qubit randomized benchmarking with compressed
pulses.

Fig 9 plots the RB decay with uncompressed vs int-DCT-W pulses on
Guadalupe; Table III tabulates RB fidelity for three machines and all
three DCT variants.  The experiment: coherent per-gate error unitaries
are extracted from the decompressed waveforms via pulse simulation and
injected into the RB sequences on top of the calibrated stochastic
noise floor.
"""

from conftest import once
from repro.core import CompaqtCompiler
from repro.devices import ibm_device
from repro.quantum import (
    RBConfig,
    gate_error_unitary,
    rb_errors_from_gate_errors,
    run_two_qubit_rb,
)

_LENGTHS = (1, 10, 25, 50, 75, 100)


def _compression_rb_errors(device, window_size, variant):
    library = device.pulse_library()
    compiled = CompaqtCompiler(
        window_size=window_size, codec=variant
    ).compile_library(
        library.subset([("sx", (0,)), ("sx", (1,)), ("cx", (0, 1))])
    )
    return rb_errors_from_gate_errors(
        gate_error_unitary(
            library.waveform("sx", (0,)), compiled.waveform("sx", (0,)), "sx"
        ),
        gate_error_unitary(
            library.waveform("sx", (1,)), compiled.waveform("sx", (1,)), "sx"
        ),
        gate_error_unitary(
            library.waveform("cx", (0, 1)), compiled.waveform("cx", (0, 1)), "cx"
        ),
    )


def test_fig09_rb_decay(benchmark, record_table, guadalupe):
    def experiment():
        config = RBConfig(lengths=_LENGTHS, n_sequences=30, seed=909)
        baseline = run_two_qubit_rb(config)
        errors = _compression_rb_errors(guadalupe, 16, "int-DCT-W")
        compressed = run_two_qubit_rb(config, errors)
        rows = [
            ["baseline", *(f"{s:.3f}" for s in baseline.survival),
             f"{baseline.fidelity:.3f}", f"{baseline.epc:.2e}"],
            ["int-DCT-W", *(f"{s:.3f}" for s in compressed.survival),
             f"{compressed.fidelity:.3f}", f"{compressed.epc:.2e}"],
        ]
        assert abs(baseline.fidelity - compressed.fidelity) < 0.01
        return rows

    rows = once(benchmark, experiment)
    record_table(
        "Fig 9: RB survival vs Clifford length (Guadalupe)",
        ["design", *(f"m={m}" for m in _LENGTHS), "fidelity", "EPC"],
        rows,
        note="paper: 0.978 baseline vs 0.975 compressed (EPC 1.65e-2 vs 1.84e-2)",
    )


def test_table03_rb_across_machines(benchmark, record_table):
    paper = {
        "bogota": "0.980 / 0.982 / 0.983 / 0.983",
        "guadalupe": "0.978 / 0.977 / 0.976 / 0.975",
        "hanoi": "0.987 / 0.989 / 0.986 / 0.988",
    }

    def experiment():
        rows = []
        for name in ("bogota", "guadalupe", "hanoi"):
            device = ibm_device(name)
            config = RBConfig(lengths=_LENGTHS, n_sequences=24, seed=hash(name) % 9999)
            fidelities = [run_two_qubit_rb(config).fidelity]
            for variant, ws in (("DCT-N", 16), ("DCT-W", 16), ("int-DCT-W", 16)):
                errors = _compression_rb_errors(device, ws, variant)
                fidelities.append(run_two_qubit_rb(config, errors).fidelity)
            rows.append(
                [name, *(f"{f:.4f}" for f in fidelities), paper[name]]
            )
            spread = max(fidelities) - min(fidelities)
            assert spread < 0.01  # compression is fidelity-neutral
        return rows

    rows = once(benchmark, experiment)
    record_table(
        "Table III: 2Q RB fidelity per machine and variant (WS=16)",
        ["machine", "baseline", "DCT-N", "DCT-W", "int-DCT-W", "paper (b/n/w/i)"],
        rows,
    )
