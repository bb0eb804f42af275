"""Benchmark circuit builders (paper Table VI).

These reproduce the QASMBench-derived workloads the paper evaluates:
swap, toffoli, qft-4, adder-4, bv-5, four QAOA instances, plus the
40-qubit QAOA used in the bandwidth study.  Each builder returns a
logical :class:`Circuit` ending in measurement; transpilation onto a
device adds routing SWAPs, so physical CX counts exceed the logical
ones just as on IBM's heavy-hex machines.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import networkx as nx

from repro.errors import SimulationError
from repro.circuits.circuit import Circuit

__all__ = [
    "swap_circuit",
    "toffoli_circuit",
    "qft_circuit",
    "adder4_circuit",
    "bernstein_vazirani_circuit",
    "qaoa_circuit",
    "ghz_circuit",
    "paper_benchmarks",
]


def swap_circuit() -> Circuit:
    """Table VI's ``swap``: move an excitation across a SWAP (3 CX)."""
    circuit = Circuit(2, name="swap")
    circuit.x(0)
    circuit.swap(0, 1)
    circuit.measure()
    return circuit


def toffoli_circuit() -> Circuit:
    """Table VI's ``toffoli``: 111 <- CCX on |110> (12 CX transpiled)."""
    circuit = Circuit(3, name="toffoli")
    circuit.x(0)
    circuit.x(1)
    circuit.ccx(0, 1, 2)
    circuit.measure()
    return circuit


def qft_circuit(n: int = 4, prepare_ones: bool = True) -> Circuit:
    """Quantum Fourier Transform on |1...1> (QASMBench's qft-4)."""
    if n < 1:
        raise SimulationError(f"qft needs >= 1 qubit, got {n}")
    circuit = Circuit(n, name=f"qft-{n}")
    if prepare_ones:
        for q in range(n):
            circuit.x(q)
    for target in range(n):
        circuit.h(target)
        for control in range(target + 1, n):
            circuit.cp(math.pi / 2 ** (control - target), control, target)
    for q in range(n // 2):
        circuit.swap(q, n - 1 - q)
    circuit.measure()
    return circuit


def adder4_circuit() -> Circuit:
    """4-qubit ripple-carry full adder (QASMBench's adder-4).

    Computes 1 + 1 (+ carry-in 0): qubits are (cin, a, b, cout); the
    MAJ/UMA construction leaves b = a+b's sum bit and cout the carry.
    """
    circuit = Circuit(4, name="adder-4")
    cin, a, b, cout = 0, 1, 2, 3
    circuit.x(a)
    circuit.x(b)
    # MAJ(cin, b, a)
    circuit.cx(a, b)
    circuit.cx(a, cin)
    circuit.ccx(cin, b, a)
    # carry out
    circuit.cx(a, cout)
    # UMA(cin, b, a)
    circuit.ccx(cin, b, a)
    circuit.cx(a, cin)
    circuit.cx(cin, b)
    circuit.measure()
    return circuit


def bernstein_vazirani_circuit(secret: str = "01010") -> Circuit:
    """Bernstein-Vazirani with a hidden string (Table VI's bv-5).

    ``len(secret)`` data qubits plus one ancilla; the default secret has
    two 1-bits, matching the paper's 2-CNOT oracle.
    """
    if not secret or any(b not in "01" for b in secret):
        raise SimulationError(f"invalid secret {secret!r}")
    n = len(secret)
    circuit = Circuit(n + 1, name=f"bv-{n}")
    ancilla = n
    circuit.x(ancilla)
    circuit.h(ancilla)
    for q in range(n):
        circuit.h(q)
    for q, bit in enumerate(secret):
        if bit == "1":
            circuit.cx(q, ancilla)
    for q in range(n):
        circuit.h(q)
    circuit.measure(range(n))
    return circuit


def _qaoa_graph(n: int, kind: str, seed: int) -> List[Tuple[int, int]]:
    if kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "3-regular":
        graph = nx.random_regular_graph(3, n, seed=seed)
        return sorted(tuple(sorted(e)) for e in graph.edges)
    if kind == "erdos":
        graph = nx.gnp_random_graph(n, 0.5, seed=seed)
        return sorted(tuple(sorted(e)) for e in graph.edges)
    raise SimulationError(f"unknown QAOA graph kind {kind!r}")


def qaoa_circuit(
    n: int,
    kind: str = "3-regular",
    p: int = 1,
    seed: int = 7,
    name: Optional[str] = None,
) -> Circuit:
    """MaxCut QAOA ansatz with fixed (gamma, beta) angles.

    Args:
        n: Qubit count.
        kind: "complete", "3-regular" or "erdos" cost graph.
        p: QAOA depth (layers).
        seed: Graph seed (angle schedule is deterministic).
        name: Circuit label (defaults to ``qaoa-n``).
    """
    if n < 2:
        raise SimulationError(f"qaoa needs >= 2 qubits, got {n}")
    edges = _qaoa_graph(n, kind, seed)
    circuit = Circuit(n, name=name or f"qaoa-{n}")
    for q in range(n):
        circuit.h(q)
    for layer in range(p):
        gamma = 0.8 * (layer + 1) / p
        beta = 0.4 / (layer + 1)
        for a, b in edges:
            circuit.rzz(2 * gamma, a, b)
        for q in range(n):
            circuit.rx(2 * beta, q)
    circuit.measure()
    return circuit


def ghz_circuit(n: int) -> Circuit:
    """n-qubit GHZ state preparation (used by examples/tests)."""
    circuit = Circuit(n, name=f"ghz-{n}")
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    circuit.measure()
    return circuit


def paper_benchmarks() -> List[Circuit]:
    """The nine fidelity benchmarks of Table VI, in paper order."""
    return [
        swap_circuit(),
        toffoli_circuit(),
        qft_circuit(4),
        adder4_circuit(),
        bernstein_vazirani_circuit("01010"),
        qaoa_circuit(6, kind="complete", p=2, seed=11, name="qaoa-6"),
        qaoa_circuit(8, kind="3-regular", p=1, seed=8, name="qaoa-8a"),
        qaoa_circuit(8, kind="3-regular", p=2, seed=21, name="qaoa-8b"),
        qaoa_circuit(10, kind="erdos", p=1, seed=10, name="qaoa-10"),
    ]
