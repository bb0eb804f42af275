"""Request traces for the pulse-serving subsystem.

A trace is an ordered list of ``(gate, qubits)`` requests -- the
serving workload the controller would generate at gate-issue time.
``repro serve --requests trace.json`` replays a trace file, and the
serving benchmark synthesizes skewed traces so cache behaviour is
measured under realistic reuse (circuit workloads hammer a handful of
calibrated pulses and touch the rest rarely).

The JSON file format accepts, at the top level, either a plain array
or an object with a ``"requests"`` array.  Each request is either a
``[gate, [qubits...]]`` pair or a ``{"gate": ..., "qubits": [...]}``
object::

    [["x", [0]], ["cx", [0, 1]], {"gate": "measure", "qubits": [1]}]
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import StoreError
from repro.store.atomic import atomic_write
from repro.store.sharded import normalize_key

__all__ = ["load_trace", "write_trace", "synthetic_trace", "arrival_times"]

_Key = Tuple[str, Tuple[int, ...]]


def _parse_request(raw, position: int) -> _Key:
    if isinstance(raw, dict):
        try:
            gate, qubits = raw["gate"], raw["qubits"]
        except KeyError as exc:
            raise StoreError(
                f"trace request {position} is missing key {exc}"
            ) from None
    elif isinstance(raw, (list, tuple)) and len(raw) == 2:
        gate, qubits = raw
    else:
        raise StoreError(
            f"trace request {position} must be [gate, [qubits...]] or "
            f"{{'gate': ..., 'qubits': [...]}}, got {raw!r}"
        )
    if not isinstance(gate, str) or not gate:
        raise StoreError(f"trace request {position} has no gate name")
    if not isinstance(qubits, (list, tuple)):
        raise StoreError(f"trace request {position} qubits must be a list")
    # JSON integers only: int() would read 0.9 as 0 and true or "1" as
    # 1, and the trace would replay a pulse it does not name.
    if not all(type(q) is int for q in qubits):
        raise StoreError(
            f"trace request {position} has non-integer qubits {qubits!r}"
        )
    return (gate, tuple(qubits))


def load_trace(path: Union[str, pathlib.Path]) -> List[_Key]:
    """Load a JSON request trace; malformed input raises StoreError."""
    trace_path = pathlib.Path(path)
    if not trace_path.is_file():
        raise StoreError(f"no trace file at {trace_path}")
    try:
        payload = json.loads(trace_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreError(f"corrupt trace file {trace_path}: {exc}") from None
    if isinstance(payload, dict):
        payload = payload.get("requests")
    if not isinstance(payload, list):
        raise StoreError(
            f"{trace_path} must hold a JSON array of requests "
            f"(or an object with a 'requests' array)"
        )
    return [_parse_request(raw, i) for i, raw in enumerate(payload)]


def write_trace(
    requests: Sequence[Tuple[str, Sequence[int]]],
    path: Union[str, pathlib.Path],
) -> pathlib.Path:
    """Write requests as a canonical JSON trace; returns the path."""
    rows = [
        [gate, [int(q) for q in qubits]] for gate, qubits in requests
    ]
    out = pathlib.Path(path)
    atomic_write(out, json.dumps({"requests": rows}, indent=0) + "\n")
    return out.resolve()


def synthetic_trace(
    keys: Sequence[Tuple[str, Sequence[int]]],
    n_requests: int,
    seed: int = 0,
    skew: float = 1.1,
) -> List[_Key]:
    """Synthesize a Zipf-skewed request trace over a store's keys.

    Keys are ranked in a seed-shuffled order and drawn with probability
    proportional to ``rank ** -skew`` -- a few hot pulses dominate, the
    tail appears occasionally, matching how circuit workloads reuse
    calibrated gates.  ``skew=0`` gives a uniform trace.

    Args:
        keys: The request population (e.g. ``store.keys()``).
        n_requests: Trace length (>= 1).
        seed: RNG seed; same inputs always yield the same trace.
        skew: Zipf exponent (finite, >= 0).
    """
    population = [normalize_key(gate, qubits) for gate, qubits in keys]
    if not population:
        raise StoreError("cannot synthesize a trace over zero keys")
    if n_requests < 1:
        raise StoreError(f"n_requests must be >= 1, got {n_requests}")
    if not (math.isfinite(skew) and skew >= 0):
        raise StoreError(f"skew must be finite and >= 0, got {skew}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(population))
    weights = np.arange(1, len(population) + 1, dtype=float) ** -skew
    weights /= weights.sum()
    draws = rng.choice(len(population), size=n_requests, p=weights)
    return [population[order[d]] for d in draws]


def arrival_times(n_requests: int, rate: float, seed: int = 0) -> np.ndarray:
    """Open-loop request send times (seconds from start), sorted ascending.

    A closed-loop generator waits for each response before sending the
    next request, so it can never observe overload; an **open-loop**
    generator sends on a fixed schedule regardless of completions --
    the arrival process real traffic presents.  This returns that
    schedule for :func:`repro.serve_net.loadgen.run_open_loop`: a
    Poisson process (exponential inter-arrivals -- bursty, memoryless,
    the standard open-loop model), shifted so the first arrival is at 0.

    Args:
        n_requests: Number of arrivals (>= 1).
        rate: Mean arrival rate in requests/second (finite, > 0).
        seed: RNG seed; the same seed gives the same schedule.
    """
    if n_requests < 1:
        raise StoreError(f"n_requests must be >= 1, got {n_requests}")
    if not (math.isfinite(rate) and rate > 0):
        raise StoreError(f"rate must be finite and > 0, got {rate}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate, size=n_requests)
    times = np.cumsum(gaps)
    return times - times[0]
