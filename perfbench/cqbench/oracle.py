"""Correctness checks, run outside every timed window.

The reference is the scalar path: ``decompress_waveform`` over the
record as stored, parsed by the scalar ``parse_waveform_scalar``.
Served samples must equal it bit for bit.  Decodes are memoized on the
record bytes, so a record that did not change between the snapshot the
window served and the final store is decoded once.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.api import decompress_waveform
from repro.compression.bitstream import parse_waveform_scalar
from repro.errors import ReproError
from repro.pulses.waveform import Waveform

from cqbench.inputs import Key
from cqbench.load import Ledger, failure_reason

__all__ = ["same_samples", "Oracle", "SweepResult", "sweep"]


def same_samples(served: Waveform, reference: Waveform) -> bool:
    """Bit identity of the sample payload (and the sample period)."""
    a, b = served.samples, reference.samples
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and served.dt == reference.dt
        and a.tobytes() == b.tobytes()
    )


class Oracle:
    """Scalar reference decodes of stored records, keyed by record bytes."""

    def __init__(self) -> None:
        self._decoded: Dict[bytes, Waveform] = {}

    def reference(self, record: bytes) -> Waveform:
        waveform = self._decoded.get(record)
        if waveform is None:
            waveform = decompress_waveform(parse_waveform_scalar(record))
            self._decoded[record] = waveform
        return waveform

    def matches(self, served: Waveform, records: Iterable[bytes]) -> bool:
        """Does ``served`` equal the reference decode of any of ``records``?"""
        return any(same_samples(served, self.reference(r)) for r in records)

    def mismatches(
        self, served: Mapping[Key, Waveform], records: Mapping[Key, Sequence[bytes]]
    ) -> List[Key]:
        """Keys whose served payload matches none of their allowed records."""
        return [key for key, wf in served.items() if not self.matches(wf, records[key])]


class SweepResult:
    """The end-of-run sweep: every key fetched once and checked."""

    def __init__(self) -> None:
        self.checked = 0
        self.mismatched: List[Key] = []
        self.mse: List[float] = []

    @property
    def mean_mse(self) -> float:
        return float(np.mean(self.mse)) if self.mse else 0.0


def sweep(
    fetch,
    keys: Sequence[Key],
    stored: Mapping[Key, bytes],
    sources: Mapping[Key, Waveform],
    oracle: Oracle,
    batch_size: int,
    ledger: Ledger,
) -> SweepResult:
    """Fetch every key through ``fetch`` and check it against the oracle.

    ``stored`` holds each key's live record bytes; ``served_mse`` comes
    from here: each key's served samples against the uncompressed pulse
    its live record was compiled from (``sources``).  A batch with a
    mismatched key counts as one failed ``sweep`` operation.
    """
    result = SweepResult()
    for lo in range(0, len(keys), batch_size):
        batch = list(keys[lo : lo + batch_size])
        ledger.attempt("sweep")
        try:
            served = fetch(batch)
        except (ReproError, OSError) as exc:
            ledger.fail("sweep", failure_reason(exc))
            continue
        bad = [
            key
            for key, waveform in zip(batch, served)
            if not same_samples(waveform, oracle.reference(stored[key]))
        ]
        if bad:
            ledger.fail("sweep", "mismatch")
            result.mismatched.extend(bad)
        result.checked += len(served)
        result.mse.extend(w.mse(sources[k]) for k, w in zip(batch, served))
    return result
