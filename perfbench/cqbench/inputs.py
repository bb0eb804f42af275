"""Seeded inputs: key traces, the open-loop schedule and the drift plan.

Everything a run feeds the program is drawn here from the run's
``--seed``, before any timing starts; the same seed gives the same
inputs.  Each purpose draws from its own stream
(``default_rng([seed, stream])``) so that, say, lengthening the read
trace does not change which keys the writer drifts.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "Key",
    "popularity_order",
    "batch_trace",
    "poisson_offsets",
    "drift_plan",
]

Key = Tuple[str, Tuple[int, ...]]

_ORDER, _READS, _SCHEDULE, _DRIFT = range(4)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def popularity_order(keys: Sequence[Key], seed: int) -> List[Key]:
    """A seeded permutation of ``keys``: position 0 is the hottest key.

    Shuffling decouples popularity from library order, where keys of
    one gate type sit together.
    """
    perm = _rng(seed, _ORDER).permutation(len(keys))
    return [keys[i] for i in perm]


def batch_trace(
    ranked: Sequence[Key],
    n_batches: int,
    batch_size: int,
    seed: int,
    stream: int = 0,
    zipf_s: float = 0.0,
) -> List[List[Key]]:
    """``n_batches`` fetch batches of ``batch_size`` keys each.

    With ``zipf_s > 0`` key ``ranked[r]`` is drawn with probability
    proportional to ``(r + 1) ** -zipf_s``; with ``zipf_s == 0`` every
    key is equally likely.  ``stream`` separates the traces of
    concurrent connections.
    """
    if n_batches < 1 or batch_size < 1:
        raise ValueError("a trace needs at least one batch of one key")
    weights = None
    if zipf_s > 0:
        weights = np.arange(1, len(ranked) + 1, dtype=float) ** -zipf_s
        weights /= weights.sum()
    draws = _rng(seed, _READS * 1000 + stream).choice(
        len(ranked), size=(n_batches, batch_size), p=weights
    )
    return [[ranked[i] for i in row] for row in draws.tolist()]


def poisson_offsets(rate: float, duration: float, seed: int, stream: int = 0) -> List[float]:
    """Send times (seconds from the start) of a Poisson process.

    Arrivals at ``rate`` per second in ``[0, duration)``, conditioned on
    their expected count ``round(rate * duration)``: given its count, a
    Poisson process places its arrivals uniformly at random.  Every read
    round then offers the same load, and round-to-round throughput
    differs by the server, not by the draw (a free count varies by
    +-8% over a 2-second round at 75 requests/s).
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("a schedule needs a positive rate and duration")
    n = max(1, round(rate * duration))
    rng = _rng(seed, _SCHEDULE * 1000 + stream)
    return np.sort(rng.uniform(0.0, duration, size=n)).tolist()


def drift_plan(
    strata: Sequence[Sequence[Key]], n_steps: int, per_stratum: int, seed: int
) -> List[List[Key]]:
    """The keys each recalibration step drifts and recompiles.

    Every step takes ``per_stratum`` distinct keys from each stratum, so
    all steps recompile the same mix of pulse lengths and their times
    differ by the machine, not by the draw.
    """
    for stratum in strata:
        if not 1 <= per_stratum <= len(stratum):
            raise ValueError(
                f"per_stratum must be in [1, {len(stratum)}], got {per_stratum}"
            )
    rng = _rng(seed, _DRIFT)
    return [
        [
            stratum[i]
            for stratum in strata
            for i in rng.choice(len(stratum), size=per_stratum, replace=False)
        ]
        for _ in range(n_steps)
    ]
