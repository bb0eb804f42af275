"""Order statistics the benchmark reports, defined once.

Every percentile in a result is :func:`percentile`: linear interpolation
between the two closest ranks of the sorted sample (rank
``q/100 * (n - 1)``), the definition ``numpy.quantile`` calls
``"linear"`` and ``statistics.quantiles`` calls ``"inclusive"``.  It
never extrapolates past the observed minimum or maximum.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["percentile", "median", "mean", "tail_count"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``; see the module doc."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample (a layer that did no work)."""
    return sum(values) / len(values) if values else 0.0


def tail_count(n: int, q: float) -> int:
    """Samples strictly above the ``q``-th percentile rank of ``n`` samples.

    A percentile is only worth reporting when at least ten samples lie
    beyond it; the result file records this next to each tail latency.
    """
    if n <= 0:
        return 0
    return n - 1 - math.floor((n - 1) * q / 100.0)
