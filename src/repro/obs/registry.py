"""Thread-safe metrics registry: counters, gauges, latency histograms.

This module is the single source of truth for every counter in the
serving stack.  Each layer's ``stats()`` dict reads the same
:class:`Counter` objects its registry snapshot reads, so the two
surfaces can never drift.

Design constraints, in order:

1. **Hot-path cost.**  ``Counter.inc()`` is lock-free: it consumes one
   tick of an :func:`itertools.count`, whose ``__next__`` is atomic
   under the GIL.  Reads and bulk adds are rare and take a lock,
   compensating for the ticks that reads themselves consume.  The warm
   serving path increments a handful of counters per request; the
   bench's instrumentation leg gates the total overhead at <= 5%.
2. **Exact under races.**  N threads calling ``inc()`` concurrently
   sum exactly -- no sampled or sloppy counters -- because the chaos
   invariant checker's counter laws (``insertions - evictions ==
   size``, ``fetches == fetches_ok + request_errors``) hold only on
   exact counts.
3. **Mergeable.**  ``snapshot()`` produces a plain-dict value that
   :func:`merge_snapshots` combines associatively and commutatively,
   which is what lets a server fold a shared cache's registry and the
   network tier's registry into one view.

Histograms use fixed log-spaced buckets; display quantiles are exact
within a bucket via linear interpolation over the cumulative counts.
:func:`exact_quantile` is the shared sample-quantile kernel (linear
interpolation, identical to ``numpy.quantile``'s default method) used
both here and by ``repro.serve_net.loadgen``.
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_SIZE_BOUNDS",
    "exact_quantile",
    "merge_snapshots",
    "render_prometheus",
    "default_registry",
    "set_default_registry",
]

# Quarter-decade log spacing from 1 microsecond to 100 seconds: wide
# enough for a cold multi-shard fill, fine enough that interpolated
# p99s land within ~30% of the true value.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 4.0), 12) for exponent in range(-24, 9)
)

# Powers of two for size-like observations (batch sizes, byte counts).
DEFAULT_SIZE_BOUNDS: Tuple[float, ...] = tuple(float(2**i) for i in range(17))


def exact_quantile(values: Sequence[float], q: float, *, presorted: bool = False) -> float:
    """Sample quantile with linear interpolation between closest ranks.

    Matches ``numpy.quantile(values, q)`` (the default ``"linear"``
    method): the quantile sits at fractional rank ``q * (n - 1)`` of
    the sorted sample.  Shared by :class:`Histogram` display quantiles
    and ``loadgen.latency_summary`` so every percentile in the repo
    comes from one definition.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    xs = list(values) if presorted else sorted(values)
    if not xs:
        raise ValueError("cannot take a quantile of an empty sequence")
    position = q * (len(xs) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(xs[lower])
    fraction = position - lower
    return float(xs[lower]) * (1.0 - fraction) + float(xs[upper]) * fraction


class Counter:
    """Monotonic counter with a lock-free single-increment fast path.

    ``inc()`` consumes one tick of an ``itertools.count`` -- atomic
    under the GIL, no lock.  Reads also consume a tick, so ``value``
    subtracts the number of reads taken so far; bulk adds accumulate
    in a locked offset.  Both are rare next to increments.
    """

    __slots__ = ("name", "_ticks", "_lock", "_reads", "_offset")

    def __init__(self, name: str) -> None:
        self.name = name
        self._ticks = itertools.count()
        self._lock = threading.Lock()
        self._reads = 0
        self._offset = 0

    def inc(self, amount: int = 1) -> None:
        if amount == 1:
            next(self._ticks)
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        with self._lock:
            self._offset += amount

    @property
    def value(self) -> int:
        with self._lock:
            ticks_plus_reads = next(self._ticks)
            observed = ticks_plus_reads - self._reads + self._offset
            self._reads += 1
            return observed


class Gauge:
    """A value that can go up and down (e.g. in-flight requests)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with log-spaced bounds.

    Observations land in the bucket whose upper bound is the first one
    ``>= value`` (``bisect_left`` over the bound tuple); values above
    the last bound go to an overflow bucket.  Quantiles walk the
    cumulative counts to the bucket containing fractional rank
    ``q * (count - 1)`` (the :func:`exact_quantile` convention) and
    interpolate linearly inside it, clamped to the observed min/max.
    """

    __slots__ = ("name", "bounds", "_lock", "_buckets", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        chosen = tuple(float(b) for b in (bounds or DEFAULT_LATENCY_BOUNDS))
        if not chosen or any(b2 <= b1 for b1, b2 in zip(chosen, chosen[1:])):
            raise ValueError(f"histogram {name!r} bounds must be strictly increasing")
        self.bounds = chosen
        self._lock = threading.Lock()
        self._buckets = [0] * (len(chosen) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._buckets[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "bounds": list(self.bounds),
                "buckets": list(self._buckets),
            }

    def quantile(self, q: float) -> float:
        """Interpolated quantile from the bucket counts (0 if empty)."""
        return _snapshot_quantile(self.snapshot(), q)

    def percentiles(self) -> Dict[str, float]:
        snap = self.snapshot()
        return {
            "p50": _snapshot_quantile(snap, 0.50),
            "p95": _snapshot_quantile(snap, 0.95),
            "p99": _snapshot_quantile(snap, 0.99),
        }


def _snapshot_quantile(snap: Mapping[str, object], q: float) -> float:
    """Exact-rank interpolated quantile over a histogram snapshot."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = int(snap["count"])  # type: ignore[arg-type]
    if count == 0:
        return 0.0
    bounds: List[float] = list(snap["bounds"])  # type: ignore[arg-type]
    buckets: List[int] = list(snap["buckets"])  # type: ignore[arg-type]
    lo = float(snap["min"])  # type: ignore[arg-type]
    hi = float(snap["max"])  # type: ignore[arg-type]
    target = q * (count - 1)
    cumulative = 0
    for index, bucket_count in enumerate(buckets):
        if bucket_count == 0:
            continue
        # Ranks [cumulative, cumulative + bucket_count - 1] live here.
        if target <= cumulative + bucket_count - 1:
            lower_edge = bounds[index - 1] if index > 0 else lo
            upper_edge = bounds[index] if index < len(bounds) else hi
            if bucket_count == 1:
                interpolated = (lower_edge + upper_edge) / 2.0
            else:
                fraction = (target - cumulative) / (bucket_count - 1)
                interpolated = lower_edge + fraction * (upper_edge - lower_edge)
            return float(min(max(interpolated, lo), hi))
        cumulative += bucket_count
    return hi


class _NoopCounter:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def inc(self, amount: int = 1) -> None:
        pass

    @property
    def value(self) -> int:
        return 0


class _NoopGauge:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class _NoopHistogram:
    __slots__ = ("name", "bounds")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in (bounds or DEFAULT_LATENCY_BOUNDS))

    def observe(self, value: float) -> None:
        pass

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": 0,
            "sum": 0.0,
            "min": None,
            "max": None,
            "bounds": list(self.bounds),
            "buckets": [0] * (len(self.bounds) + 1),
        }

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> Dict[str, float]:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}


class MetricsRegistry:
    """Named metrics with get-or-create semantics.

    A disabled registry (``enabled=False``) hands out no-op metric
    objects so instrumented code pays only an attribute call; the flag
    is fixed at construction so the hot path never branches on it.
    Component constructors accept a ``metrics=`` registry so tests and
    the overhead bench can isolate or disable them; the process-wide
    :func:`default_registry` is reserved for module-level metrics
    (e.g. mmap-pool opens) that have no owning instance.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NoopCounter(name)  # type: ignore[return-value]
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_unused(name, self._counters)
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NoopGauge(name)  # type: ignore[return-value]
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_unused(name, self._gauges)
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        if not self.enabled:
            return _NoopHistogram(name, bounds)  # type: ignore[return-value]
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_unused(name, self._histograms)
                metric = self._histograms[name] = Histogram(name, bounds)
            elif bounds is not None and tuple(float(b) for b in bounds) != metric.bounds:
                raise ValueError(f"histogram {name!r} already registered with different bounds")
            return metric

    def _check_unused(self, name: str, own_kind: Mapping[str, object]) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own_kind and name in kind:
                raise ValueError(f"metric {name!r} already registered as a different type")

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict snapshot: mergeable, JSON-serialisable."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "histograms": {h.name: h.snapshot() for h in histograms},
        }

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return self.snapshot()


_EMPTY_SNAPSHOT: Dict[str, Dict[str, object]] = {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(*snapshots: Optional[Mapping[str, object]]) -> Dict[str, Dict[str, object]]:
    """Combine registry snapshots: associative, commutative, None-safe.

    Counters and gauges sum; histograms with identical bounds sum
    bucket-wise and combine min/max, so the merge order never matters.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():  # type: ignore[union-attr]
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snap.get("gauges", {}).items():  # type: ignore[union-attr]
            gauges[name] = gauges.get(name, 0.0) + float(value)
        for name, hist in snap.get("histograms", {}).items():  # type: ignore[union-attr]
            existing = histograms.get(name)
            if existing is None:
                histograms[name] = {
                    "count": int(hist["count"]),
                    "sum": float(hist["sum"]),
                    "min": hist["min"],
                    "max": hist["max"],
                    "bounds": list(hist["bounds"]),
                    "buckets": list(hist["buckets"]),
                }
                continue
            if list(hist["bounds"]) != existing["bounds"]:
                raise ValueError(f"cannot merge histogram {name!r}: bucket bounds differ")
            existing["count"] = int(existing["count"]) + int(hist["count"])
            existing["sum"] = float(existing["sum"]) + float(hist["sum"])
            mins = [m for m in (existing["min"], hist["min"]) if m is not None]
            maxes = [m for m in (existing["max"], hist["max"]) if m is not None]
            existing["min"] = min(mins) if mins else None
            existing["max"] = max(maxes) if maxes else None
            existing["buckets"] = [
                a + b for a, b in zip(existing["buckets"], hist["buckets"])  # type: ignore[arg-type]
            ]
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _series_name(name: str) -> str:
    """Dotted metric name -> Prometheus-safe series name."""
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name.replace(".", "_"))
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(snapshot: Mapping[str, object]) -> str:
    """Render a registry snapshot as Prometheus text exposition v0.0.4."""
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):  # type: ignore[union-attr]
        series = _series_name(name)
        lines.append(f"# TYPE {series} counter")
        lines.append(f"{series} {_format_value(snapshot['counters'][name])}")  # type: ignore[index]
    for name in sorted(snapshot.get("gauges", {})):  # type: ignore[union-attr]
        series = _series_name(name)
        lines.append(f"# TYPE {series} gauge")
        lines.append(f"{series} {_format_value(snapshot['gauges'][name])}")  # type: ignore[index]
    for name in sorted(snapshot.get("histograms", {})):  # type: ignore[union-attr]
        hist = snapshot["histograms"][name]  # type: ignore[index]
        series = _series_name(name)
        lines.append(f"# TYPE {series} histogram")
        cumulative = 0
        for bound, bucket_count in zip(hist["bounds"], hist["buckets"]):
            cumulative += bucket_count
            lines.append(f'{series}_bucket{{le="{repr(float(bound))}"}} {cumulative}')
        cumulative += hist["buckets"][-1]
        lines.append(f'{series}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{series}_sum {_format_value(hist['sum'])}")
        lines.append(f"{series}_count {_format_value(hist['count'])}")
    return "\n".join(lines) + "\n"


_default_lock = threading.Lock()
_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """Process-wide registry for module-level metrics."""
    with _default_lock:
        return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Used by the instrumentation-overhead bench to silence module-level
    metrics for its disabled leg.  Instrumented call sites resolve
    metrics through :func:`default_registry` at event time (the events
    are rare), so a swap takes effect immediately.
    """
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous
