"""Closed- and open-loop load generators for the ``CQN1`` serving tier.

Throughput alone hides the number that matters at scale -- what the
slowest percentile of requests experienced -- so both generators here
record per-request latency and report p50/p95/p99:

* **Closed loop** (:func:`run_closed_loop`): N connections, each
  sending its next batch the moment the previous response lands.
  Measures sustainable throughput and in-service latency; by
  construction it can never overrun the server, so it never observes
  overload.

* **Open loop** (:func:`run_open_loop`): requests fire on a fixed
  arrival schedule (:func:`repro.store.trace.arrival_times`),
  regardless of completions.  Driving the schedule past capacity is
  the overload probe: the server sheds with explicit
  ``STATUS_OVERLOAD`` replies (counted, not retried), and the
  generator itself keeps a hard bound on outstanding requests
  (``max_outstanding``) so neither side grows an unbounded queue --
  arrivals past the bound are counted as ``skipped``.  Open-loop
  latency is measured from the *scheduled* arrival, so client-side
  queueing under overdrive shows up in the percentiles, as it should;
  ``late_s`` records how late the generator itself took each arrival.

Both loops run on threads that each own one blocking
:class:`~repro.serve_net.client.PulseClient` and settle every request
as exactly one of ok, overload or error.  Both return a
:class:`LoadReport`; the network benchmark (``repro bench --network``)
and the ``repro loadgen`` CLI are thin wrappers over these.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError, ServerOverloadedError, StoreError
from repro.obs import Tracer, exact_quantile
from repro.serve_net.client import PulseClient, parse_address
from repro.serve_net.protocol import MODE_RECORD, MODE_SAMPLES
from repro.store.trace import arrival_times

__all__ = ["LoadReport", "latency_summary", "run_closed_loop", "run_open_loop"]

_Key = Tuple[str, Tuple[int, ...]]


def latency_summary(samples_s: Sequence[float]) -> Dict[str, Optional[float]]:
    """p50/p95/p99/mean/max of a latency sample set, in milliseconds.

    Quantiles go through :func:`repro.obs.exact_quantile` -- the same
    closest-ranks interpolation the metrics histograms use -- so a
    load report and a registry histogram over the same samples agree.
    """
    if not len(samples_s):
        return {"p50": None, "p95": None, "p99": None, "mean": None, "max": None}
    ms = sorted(float(sample) * 1e3 for sample in samples_s)
    return {
        "p50": exact_quantile(ms, 0.50, presorted=True),
        "p95": exact_quantile(ms, 0.95, presorted=True),
        "p99": exact_quantile(ms, 0.99, presorted=True),
        "mean": sum(ms) / len(ms),
        "max": ms[-1],
    }


@dataclass(frozen=True, slots=True)
class LoadReport:
    """What one load-generation run measured at the socket."""

    mode: str
    connections: int
    batch_size: int
    requests_sent: int
    requests_ok: int
    overloads: int
    errors: int
    skipped: int
    pulses_ok: int
    elapsed_s: float
    latencies_s: Tuple[float, ...] = field(repr=False)
    #: Open loop only: per arrival (skipped ones too), how long after
    #: its scheduled time the generator took it.
    late_s: Tuple[float, ...] = field(default=(), repr=False)
    target_rate: float = 0.0
    max_outstanding: int = 0
    peak_outstanding: int = 0
    retries: int = 0

    @property
    def requests_per_s(self) -> float:
        return self.requests_ok / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def pulses_per_s(self) -> float:
        return self.pulses_ok / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def latency_ms(self) -> Dict[str, Optional[float]]:
        return latency_summary(self.latencies_s)

    @property
    def late_ms(self) -> Dict[str, Optional[float]]:
        return latency_summary(self.late_s)

    def as_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "connections": self.connections,
            "batch_size": self.batch_size,
            "requests_sent": self.requests_sent,
            "requests_ok": self.requests_ok,
            "overloads": self.overloads,
            "errors": self.errors,
            "skipped": self.skipped,
            "pulses_ok": self.pulses_ok,
            "elapsed_s": self.elapsed_s,
            "requests_per_s": self.requests_per_s,
            "pulses_per_s": self.pulses_per_s,
            "latency_ms": self.latency_ms,
            "late_ms": self.late_ms,
            "target_rate": self.target_rate,
            "max_outstanding": self.max_outstanding,
            "peak_outstanding": self.peak_outstanding,
            "retries": self.retries,
        }


def _batches(
    trace: Sequence[Tuple[str, Sequence[int]]], batch_size: int
) -> List[List[Tuple[str, Sequence[int]]]]:
    if batch_size < 1:
        raise StoreError(f"batch_size must be >= 1, got {batch_size}")
    if not trace:
        raise StoreError("cannot generate load from an empty trace")
    return [
        list(trace[start : start + batch_size])
        for start in range(0, len(trace), batch_size)
    ]


def _resolve_mode(mode: Union[int, str]) -> int:
    if mode in (MODE_RECORD, MODE_SAMPLES):
        return int(mode)
    if mode == "records":
        return MODE_RECORD
    if mode == "samples":
        return MODE_SAMPLES
    raise StoreError(f"unknown fetch mode {mode!r}")


class _Books:
    """One run's accounting, shared by its connection threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ok = self.overloads = self.errors = self.pulses = self.retries = 0
        self.latencies: List[float] = []


def _connection(
    client: PulseClient,
    mode: int,
    jobs: Iterable[Tuple[List, Optional[float]]],
    books: _Books,
) -> None:
    """One connection's thread, in both loops: settle every ``(batch,
    t0)`` in ``jobs`` as exactly one of ok, overload or error.  Latency
    runs from ``t0``, or from the send when it is ``None``.  The client
    dials on its first request, so a refused dial counts as an error."""
    fetch = client.fetch_records if mode == MODE_RECORD else client.fetch_batch
    try:
        for batch, t0 in jobs:
            if t0 is None:
                t0 = time.perf_counter()
            try:
                fetch(batch)
            except ServerOverloadedError:
                with books.lock:
                    books.overloads += 1
            except ReproError:
                with books.lock:
                    books.errors += 1
            else:
                latency = time.perf_counter() - t0
                with books.lock:
                    books.ok += 1
                    books.pulses += len(batch)
                    books.latencies.append(latency)
    finally:
        client.close()
        with books.lock:
            books.retries += client.retries_performed


def _start(
    jobs: Sequence[Iterable[Tuple[List, Optional[float]]]],
    mode: int,
    books: _Books,
    address: Tuple[str, int],
    seed: int,
    **options,
) -> List[threading.Thread]:
    """Start a connection thread per entry of ``jobs``, each owning a
    :class:`PulseClient` seeded ``seed + index`` (so runs reproduce)."""
    clients = [
        PulseClient(address, seed=seed + index, **options)
        for index in range(len(jobs))
    ]
    threads = [
        threading.Thread(target=_connection, args=(c, mode, lane, books), daemon=True)
        for c, lane in zip(clients, jobs)
    ]
    for thread in threads:
        thread.start()
    return threads


# ---------------------------------------------------------------------------
# Closed loop: each connection sends its next batch when the last lands.
# ---------------------------------------------------------------------------


def run_closed_loop(
    address: Union[str, Tuple[str, int]],
    trace: Sequence[Tuple[str, Sequence[int]]],
    batch_size: int = 64,
    connections: int = 4,
    mode: Union[int, str] = MODE_SAMPLES,
    timeout: float = 30.0,
    retries: int = 0,
    backoff: float = 0.05,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> LoadReport:
    """Drive the server as hard as N serial connections can.

    The trace is chopped into ``batch_size`` fetches and dealt
    round-robin across ``connections`` worker threads, each running a
    blocking :class:`~repro.serve_net.client.PulseClient` in a strict
    request/response loop.  ``retries``/``backoff`` are handed to each
    client (seeded per connection, so runs reproduce); the report's
    ``retries`` totals what the clients spent.  A ``tracer`` is shared
    by every client (sampled fetches propagate trace context to the
    server).  A failed fetch -- overload or any other typed error,
    including a dropped or refused connection -- is counted and the
    worker moves on to its next batch.
    """
    if connections < 1:
        raise StoreError(f"connections must be >= 1, got {connections}")
    host_port = parse_address(address)
    fetch_mode = _resolve_mode(mode)
    batches = _batches(trace, batch_size)
    books = _Books()
    lanes = [
        [(batch, None) for batch in batches[index::connections]]
        for index in range(min(connections, len(batches)))
    ]
    wall_start = time.perf_counter()
    threads = _start(
        lanes, fetch_mode, books, host_port, seed,
        timeout=timeout, retries=retries, backoff=backoff, tracer=tracer,
    )
    for thread in threads:
        thread.join()
    wall_elapsed = time.perf_counter() - wall_start

    return LoadReport(
        mode="closed",
        connections=connections,
        batch_size=batch_size,
        requests_sent=len(batches),
        requests_ok=books.ok,
        overloads=books.overloads,
        errors=books.errors,
        skipped=0,
        pulses_ok=books.pulses,
        elapsed_s=wall_elapsed,
        latencies_s=tuple(books.latencies),
        retries=books.retries,
    )


# ---------------------------------------------------------------------------
# Open loop: a fixed arrival schedule, one shared queue of batches.
# ---------------------------------------------------------------------------


def run_open_loop(
    address: Union[str, Tuple[str, int]],
    trace: Sequence[Tuple[str, Sequence[int]]],
    rate: float,
    batch_size: int = 16,
    connections: int = 8,
    max_outstanding: int = 64,
    seed: int = 0,
    mode: Union[int, str] = MODE_SAMPLES,
    timeout: float = 30.0,
    retries: int = 0,
    backoff: float = 0.05,
) -> LoadReport:
    """Fire batches on an arrival schedule, regardless of completions.

    ``rate`` is the target arrival rate in *requests* (batch frames)
    per second.  The calling thread sleeps until each arrival, records
    how late it woke (``late_s``), and puts the batch on one queue that
    ``connections`` threads drain, each owning a blocking
    :class:`~repro.serve_net.client.PulseClient`: any free connection
    takes the next batch, so no arrival waits behind a busy connection
    while another sits idle.  Arrivals finding ``max_outstanding``
    requests already queued or in flight are shed client-side
    (``skipped``) -- the generator's own no-unbounded-queue rule.  By
    default overload replies from the server are counted, not retried,
    and any other typed failure (including a dropped or refused
    connection) counts in ``errors``; ``retries > 0`` turns on the
    clients' seeded backoff-and-retry and the report's ``retries``
    totals what that cost (a retrying request still counts against
    ``max_outstanding`` the whole time, so the bound holds).
    """
    if connections < 1:
        raise StoreError(f"connections must be >= 1, got {connections}")
    if max_outstanding < 1:
        raise StoreError(f"max_outstanding must be >= 1, got {max_outstanding}")
    host_port = parse_address(address)
    fetch_mode = _resolve_mode(mode)
    batches = _batches(trace, batch_size)
    schedule = arrival_times(len(batches), rate, seed=seed)
    books = _Books()
    jobs: queue.SimpleQueue = queue.SimpleQueue()
    threads = _start(
        [iter(jobs.get, None) for _ in range(connections)], fetch_mode, books,
        host_port, seed, timeout=timeout, retries=retries, backoff=backoff,
    )
    late: List[float] = []
    admitted = skipped = peak = 0
    start = time.perf_counter()
    try:
        for batch, scheduled_at in zip(batches, schedule):
            due = start + scheduled_at
            while (delay := due - time.perf_counter()) > 0:
                time.sleep(delay)
            late.append(-delay)
            with books.lock:  # queued plus in flight
                outstanding = admitted - books.ok - books.overloads - books.errors
            if outstanding >= max_outstanding:
                skipped += 1
                continue
            admitted += 1
            peak = max(peak, outstanding + 1)
            # Open-loop latency runs from the scheduled arrival, so
            # queueing delay under overdrive is part of the number.
            jobs.put((batch, due))
    finally:
        for _ in threads:
            jobs.put(None)
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - start

    return LoadReport(
        mode="open",
        connections=connections,
        batch_size=batch_size,
        requests_sent=admitted,
        requests_ok=books.ok,
        overloads=books.overloads,
        errors=books.errors,
        skipped=skipped,
        pulses_ok=books.pulses,
        elapsed_s=elapsed,
        latencies_s=tuple(books.latencies),
        late_s=tuple(late),
        target_rate=rate,
        max_outstanding=max_outstanding,
        peak_outstanding=peak,
        retries=books.retries,
    )
