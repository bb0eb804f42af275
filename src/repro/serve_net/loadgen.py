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
  queueing under overdrive shows up in the percentiles, as it should.

Both return a :class:`LoadReport`; the network benchmark
(``repro bench --network``) and the ``repro loadgen`` CLI are thin
wrappers over these.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError, ServerOverloadedError, StoreError
from repro.obs import Tracer, exact_quantile
from repro.serve_net.client import AsyncPulseClient, PulseClient, parse_address
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


# ---------------------------------------------------------------------------
# Closed loop: threads + blocking clients.
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
    including a dropped connection -- is counted and the worker moves
    on to its next batch.
    """
    if connections < 1:
        raise StoreError(f"connections must be >= 1, got {connections}")
    host_port = parse_address(address)
    fetch_mode = _resolve_mode(mode)
    batches = _batches(trace, batch_size)
    lanes: List[List[List]] = [batches[i::connections] for i in range(connections)]
    lock = threading.Lock()
    latencies: List[float] = []
    counters = {"ok": 0, "overload": 0, "error": 0, "pulses": 0, "retries": 0}

    def _worker(index: int, lane: List[List]) -> None:
        with PulseClient(
            host_port,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            seed=seed + index,
            tracer=tracer,
        ) as client:
            for batch in lane:
                start = time.perf_counter()
                try:
                    if fetch_mode == MODE_RECORD:
                        client.fetch_records(batch)
                    else:
                        client.fetch_batch(batch)
                except ServerOverloadedError:
                    with lock:
                        counters["overload"] += 1
                    continue
                except ReproError:
                    with lock:
                        counters["error"] += 1
                    continue
                elapsed = time.perf_counter() - start
                with lock:
                    counters["ok"] += 1
                    counters["pulses"] += len(batch)
                    latencies.append(elapsed)
            with lock:
                counters["retries"] += client.retries_performed

    threads = [
        threading.Thread(target=_worker, args=(index, lane), daemon=True)
        for index, lane in enumerate(lanes)
        if lane
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_elapsed = time.perf_counter() - wall_start

    return LoadReport(
        mode="closed",
        connections=connections,
        batch_size=batch_size,
        requests_sent=len(batches),
        requests_ok=counters["ok"],
        overloads=counters["overload"],
        errors=counters["error"],
        skipped=0,
        pulses_ok=counters["pulses"],
        elapsed_s=wall_elapsed,
        latencies_s=tuple(latencies),
        retries=counters["retries"],
    )


# ---------------------------------------------------------------------------
# Open loop: asyncio + a fixed arrival schedule.
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
    per second.  Arrivals finding ``max_outstanding`` requests already
    in flight are shed client-side (``skipped``) -- the generator's own
    no-unbounded-queue rule.  Arrivals are dealt round-robin over
    ``connections`` :class:`~repro.serve_net.client.AsyncPulseClient`
    instances on one event loop.  By default overload replies from the
    server are counted, not retried, and any other typed failure
    (including a dropped connection) counts in ``errors``;
    ``retries > 0`` turns on the clients' seeded backoff-and-retry and
    the report's ``retries`` totals what that cost (a retrying request
    still counts against ``max_outstanding`` the whole time, so the
    bound holds).
    """
    if connections < 1:
        raise StoreError(f"connections must be >= 1, got {connections}")
    if max_outstanding < 1:
        raise StoreError(f"max_outstanding must be >= 1, got {max_outstanding}")
    host_port = parse_address(address)
    fetch_mode = _resolve_mode(mode)
    batches = _batches(trace, batch_size)
    schedule = arrival_times(len(batches), rate, seed=seed)

    counters = {
        "ok": 0,
        "overload": 0,
        "error": 0,
        "skipped": 0,
        "pulses": 0,
        "outstanding": 0,
        "peak": 0,
        "retries": 0,
    }
    latencies: List[float] = []

    async def _fire(
        client: AsyncPulseClient, batch: List, scheduled_at: float, start: float
    ) -> None:
        try:
            if fetch_mode == MODE_RECORD:
                await client.fetch_records(batch)
            else:
                await client.fetch_batch(batch)
        except ServerOverloadedError:
            counters["overload"] += 1
        except ReproError:
            counters["error"] += 1
        else:
            counters["ok"] += 1
            counters["pulses"] += len(batch)
            # Open-loop latency runs from the scheduled arrival, so
            # queueing delay under overdrive is part of the number.
            latencies.append(time.perf_counter() - (start + scheduled_at))
        finally:
            counters["outstanding"] -= 1

    async def _main() -> float:
        clients = [
            AsyncPulseClient(
                host_port,
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                seed=seed + index,
            )
            for index in range(connections)
        ]
        tasks: List[asyncio.Task] = []
        start = time.perf_counter()
        try:
            for index, (batch, scheduled_at) in enumerate(zip(batches, schedule)):
                delay = scheduled_at - (time.perf_counter() - start)
                if delay > 0:
                    await asyncio.sleep(delay)
                if counters["outstanding"] >= max_outstanding:
                    counters["skipped"] += 1
                    continue
                counters["outstanding"] += 1
                counters["peak"] = max(counters["peak"], counters["outstanding"])
                tasks.append(
                    asyncio.ensure_future(
                        _fire(
                            clients[index % connections],
                            batch,
                            scheduled_at,
                            start,
                        )
                    )
                )
            if tasks:
                await asyncio.gather(*tasks)
            return time.perf_counter() - start
        finally:
            counters["retries"] = sum(
                client.retries_performed for client in clients
            )
            for client in clients:
                await client.aclose()

    elapsed = asyncio.run(_main())
    return LoadReport(
        mode="open",
        connections=connections,
        batch_size=batch_size,
        requests_sent=len(batches) - counters["skipped"],
        requests_ok=counters["ok"],
        overloads=counters["overload"],
        errors=counters["error"],
        skipped=counters["skipped"],
        pulses_ok=counters["pulses"],
        elapsed_s=elapsed,
        latencies_s=tuple(latencies),
        target_rate=rate,
        max_outstanding=max_outstanding,
        peak_outstanding=counters["peak"],
        retries=counters["retries"],
    )
