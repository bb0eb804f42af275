"""The benchmark's own load generator, over the public client API only.

Closed loop: each connection sends its next ``fetch_batch`` as soon as
the previous one returns.  Open loop: one connection sends on a
Poisson schedule and each request is timed from when it was *due*, so a
stall also charges the requests queued behind it; how late the
generator itself ran is kept alongside.

Every fetch is an operation in the :class:`Ledger`: attempted, and
failed when it raises a typed error (overload, timeout, other
``ReproError``) or loses its connection.  A payload that later fails
the oracle is charged there too (see :mod:`cqbench.oracle`).
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.errors import ProtocolError, ReproError, ServerOverloadedError

from cqbench.inputs import Key

__all__ = ["Ledger", "failure_reason", "LoopResult", "fetch_once", "closed_loop", "open_loop"]

Fetch = Callable[[Sequence[Key]], list]


def failure_reason(exc: BaseException) -> str:
    """Classify a failed operation: overload, timeout, error or connection."""
    if isinstance(exc, ServerOverloadedError):
        return "overload"
    if isinstance(exc, TimeoutError) or (
        isinstance(exc, ProtocolError) and "timed out" in str(exc)
    ):
        return "timeout"
    if isinstance(exc, ReproError):
        return "error"
    if isinstance(exc, OSError):
        return "connection"
    raise TypeError(f"not an operation failure: {exc!r}") from exc


class Ledger:
    """Operations attempted and failed, per kind; failures per reason."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted: "collections.Counter[str]" = collections.Counter()
        self.failed: "collections.Counter[Tuple[str, str]]" = collections.Counter()

    def attempt(self, kind: str, n: int = 1) -> None:
        with self._lock:
            self.attempted[kind] += n

    def fail(self, kind: str, reason: str, n: int = 1) -> None:
        with self._lock:
            self.failed[(kind, reason)] += n

    def merge(self, attempted: Mapping[str, int], failed: Mapping[Tuple[str, str], int]) -> None:
        """Add another process's counts (see :mod:`cqbench.writerhost`)."""
        with self._lock:
            self.attempted.update(attempted)
            self.failed.update(failed)

    @property
    def total_attempted(self) -> int:
        with self._lock:
            return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        with self._lock:
            return sum(self.failed.values())

    def failures(self, reason: str) -> int:
        with self._lock:
            return sum(n for (_kind, why), n in self.failed.items() if why == reason)

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        with self._lock:
            return {
                "attempted": dict(self.attempted),
                "failed": {f"{kind}/{why}": n for (kind, why), n in self.failed.items()},
            }


@dataclass
class LoopResult:
    """What one load phase delivered."""

    latencies: List[float] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    #: (seconds since the phase began, pulses) per completed request.
    completions: List[Tuple[float, int]] = field(default_factory=list)
    pulses: int = 0
    elapsed: float = 0.0

    @property
    def pulses_per_s(self) -> float:
        return self.pulses / self.elapsed if self.elapsed > 0 else 0.0

    def extend(self, other: "LoopResult") -> None:
        """Append a later phase; its completion times continue this one's."""
        offset = self.elapsed
        self.latencies.extend(other.latencies)
        self.late.extend(other.late)
        self.completions.extend((offset + t, n) for t, n in other.completions)
        self.pulses += other.pulses
        self.elapsed += other.elapsed


def fetch_once(
    fetch: Fetch, batch: Sequence[Key], kind: str, ledger: Ledger, seen: Dict
) -> int:
    """One fetch; returns pulses received (0 on a counted failure)."""
    ledger.attempt(kind)
    try:
        got = fetch(batch)
    except (ReproError, OSError) as exc:
        ledger.fail(kind, failure_reason(exc))
        return 0
    seen.update(zip(batch, got))
    return len(got)


def closed_loop(
    fetches: Sequence[Fetch],
    traces: Sequence[Sequence[Sequence[Key]]],
    seconds: float,
    ledger: Ledger,
    seen: Dict,
) -> LoopResult:
    """One thread per connection, back to back, for ``seconds``.

    ``seen`` collects the last payload served per key for the oracle.
    Each trace is replayed from the start and wraps if it runs out.
    """
    parts: List[LoopResult] = [LoopResult() for _ in fetches]
    errors: List[BaseException] = []
    go = threading.Event()
    window: List[float] = []

    def worker(index: int) -> None:
        try:
            go.wait()
            start, stop_at = window
            part, fetch, batches = parts[index], fetches[index], traces[index]
            sent = 0
            while True:
                t0 = time.perf_counter()
                if t0 >= stop_at:
                    break
                got = fetch_once(fetch, batches[sent % len(batches)], "fetch", ledger, seen)
                sent += 1
                if got:
                    t1 = time.perf_counter()
                    part.latencies.append(t1 - t0)
                    part.completions.append((t1 - start, got))
                    part.pulses += got
                    part.elapsed = t1 - start
        except BaseException as exc:  # surfaced to the caller after join
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"perfbench-load-{i}")
        for i in range(len(fetches))
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    window.extend((start, start + seconds))
    go.set()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    out = LoopResult()
    for part in parts:
        out.latencies.extend(part.latencies)
        out.completions.extend(part.completions)
        out.pulses += part.pulses
        out.elapsed = max(out.elapsed, part.elapsed)
    return out


def open_loop(
    fetch: Fetch,
    batches: Sequence[Sequence[Key]],
    offsets: Sequence[float],
    ledger: Ledger,
    seen: Dict,
) -> LoopResult:
    """Send batch ``i`` at ``offsets[i]`` seconds from now, on one connection.

    Latency runs from the scheduled send; ``late`` is how far behind
    schedule each send actually left.  ``elapsed`` runs to the last
    reply, so a server that fell behind stretches it.
    """
    out = LoopResult()
    start = time.perf_counter()
    for index, offset in enumerate(offsets):
        due = start + offset
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            now = time.perf_counter()
        out.late.append(now - due)
        got = fetch_once(fetch, batches[index % len(batches)], "fetch", ledger, seen)
        if got:
            done = time.perf_counter()
            out.latencies.append(done - due)
            out.completions.append((done - start, got))
            out.pulses += got
            out.elapsed = done - start
    return out
