"""Spans recorded from outside the program, and the arithmetic over them.

The traced run wraps calls into each layer's public functions (client
encode/decode, ``PulseServer.fetch_batch``, cache lookups, the store's
fused decode, ...) with :meth:`SpanRecorder.wrapper`.  Nothing in
``src/`` changes: :class:`Patches` swaps a wrapper in for an attribute
of a module, class or instance and puts the original back afterwards.

A finished span is one tuple, :data:`FIELDS`::

    (span_id, parent_id, trace_id, name, start, end, items)

``parent_id`` is 0 for a root.  Children find their parent through a
context variable, so spans follow executor hops that copy the context
(the serving stack copies it on every hop).  ``trace_id`` is the id
CQN1 already carries in a traced fetch, which links the client's spans
to the server's.  ``start``/``end`` are ``time.perf_counter()``, which
on Linux is the system-wide monotonic clock, so spans from the client
and server processes share one time axis.  ``items`` is the work unit
count the span covered (keys, pulses, bytes), 1 when not counted.

Spans stay in memory and are written out by :func:`dump` when the run
ends.
"""

from __future__ import annotations

import contextvars
import gzip
import itertools
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FIELDS",
    "SpanRecorder",
    "Patches",
    "count_arg",
    "covered",
    "self_time",
    "children_by_parent",
    "dump",
    "load",
]

FIELDS = ("span_id", "parent_id", "trace_id", "name", "start", "end", "items")

Span = Tuple[int, int, int, str, float, float, int]
_Counter = Callable[[tuple, dict], int]


def count_arg(index: int) -> _Counter:
    """Items counter: ``len()`` of positional argument ``index``."""

    def counter(args: tuple, kwargs: dict) -> int:
        return len(args[index])

    return counter


class SpanRecorder:
    """Collects finished spans in memory (thread-safe appends)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        # The open span of the current context: [span_id, trace_id].
        self._open: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
            "perfbench_open_span", default=None
        )

    def wrapper(
        self,
        name: str,
        items: Optional[_Counter] = None,
        trace_id: Optional[_Counter] = None,
    ) -> Callable[[Callable], Callable]:
        """A decorator recording one span per call of the wrapped function.

        ``trace_id(args, kwargs)`` may name the call's trace; a child
        that learns the trace id while its parent has none hands it up,
        which is how a client root span gets the id ``encode_fetch``
        puts on the wire.
        """
        spans = self.spans
        ids = self._ids
        current = self._open
        clock = time.perf_counter

        def decorate(fn: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                parent = current.get()
                tid = trace_id(args, kwargs) if trace_id is not None else 0
                if parent is not None:
                    if tid and not parent[1]:
                        parent[1] = tid
                    tid = tid or parent[1]
                me = [next(ids), tid]
                token = current.set(me)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append(
                        (
                            me[0],
                            parent[0] if parent is not None else 0,
                            me[1],
                            name,
                            start,
                            end,
                            items(args, kwargs) if items is not None else 1,
                        )
                    )

            return traced

        return decorate


class Patches:
    """Attribute swaps that :meth:`restore` undoes exactly.

    Works on modules, classes (the original descriptor -- e.g. a
    ``classmethod`` -- is put back as it was) and instances (the
    instance attribute is deleted again so the class method shows
    through).
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def wrap(self, owner: Any, attr: str, decorate: Callable[[Callable], Callable]) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, decorate(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, saved = self._undo.pop()
            if had:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    @property
    def active(self) -> bool:
        return bool(self._undo)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping children (parallel shard fills on two threads) count
    once; parts of a child outside its parent are clipped off.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """A span's duration minus the part of it its children cover."""
    start, end = span[4], span[5]
    return (end - start) - covered(((c[4], c[5]) for c in children), start, end)


def children_by_parent(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    out: Dict[int, List[Span]] = {}
    for span in spans:
        out.setdefault(span[1], []).append(span)
    return out


def dump(path: str, **processes: Sequence[Span]) -> int:
    """Write each process's spans to ``path`` (gzip when it ends in ``.gz``).

    Layout: ``{"fields": FIELDS, "processes": {name: [[...], ...]}}``.
    Returns the number of spans written.
    """
    blob = {"fields": list(FIELDS), "processes": {k: list(v) for k, v in processes.items()}}
    if path.endswith(".gz"):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(blob, handle)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(blob, handle)
    return sum(len(v) for v in processes.values())


def load(path: str) -> Dict[str, List[Span]]:
    """Read back what :func:`dump` wrote (uncompressed files only)."""
    with open(path, encoding="utf-8") as handle:
        blob = json.load(handle)
    return {
        name: [tuple(row) for row in rows]  # type: ignore[misc]
        for name, rows in blob["processes"].items()
    }
