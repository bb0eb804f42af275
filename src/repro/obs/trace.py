"""Request tracing: spans, samplers, and a bounded ring of traces.

A trace is a tree of :class:`Span` records covering one request as it
moves client -> ``NetPulseServer`` -> ``PulseServer`` -> cache/store.
The active span travels through the stack in a
:mod:`contextvars` context variable; thread hops (executor submits)
must copy the context explicitly because ``run_in_executor`` does not
propagate it -- the instrumented call sites in ``repro.store.server``
and ``repro.serve_net.server`` do this.

Timestamps are ``time.perf_counter()``.  Across a real network hop
the client and server clocks are unrelated; only durations are
meaningful there.

Tracing is sampled (``sample_rate``) and bounded (``capacity`` recent
traces in a ring), so it is safe to leave on in production at the
default rate.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "DEFAULT_TRACE_SAMPLE_RATE",
    "DEFAULT_TRACE_CAPACITY",
    "current_span",
    "activate",
    "span",
    "format_trace_tree",
    "stage_breakdown",
    "merge_trace_spans",
]

DEFAULT_TRACE_SAMPLE_RATE = 0.01
DEFAULT_TRACE_CAPACITY = 256

_CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)


def _new_id() -> int:
    """Random non-zero 63-bit id; os.urandom is fork- and thread-safe."""
    while True:
        value = int.from_bytes(os.urandom(8), "little") & ((1 << 63) - 1)
        if value:
            return value


class Span:
    """One timed stage of a trace.

    Spans are created through a :class:`Tracer` (roots) or from a
    parent span (children); ``duration_s`` is ``None`` until finished.
    Finishing the root span publishes the whole trace into the
    tracer's ring buffer.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "stage",
        "start_s",
        "duration_s",
        "tags",
        "_trace",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        stage: str,
        start_s: float,
        trace: "_TraceBuffer",
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.stage = stage
        self.start_s = start_s
        self.duration_s: Optional[float] = None
        self.tags: Dict[str, Any] = dict(tags or {})
        self._trace = trace

    def child(self, stage: str, **tags: Any) -> "Span":
        """Start a child span (caller must ``finish`` it)."""
        child = Span(self.trace_id, _new_id(), self.span_id, stage, time.perf_counter(), self._trace, tags)
        self._trace.add(child)
        return child

    def finish(self) -> None:
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self.start_s
        self._trace.finished(self)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": f"{self.trace_id:016x}",
            "span_id": f"{self.span_id:016x}",
            "parent_id": f"{self.parent_id:016x}" if self.parent_id else None,
            "stage": self.stage,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "tags": dict(self.tags),
        }


class _TraceBuffer:
    """Accumulates the spans of one trace until its root finishes."""

    __slots__ = ("tracer", "root_span_id", "started_unix", "_lock", "_spans", "_published")

    def __init__(self, tracer: "Tracer", root_span_id: int) -> None:
        self.tracer = tracer
        self.root_span_id = root_span_id
        self.started_unix = time.time()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._published = False

    def add(self, span_obj: Span) -> None:
        with self._lock:
            # Bound runaway traces (a storm of children on one request).
            if len(self._spans) < 512:
                self._spans.append(span_obj)

    def finished(self, span_obj: Span) -> None:
        if span_obj.span_id != self.root_span_id:
            return
        with self._lock:
            if self._published:
                return
            self._published = True
            spans = list(self._spans)
        self.tracer._publish(
            {
                "trace_id": f"{span_obj.trace_id:016x}",
                "started_unix": self.started_unix,
                "duration_s": span_obj.duration_s,
                "spans": [s.as_dict() for s in spans],
            }
        )


class Tracer:
    """Sampling trace collector with a bounded ring of recent traces."""

    def __init__(
        self,
        sample_rate: float = DEFAULT_TRACE_SAMPLE_RATE,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sample_rate = float(sample_rate)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._ring: deque = deque(maxlen=self.capacity)
        self._started = 0
        self._dropped = 0

    def sampled(self) -> bool:
        """One sampling decision (thread-safe)."""
        if self.sample_rate <= 0.0:
            return False
        if self.sample_rate >= 1.0:
            return True
        with self._lock:
            return self._rng.random() < self.sample_rate

    def start_trace(
        self,
        stage: str,
        *,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        force: bool = False,
        **tags: Any,
    ) -> Optional[Span]:
        """Start a root span, or ``None`` if this request is not sampled.

        A caller-supplied ``trace_id`` (i.e. the client already sampled
        this request and propagated its ids over the wire) always
        starts a trace, as does ``force=True``; otherwise the tracer's
        own sampling decision applies.
        """
        if trace_id is None and not force and not self.sampled():
            return None
        with self._lock:
            self._started += 1
        root_id = _new_id()
        buffer = _TraceBuffer(self, root_id)
        root = Span(
            trace_id if trace_id is not None else _new_id(),
            root_id,
            parent_id or None,
            stage,
            time.perf_counter(),
            buffer,
            tags,
        )
        buffer.add(root)
        return root

    def _publish(self, trace_dict: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self._dropped += 1
            self._ring.append(trace_dict)

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Most recent completed traces, newest last."""
        with self._lock:
            traces = list(self._ring)
        if limit is not None and limit >= 0:
            traces = traces[-limit:]
        return traces

    def find(self, trace_id: int) -> Optional[Dict[str, Any]]:
        wanted = f"{trace_id:016x}"
        for trace_dict in reversed(self.recent()):
            if trace_dict["trace_id"] == wanted:
                return trace_dict
        return None

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "started": self._started,
                "buffered": len(self._ring),
                "dropped": self._dropped,
                "capacity": self.capacity,
            }


def current_span() -> Optional[Span]:
    """The span active in this context, if any."""
    return _CURRENT_SPAN.get()


@contextlib.contextmanager
def activate(span_obj: Optional[Span]) -> Iterator[Optional[Span]]:
    """Make ``span_obj`` the current span for the enclosed block.

    ``None`` is accepted and simply clears the context, so call sites
    do not need to branch on whether the request is sampled.
    """
    token = _CURRENT_SPAN.set(span_obj)
    try:
        yield span_obj
    finally:
        _CURRENT_SPAN.reset(token)


@contextlib.contextmanager
def span(stage: str, **tags: Any) -> Iterator[Optional[Span]]:
    """Open a child of the current span; no-op when nothing is active.

    The child becomes the current span inside the block and is
    finished on exit, so nested ``with span(...)`` blocks build the
    stage tree with no explicit plumbing.
    """
    parent = _CURRENT_SPAN.get()
    if parent is None:
        yield None
        return
    child = parent.child(stage, **tags)
    token = _CURRENT_SPAN.set(child)
    try:
        yield child
    finally:
        _CURRENT_SPAN.reset(token)
        child.finish()


def _children_of(spans: Sequence[Mapping[str, Any]]) -> Dict[Optional[str], List[Mapping[str, Any]]]:
    children: Dict[Optional[str], List[Mapping[str, Any]]] = {}
    ids = {s["span_id"] for s in spans}
    for s in spans:
        parent = s["parent_id"] if s["parent_id"] in ids else None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: s["start_s"])
    return children


def format_trace_tree(trace_dict: Mapping[str, Any]) -> str:
    """Human-readable indented tree of one trace's spans."""
    spans = list(trace_dict.get("spans", []))
    lines = [f"trace {trace_dict.get('trace_id')}  ({len(spans)} spans)"]
    children = _children_of(spans)

    def walk(node: Mapping[str, Any], depth: int) -> None:
        duration = node.get("duration_s")
        duration_ms = f"{duration * 1e3:8.3f} ms" if duration is not None else "   (open)  "
        tags = node.get("tags") or {}
        tag_text = "  " + " ".join(f"{k}={v}" for k, v in sorted(tags.items())) if tags else ""
        lines.append(f"  {'  ' * depth}{duration_ms}  {node['stage']}{tag_text}")
        for child in children.get(node["span_id"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


def stage_breakdown(
    spans: Sequence[Mapping[str, Any]], *, epsilon_s: float = 2e-3
) -> Dict[str, Any]:
    """Validate span nesting and compute per-stage self times.

    Self time of a span is its duration minus the summed durations of
    its direct children.  For a well-formed trace measured on one
    machine (one ``perf_counter`` domain): every child lies inside its
    parent (within ``epsilon_s``), all self times are >= -epsilon, and
    the self times sum to the root's end-to-end duration.  The bench's
    trace-coverage gate runs on exactly this check.
    """
    problems: List[str] = []
    children = _children_of(spans)
    roots = children.get(None, [])
    if len(roots) != 1:
        problems.append(f"expected exactly one root span, found {len(roots)}")
    self_times: Dict[str, float] = {}
    total_self = 0.0
    for node in spans:
        duration = node.get("duration_s")
        if duration is None:
            problems.append(f"span {node['stage']} never finished")
            continue
        kids = children.get(node["span_id"], [])
        child_total = 0.0
        for kid in kids:
            kid_duration = kid.get("duration_s") or 0.0
            child_total += kid_duration
            if kid["start_s"] < node["start_s"] - epsilon_s:
                problems.append(f"{kid['stage']} starts before parent {node['stage']}")
            if kid["start_s"] + kid_duration > node["start_s"] + duration + epsilon_s:
                problems.append(f"{kid['stage']} ends after parent {node['stage']}")
        for first, second in zip(kids, kids[1:]):
            first_end = first["start_s"] + (first.get("duration_s") or 0.0)
            if first_end > second["start_s"] + epsilon_s:
                problems.append(
                    f"siblings {first['stage']} and {second['stage']} overlap under {node['stage']}"
                )
        self_time = duration - child_total
        if self_time < -epsilon_s:
            problems.append(f"{node['stage']} children outlast it by {-self_time:.6f}s")
        self_times[node["stage"]] = self_times.get(node["stage"], 0.0) + self_time
        total_self += self_time
    root_duration = (roots[0].get("duration_s") or 0.0) if roots else 0.0
    if total_self > root_duration + epsilon_s:
        problems.append(
            f"stage self-times sum to {total_self:.6f}s, more than the "
            f"end-to-end {root_duration:.6f}s"
        )
    return {
        "ok": not problems,
        "problems": problems,
        "stages": sorted({s["stage"] for s in spans}),
        "self_s": self_times,
        "total_self_s": total_self,
        "end_to_end_s": root_duration,
    }


def merge_trace_spans(*trace_dicts: Optional[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Union of span lists from partial views of one trace (deduped).

    The client and the server each buffer their own half of a trace;
    this stitches them for :func:`stage_breakdown`.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for trace_dict in trace_dicts:
        if not trace_dict:
            continue
        for span_dict in trace_dict.get("spans", []):
            merged.setdefault(span_dict["span_id"], dict(span_dict))
    return sorted(merged.values(), key=lambda s: s["start_s"])
