"""Unified telemetry for the serving stack: metrics, tracing, exposition.

Three pieces:

- :mod:`repro.obs.registry` -- thread-safe counters/gauges/histograms
  with mergeable snapshots and Prometheus text exposition.  Each
  serving layer's ``stats()`` dict reads these same counters.
- :mod:`repro.obs.trace` -- sampled request tracing with spans that
  propagate client -> net server -> serving.
- :mod:`repro.obs.httpd` -- a stdlib HTTP endpoint for scrapers.

See the README "Observability" section for the metric catalog and the
span diagram.
"""

from .registry import (
    DEFAULT_LATENCY_BOUNDS,
    DEFAULT_SIZE_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    exact_quantile,
    merge_snapshots,
    render_prometheus,
    set_default_registry,
)
from .trace import (
    DEFAULT_TRACE_CAPACITY,
    DEFAULT_TRACE_SAMPLE_RATE,
    Span,
    Tracer,
    activate,
    current_span,
    format_trace_tree,
    merge_trace_spans,
    span,
    stage_breakdown,
)
from .httpd import MetricsHTTPServer, start_metrics_server

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
    "MetricsHTTPServer",
    "start_metrics_server",
]
