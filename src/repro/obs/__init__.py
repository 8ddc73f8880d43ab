"""repro.obs — structured tracing, unified metrics, and query EXPLAIN.

The observability layer for the kSPR stack:

- :mod:`repro.obs.trace` — span-based tracer (context-manager + decorator
  API, contextvar distribution, no-op :class:`NullTracer` default).
- :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` registry with one canonical name per number and
  fixed histogram buckets so shard merges are exact.
- :mod:`repro.obs.export` — JSON-lines traces, Prometheus v0 text,
  ``chrome://tracing`` event files.
- :mod:`repro.obs.profile` — :func:`explain` / :class:`QueryProfile`
  per-query reports (text and dict).

Import-light by design: this package depends on the standard library only,
so every subsystem (geometry, core, engine, parallel, stream, approx) can
instrument itself without import cycles.
"""

from .export import (
    parse_prometheus,
    parse_trace_jsonl,
    registry_to_prometheus,
    trace_to_chrome,
    trace_to_jsonl,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_LP_BUCKETS,
    LP_CONSTRAINTS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    stats_to_registry,
    use_registry,
)
from .profile import QueryProfile, explain
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    current_tracer,
    traced,
    use_tracer,
)

__all__ = [
    # trace
    "Span",
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "traced",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LP_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "LP_CONSTRAINTS",
    "active_registry",
    "use_registry",
    "stats_to_registry",
    # export
    "trace_to_jsonl",
    "parse_trace_jsonl",
    "registry_to_prometheus",
    "parse_prometheus",
    "trace_to_chrome",
    # profile
    "QueryProfile",
    "explain",
]
