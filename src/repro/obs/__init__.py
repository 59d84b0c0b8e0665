"""Observability: metrics registry, chase observers, trace spans.

Stdlib-only. Everything is opt-in; the disabled configurations
(:data:`NULL_REGISTRY`, chase runs with no observer attached,
``tracer=None``) are designed to keep hot paths byte-identical and
within noise of un-instrumented builds — see ``docs/ARCHITECTURE.md``
for the reasoning.  The chase probe and rule profiler are
:class:`ChaseObserver` implementations, attached by ``probe=`` and
``profile=``; the runtime's checkpointer and ``worker.round`` fault
point attach through the same protocol via ``observers=``.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_REGISTRY,
    histogram_consistency_errors,
    parse_prometheus_text,
)
from .benchhist import (
    append_history,
    compare_entries,
    format_comparison,
    format_history,
    load_history,
)
from .conformance import conformance_report, record_conformance
from .observer import ChaseObserver
from .probe import ChaseProbe
from .profile import RuleProfiler, format_profile_table, top_rules
from .trace import TraceRecorder, load_trace, summarize_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "parse_prometheus_text",
    "histogram_consistency_errors",
    "ChaseObserver",
    "ChaseProbe",
    "TraceRecorder",
    "load_trace",
    "summarize_trace",
    "RuleProfiler",
    "top_rules",
    "format_profile_table",
    "conformance_report",
    "record_conformance",
    "append_history",
    "load_history",
    "compare_entries",
    "format_history",
    "format_comparison",
]
