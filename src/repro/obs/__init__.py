"""Observability layer: tracing, metrics, and profiling substrate.

A dependency-free package the rest of the system instruments itself
with.  Three pillars:

* **tracing** (:mod:`repro.obs.trace`) — :class:`Tracer` produces
  nested :class:`Span` records (wall-clock, counters, attributes),
  exportable as nested JSON or the Chrome ``chrome://tracing``
  trace-event format;
* **metrics** (:mod:`repro.obs.metrics`) — :class:`MetricsRegistry`
  holds counters, gauges, and fixed-bucket histograms (p50/p90/p99
  summaries) with Prometheus-text and JSON exporters;
* **kernel accounting** (:mod:`repro.obs.kernels`) — per-kernel
  calls / rows / buckets / seconds, kept process-wide and per request,
  so traces and metrics can split kernel time from the rest of a phase;
* **decision events** (:mod:`repro.obs.events`) — :class:`EventLog`
  appends schema-versioned JSONL records of *what the pipeline decided*
  (requests, phases, per-rule pruning, per-chart scores, final ranks,
  cache activity), with sampling, rotation, and a reader/aggregator
  behind ``repro obs report``;
* **provenance** (:mod:`repro.obs.provenance`) —
  :class:`ChartProvenance` records explaining why each emitted chart
  landed at its rank (factors, S(v), LTR score, hybrid blend,
  recognizer verdict, dominance edges, sibling pruning);
* **drift** (:mod:`repro.obs.drift`) — golden top-k snapshots plus a
  diff classifier (identical / score_shifted / reordered / churned)
  behind ``repro obs snapshot`` / ``repro obs diff``;
* **request context** (:mod:`repro.obs.context`) — contextvars-based
  request scopes minting the ``request_id`` stamped into every span,
  event, provenance record, and metric exemplar; the per-request
  :class:`~repro.obs.context.Observer` every instrumented layer writes
  through; and the timeline joiner behind ``repro obs timeline``;
* **profiling** (:mod:`repro.obs.profiler`) —
  :class:`SamplingProfiler`, a low-overhead wall-clock sampler
  (``setitimer`` + ``sys._current_frames``) exporting
  flamegraph-collapsed text and speedscope JSON, span-attributed via
  the tracer's open-span stacks;
* **health** (:mod:`repro.obs.health`) — :class:`SLOMonitor` rolling
  multi-window burn-rate objectives over selection latency / errors /
  cache hits, plus :class:`RuntimeSampler` feeding process gauges
  (RSS, GC, threads, queue depths) into a registry;
* **instrumentation** — the public entry points (``select_top_k``,
  ``DeepEye``, ``IncrementalSession``, ``from_source``,
  ``batch_select``, ``progressive_top_k``) accept an optional
  tracer/registry/event log and build one observer per request from
  them; with none given, only the phase clocks run (overhead proven
  < 5% by ``benchmarks/bench_overhead.py``).

This package imports nothing from the rest of :mod:`repro`, so it can
be loaded from any layer without cycles.
"""

from .context import (
    RequestContext,
    build_timeline,
    current_context,
    current_request_id,
    format_timeline,
    new_request_id,
    request_scope,
    timeline_request_ids,
)
from .drift import (
    DRIFT_KINDS,
    SNAPSHOT_SCHEMA_VERSION,
    build_snapshot,
    classify_drift,
    diff_snapshots,
    entry_from_result,
    format_drift_report,
    kendall_tau,
    load_snapshot,
    node_id,
    save_snapshot,
    top_k_overlap,
)
from .events import (
    EVENT_KINDS,
    EVENT_LOG_SCHEMA_VERSION,
    EventLog,
    aggregate_events,
    format_event_report,
    read_event_log,
)
from .health import (
    SLO,
    RuntimeSampler,
    SLOMonitor,
    SLOStatus,
    read_rss_bytes,
)
from .kernels import KERNEL_SECONDS_BUCKETS, KERNEL_STATS, KernelStats
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    parse_exemplars,
    parse_prometheus_text,
)
from .profiler import SamplingProfiler, active_profiler
from .provenance import ChartProvenance, render_provenance
from .trace import Span, Tracer

__all__ = [
    "ChartProvenance",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DRIFT_KINDS",
    "EVENT_KINDS",
    "EVENT_LOG_SCHEMA_VERSION",
    "EventLog",
    "Gauge",
    "Histogram",
    "KERNEL_SECONDS_BUCKETS",
    "KERNEL_STATS",
    "KernelStats",
    "MetricsRegistry",
    "RequestContext",
    "RuntimeSampler",
    "SLO",
    "SLOMonitor",
    "SLOStatus",
    "SNAPSHOT_SCHEMA_VERSION",
    "SamplingProfiler",
    "Span",
    "Tracer",
    "active_profiler",
    "aggregate_events",
    "build_snapshot",
    "build_timeline",
    "classify_drift",
    "current_context",
    "current_request_id",
    "diff_snapshots",
    "entry_from_result",
    "format_drift_report",
    "format_event_report",
    "format_timeline",
    "global_registry",
    "kendall_tau",
    "load_snapshot",
    "new_request_id",
    "node_id",
    "parse_exemplars",
    "parse_prometheus_text",
    "read_event_log",
    "read_rss_bytes",
    "render_provenance",
    "request_scope",
    "save_snapshot",
    "timeline_request_ids",
    "top_k_overlap",
]
