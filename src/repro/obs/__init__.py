"""repro.obs — the unified observability plane.

The source paper is itself an observability exercise: its figures come
from nvprof kernel timelines and per-kernel counters.  This package
gives the grown-up stack the same power over *simulated* runs, across
every layer at once:

* :mod:`repro.obs.tracer` — simulated-time span tracing with nested
  spans, span events and a zero-cost :data:`NULL_TRACER`; one served
  request becomes one span tree from admission to its gpusim kernel
  leaves, with fault injections annotated on the affected spans;
* :mod:`repro.obs.metrics` — a labeled metrics registry (counters,
  gauges, histograms) that serve, evalcache, faults and gpusim publish
  into; :class:`repro.serve.stats.ServingStats` is a view over it;
* :mod:`repro.obs.context` — run-scoped propagation so the advisor,
  the evaluation cache and the fault plane find the active tracer
  without signature plumbing;
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON (serving rows
  and GPU rows in one timeline, or one bare profiler session), a JSONL
  structured event log, and deterministic metrics snapshots;
* :mod:`repro.obs.hist` — the one shared implementation of the
  percentile / summary math;
* :mod:`repro.obs.analyze` — offline trace analytics: load a saved
  JSONL log (or a live tracer), compute critical paths, self-time
  aggregates and the Fig-4-style hotspot table per implementation;
* :mod:`repro.obs.diff` — run-to-run regression attribution: align
  two traces by span path and rank "what got slower and why";
* :mod:`repro.obs.slo` — declarative SLOs (p99 latency, shed rate,
  error-budget burn) evaluated in simulated time, live via
  :class:`~repro.obs.slo.SLOMonitor` or offline as a CI gate.

Everything is deterministic: same seed, same trace, byte-identical
exports.  See ``docs/OBSERVABILITY.md``.
"""

from .alerts import (ALERT_LOG_FORMAT, AlertManager, AlertRule,
                     DEFAULT_ALERT_RULES, alert_log_lines, write_alert_log)
from .analyze import (TraceAnalysis, TraceRun, analyze_run, critical_path,
                      from_tracer, hotspot_table, load_jsonl, parse_jsonl)
from .context import NULL_OBS, Observability, get_obs, obs_session, set_obs
from .dashboard import (render_dashboard, render_dashboard_from_log,
                        render_dashboard_live)
from .diff import TraceDiff, diff_runs, diff_traces, profile_run
from .export import (SCHEMA_VERSION, chrome_trace, jsonl_lines,
                     load_metrics_snapshot, profiler_trace, render_metrics,
                     span_events, write_chrome_trace, write_jsonl,
                     write_metrics)
from .hist import percentile, summarize
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NULL_REGISTRY, NullRegistry)
from .recorder import (FlightRecorder, sampler_stats, span_records,
                       write_incident_bundle)
from .slo import (DEFAULT_RULES, SLOMonitor, SLOPolicy, SLOReport, SLORule,
                  evaluate_slo, load_rules, parse_rules)
from .timeseries import (Rollups, TELEMETRY_SCHEMA_VERSION, TelemetryConfig,
                         load_window_log, render_openmetrics, shape_label,
                         window_log_lines, write_openmetrics,
                         write_window_log)
from .tracer import NULL_TRACER, NullTracer, SimTracer, Span, SpanEvent

__all__ = [
    "ALERT_LOG_FORMAT",
    "AlertManager",
    "AlertRule",
    "Counter",
    "DEFAULT_ALERT_RULES",
    "DEFAULT_RULES",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "Rollups",
    "SCHEMA_VERSION",
    "SLOMonitor",
    "SLOPolicy",
    "SLOReport",
    "SLORule",
    "SimTracer",
    "Span",
    "SpanEvent",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryConfig",
    "TraceAnalysis",
    "TraceDiff",
    "TraceRun",
    "alert_log_lines",
    "analyze_run",
    "chrome_trace",
    "critical_path",
    "diff_runs",
    "diff_traces",
    "evaluate_slo",
    "from_tracer",
    "get_obs",
    "hotspot_table",
    "jsonl_lines",
    "load_jsonl",
    "load_metrics_snapshot",
    "load_rules",
    "load_window_log",
    "obs_session",
    "parse_jsonl",
    "parse_rules",
    "percentile",
    "profile_run",
    "profiler_trace",
    "render_dashboard",
    "render_dashboard_from_log",
    "render_dashboard_live",
    "render_metrics",
    "render_openmetrics",
    "sampler_stats",
    "set_obs",
    "shape_label",
    "span_events",
    "span_records",
    "summarize",
    "window_log_lines",
    "write_alert_log",
    "write_chrome_trace",
    "write_incident_bundle",
    "write_jsonl",
    "write_metrics",
    "write_openmetrics",
    "write_window_log",
]
