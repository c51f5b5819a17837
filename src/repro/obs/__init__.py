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
  JSONL log back into a tracer's span forest (or read a live one) and,
  in one walk, compute critical paths, self-time aggregates and the
  Fig-4-style hotspot table per implementation;
* :mod:`repro.obs.diff` — run-to-run regression attribution: align
  two traces by span path and rank "what got slower and why";
* :mod:`repro.obs.slo` — declarative SLOs (p99 latency, shed rate,
  error-budget burn) evaluated in simulated time, live via
  :class:`~repro.obs.slo.SLOMonitor` or offline as a CI gate.

Everything is deterministic: same seed, same trace, byte-identical
exports.  See ``docs/OBSERVABILITY.md``.

The package root imports none of these modules; import the one you
need.  The model layers use only ``context``, ``hist``, ``metrics``
and ``tracer``, so importing them does not load the rest.
"""
