"""Serving metrics.

Collected live by the scheduler, frozen into a :class:`StatsReport` at
the end of a run.  Latencies are arrival-to-finish (queueing wait plus
service); throughput is completed requests over the simulated
makespan; everything is derived from virtual time, so reports are
deterministic for a fixed trace.

Since the observability plane landed, :class:`ServingStats` is a
*view* over a :class:`repro.obs.metrics.MetricsRegistry` rather than a
bag of private fields: every scalar it exposes is a registry counter
(``serve_*_total``), the per-cause / per-implementation / per-size
dicts are labeled counter series, and latencies feed
``serve_latency_seconds`` histograms — so a ``--metrics`` snapshot and
a :class:`StatsReport` are two renderings of the same store.  The
attribute API (``stats.retries += 1`` and friends) is unchanged.

:func:`percentile` lives in :mod:`repro.obs.hist` now (one shared
implementation for serve, obs and the benchmarks) and is re-exported
here for backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..obs.hist import percentile  # noqa: F401  (re-export, see docstring)
from ..obs.metrics import MetricsRegistry
from .loadgen import Arrival

#: Scalar attribute -> the registry counter backing it.
_COUNTERS = {
    "offered": "serve_requests_offered_total",
    "rejected": "serve_requests_rejected_total",
    "shed": "serve_requests_timeout_shed_total",
    "oom_splits": "serve_oom_splits_total",
    "oom_shed": "serve_oom_shed_total",
    "retries": "serve_retries_total",
    "fallback_batches": "serve_fallback_batches_total",
    "fallback_completions": "serve_fallback_completions_total",
    "breaker_trips": "serve_breaker_trips_total",
    "breaker_skips": "serve_breaker_skips_total",
    "faults_injected": "serve_faults_injected_total",
    "pressure_events": "serve_pressure_events_total",
    "degraded_batches": "serve_degraded_batches_total",
    "cache_corruptions": "serve_cache_corruptions_total",
    "unhandled_errors": "serve_unhandled_errors_total",
    "closed_shed": "serve_closed_shed_total",
}

#: The known ``shed_by_cause`` taxonomy.  Terminal causes drop the
#: request; routing causes (``requeued``, ``hedge_cancelled``) mean it
#: completes — or is accounted — elsewhere in the fleet, so they are
#: excluded from :attr:`StatsReport.shed_rate`.  Consumers must treat
#: this as *open*: reports written by newer code may carry causes not
#: listed here, and loaders/merging must pass them through rather than
#: KeyError (see :meth:`StatsReport.from_dict`).
SHED_CAUSES = (
    "timeout",                  # deadline passed while queued
    "queue_full",               # refused at admission
    "memory",                   # a lone sample's allocation failed
    "infeasible",               # no implementation feasible
    "closed",                   # server shut down with it queued
    "error",                    # unhandled fault
    "fault",                    # injected fault no recovery absorbed
    "requeued",                 # evacuated to the router, completes elsewhere
    "hedge_cancelled",          # losing copy of a hedged request
    "retry_budget_exhausted",   # retry/requeue denied by the tenant budget
)


@dataclass(frozen=True)
class StatsReport:
    """Frozen end-of-run metrics."""

    duration_s: float          # simulated makespan
    offered: int
    completed: int
    rejected: int              # refused at admission (queue full)
    shed: int                  # dropped after admission (timeout)
    oom_splits: int            # batches split because memory didn't fit
    oom_shed: int              # single requests shed for not fitting
    throughput_rps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    mean_batch_fill: float     # real requests per released batch
    mean_batch_size: float     # padded (executed) batch size
    batch_histogram: Dict[int, int]  # padded size -> batches released
    plan_cache: Dict[str, float]
    peak_memory_mb: float
    implementations: Dict[str, int]  # paper name -> requests served
    #: Failure taxonomy — every drop attributed to its cause:
    #: ``timeout`` (deadline passed in queue), ``queue_full`` (refused
    #: at admission), ``memory`` (a lone sample's allocation failed),
    #: ``infeasible`` (no implementation feasible for the shape),
    #: ``closed`` (server shut down with the request queued),
    #: ``error`` (unhandled fault), plus the fleet-routing causes
    #: ``requeued`` (evacuated to the router, completes elsewhere),
    #: ``hedge_cancelled`` (the losing copy of a hedged request) and
    #: ``retry_budget_exhausted`` (a requeue the tenant's retry budget
    #: refused).  Causes with zero count are omitted; the set is open
    #: (see :data:`SHED_CAUSES`) and consumers must tolerate unknown
    #: causes.
    shed_by_cause: Dict[str, int] = field(default_factory=dict)
    # -- resilience counters (all zero on a fault-free run) ---------------
    retries: int = 0               # backoff retries after transient faults
    fallback_batches: int = 0      # batches completed on a lower-ranked impl
    fallback_completions: int = 0  # requests riding those batches
    breaker_trips: int = 0         # breaker CLOSED/HALF_OPEN -> OPEN
    breaker_skips: int = 0         # dispatches skipped on an open breaker
    faults_injected: int = 0       # transient faults the plan injected
    pressure_events: int = 0       # allocations refused by memory pressure
    degraded_batches: int = 0      # batches run under a degraded batch cap
    cache_corruptions: int = 0     # plan-cache entries invalidated
    unhandled_errors: int = 0      # faults no recovery layer absorbed
    closed_shed: int = 0           # requests completed with ServerClosed

    @property
    def shed_rate(self) -> float:
        dropped = (self.rejected + self.shed + self.oom_shed
                   + self.closed_shed + self.shed_by_cause.get("error", 0)
                   + self.shed_by_cause.get("fault", 0))
        return dropped / self.offered if self.offered else 0.0

    @property
    def completion_rate(self) -> float:
        """Completed over offered (the chaos harness's headline)."""
        return self.completed / self.offered if self.offered else 0.0

    def render(self) -> str:
        lines = [
            f"simulated duration    {self.duration_s:10.3f} s",
            f"offered / completed   {self.offered} / {self.completed}",
            f"rejected / shed / oom {self.rejected} / {self.shed} / {self.oom_shed}"
            f"  (shed rate {self.shed_rate * 100:.1f} %)",
            f"throughput            {self.throughput_rps:10.1f} req/s",
            f"latency p50/p95/p99   {self.latency_p50_ms:.2f} / "
            f"{self.latency_p95_ms:.2f} / {self.latency_p99_ms:.2f} ms",
            f"batch fill / size     {self.mean_batch_fill:.2f} / "
            f"{self.mean_batch_size:.2f}",
            "batch histogram       " + " ".join(
                f"{size}:{count}" for size, count in
                sorted(self.batch_histogram.items())),
            f"plan cache            {int(self.plan_cache['hits'])} hits / "
            f"{int(self.plan_cache['misses'])} misses "
            f"(hit rate {self.plan_cache['hit_rate'] * 100:.1f} %, "
            f"{int(self.plan_cache['entries'])} entries, "
            f"{int(self.plan_cache['evictions'])} evictions)",
            f"peak device memory    {self.peak_memory_mb:10.0f} MB",
            "dispatch mix          " + " ".join(
                f"{name}:{count}" for name, count in
                sorted(self.implementations.items())),
        ]
        if self.oom_splits:
            lines.append(f"oom batch splits      {self.oom_splits}")
        if self.shed_by_cause:
            lines.append("shed by cause         " + " ".join(
                f"{cause}:{count}" for cause, count in
                sorted(self.shed_by_cause.items())))
        if self._resilience_active():
            lines.extend([
                f"faults / retries      {self.faults_injected} / {self.retries}",
                f"fallback batches/reqs {self.fallback_batches} / "
                f"{self.fallback_completions}",
                f"breaker trips / skips {self.breaker_trips} / "
                f"{self.breaker_skips}",
                f"pressure / degraded   {self.pressure_events} / "
                f"{self.degraded_batches}",
                f"cache corruptions     {self.cache_corruptions}",
                f"unhandled errors      {self.unhandled_errors}",
            ])
        return "\n".join(lines)

    def _resilience_active(self) -> bool:
        return any((self.retries, self.fallback_batches, self.breaker_trips,
                    self.breaker_skips, self.faults_injected,
                    self.pressure_events, self.degraded_batches,
                    self.cache_corruptions, self.unhandled_errors))

    def to_dict(self) -> dict:
        """JSON-ready form (``--json`` output)."""
        return {
            "duration_s": self.duration_s,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "oom_splits": self.oom_splits,
            "oom_shed": self.oom_shed,
            "shed_rate": self.shed_rate,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "p50": self.latency_p50_ms,
                "p95": self.latency_p95_ms,
                "p99": self.latency_p99_ms,
            },
            "mean_batch_fill": self.mean_batch_fill,
            "mean_batch_size": self.mean_batch_size,
            "batch_histogram": {str(k): v for k, v in
                                sorted(self.batch_histogram.items())},
            "plan_cache": self.plan_cache,
            "peak_memory_mb": self.peak_memory_mb,
            "implementations": dict(sorted(self.implementations.items())),
            "shed_by_cause": dict(sorted(self.shed_by_cause.items())),
            "resilience": {
                "retries": self.retries,
                "fallback_batches": self.fallback_batches,
                "fallback_completions": self.fallback_completions,
                "breaker_trips": self.breaker_trips,
                "breaker_skips": self.breaker_skips,
                "faults_injected": self.faults_injected,
                "pressure_events": self.pressure_events,
                "degraded_batches": self.degraded_batches,
                "cache_corruptions": self.cache_corruptions,
                "unhandled_errors": self.unhandled_errors,
                "closed_shed": self.closed_shed,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StatsReport":
        """Rebuild a report from its :meth:`to_dict` form.

        Deliberately tolerant: reports archived by older code may lack
        whole sections (``resilience`` predates PR 3) and reports from
        newer code may carry shed causes or resilience counters this
        version has never heard of — missing fields default, unknown
        shed causes are kept verbatim, and unknown keys are ignored
        instead of KeyError-ing, so old JSON artifacts keep loading.
        """
        latency = doc.get("latency_ms", {})
        resilience = doc.get("resilience", {})
        return cls(
            duration_s=doc.get("duration_s", 0.0),
            offered=doc.get("offered", 0),
            completed=doc.get("completed", 0),
            rejected=doc.get("rejected", 0),
            shed=doc.get("shed", 0),
            oom_splits=doc.get("oom_splits", 0),
            oom_shed=doc.get("oom_shed", 0),
            throughput_rps=doc.get("throughput_rps", 0.0),
            latency_p50_ms=latency.get("p50", 0.0),
            latency_p95_ms=latency.get("p95", 0.0),
            latency_p99_ms=latency.get("p99", 0.0),
            mean_batch_fill=doc.get("mean_batch_fill", 0.0),
            mean_batch_size=doc.get("mean_batch_size", 0.0),
            batch_histogram={int(k): v for k, v in
                             doc.get("batch_histogram", {}).items()},
            plan_cache=dict(doc.get("plan_cache", {})),
            peak_memory_mb=doc.get("peak_memory_mb", 0.0),
            implementations=dict(doc.get("implementations", {})),
            shed_by_cause={str(cause): int(count) for cause, count in
                           doc.get("shed_by_cause", {}).items()},
            retries=resilience.get("retries", 0),
            fallback_batches=resilience.get("fallback_batches", 0),
            fallback_completions=resilience.get("fallback_completions", 0),
            breaker_trips=resilience.get("breaker_trips", 0),
            breaker_skips=resilience.get("breaker_skips", 0),
            faults_injected=resilience.get("faults_injected", 0),
            pressure_events=resilience.get("pressure_events", 0),
            degraded_batches=resilience.get("degraded_batches", 0),
            cache_corruptions=resilience.get("cache_corruptions", 0),
            unhandled_errors=resilience.get("unhandled_errors", 0),
            closed_shed=resilience.get("closed_shed", 0),
        )


class _Dispatch(NamedTuple):
    """One executed dispatch, as :class:`ServingStats` keeps it."""

    requests: Tuple[Arrival, ...]
    start_s: float
    finish_s: float
    batch: int            # padded batch the requests rode in
    implementation: str   # paper name of the dispatched implementation


def merge_shed_causes(*cause_maps: Dict[str, int]) -> Dict[str, int]:
    """Sum any number of ``shed_by_cause`` dicts.

    Iterates whatever causes are present instead of indexing a fixed
    taxonomy, so maps carrying causes newer (or older) than this code
    merge cleanly — the tolerance :data:`SHED_CAUSES` promises.
    """
    merged: Dict[str, int] = {}
    for causes in cause_maps:
        for cause, count in causes.items():
            if count:
                merged[cause] = merged.get(cause, 0) + int(count)
    return merged


class ServingStats:
    """Mutable accumulator the scheduler feeds during a run.

    Scalar counters read and write registry series (see module
    docstring).  Each executed dispatch is kept as one immutable
    record — its requests, start and finish times, padded batch and
    implementation — not as one object per served request; readers
    walk the served requests through :meth:`served` from a cursor
    they keep, and never see the record layout.  Pass the run's
    registry to share the store with the rest of the observability
    plane; the default is a private one.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._dispatches: List[_Dispatch] = []
        self._completed = 0
        # Hot-path metric caches.  Registry lookups normalise labels and
        # hash on every call; the scheduler hits the same handful of
        # series millions of times per run, so resolve each once.
        # Lazily populated so a run that never touches a series leaves
        # the registry (and its snapshot) exactly as before.
        self._hot: Dict[str, object] = {}
        self._batch_counters: Dict[int, object] = {}
        self._impl_counters: Dict[str, object] = {}
        # The three per-batch histograms, bound lazily as attributes —
        # one attribute load per record instead of a name lookup.
        self._fill_hist = None
        self._latency_hist = None
        self._wait_hist = None
        self._completed_counter = None
        self._offered_counter = None

    def _counter(self, name: str):
        metric = self._hot.get(name)
        if metric is None:
            metric = self._hot[name] = self.registry.counter(name)
        return metric

    def _histogram(self, name: str):
        metric = self._hot.get(name)
        if metric is None:
            metric = self._hot[name] = self.registry.histogram(name)
        return metric

    # -- registry-backed views ---------------------------------------------

    def _series_dict(self, name: str, label: str,
                     cast=int) -> Dict[object, int]:
        return {cast(labels[label]): int(metric.value)
                for labels, metric in self.registry.series(name)
                if metric.value}

    @property
    def shed_by_cause(self) -> Dict[str, int]:
        """Cause -> dropped requests (view over ``serve_sheds_total``)."""
        return self._series_dict("serve_sheds_total", "cause", str)

    @property
    def implementations(self) -> Dict[str, int]:
        """Paper name -> requests served (view over
        ``serve_dispatched_requests_total``)."""
        return self._series_dict("serve_dispatched_requests_total",
                                 "implementation", str)

    @property
    def batch_histogram(self) -> Dict[int, int]:
        """Padded size -> batches released (view over
        ``serve_batches_total``)."""
        return self._series_dict("serve_batches_total", "size", int)

    # -- recording ---------------------------------------------------------

    def record_dispatch(self, requests, start_s: float, finish_s: float,
                        padded: int, fill: int,
                        implementation: str) -> None:
        """Record one executed dispatch of ``fill`` requests: its size
        and implementation counters, its fill, each request's latency
        and queue wait, and one immutable record of the dispatch."""
        by_size = self._batch_counters.get(padded)
        if by_size is None:
            by_size = self._batch_counters[padded] = self.registry.counter(
                "serve_batches_total", size=padded)
        by_size.inc()
        by_impl = self._impl_counters.get(implementation)
        if by_impl is None:
            by_impl = self._impl_counters[implementation] = \
                self.registry.counter("serve_dispatched_requests_total",
                                      implementation=implementation)
        by_impl.inc(fill)
        fill_hist = self._fill_hist
        if fill_hist is None:
            fill_hist = self._fill_hist = self._histogram("serve_batch_fill")
        fill_hist.observe(fill)
        latency_hist = self._latency_hist
        if latency_hist is None:
            latency_hist = self._latency_hist = \
                self._histogram("serve_latency_seconds")
            self._wait_hist = self._histogram("serve_queue_wait_seconds")
        requests = tuple(requests)
        self._dispatches.append(_Dispatch(requests, start_s, finish_s,
                                          padded, implementation))
        if fill == 1:
            arrival = requests[0].t_s
            latency_hist.observe(finish_s - arrival)
            self._wait_hist.observe(start_s - arrival)
        else:
            latency_hist.observe_many([finish_s - r.t_s
                                       for r in requests])
            self._wait_hist.observe_many([start_s - r.t_s
                                          for r in requests])
        self._completed += fill
        completed = self._completed_counter
        if completed is None:
            completed = self._completed_counter = \
                self._counter("serve_requests_completed_total")
        completed.inc(fill)

    @property
    def dispatch_count(self) -> int:
        """Dispatches recorded so far: the cursor :meth:`served`
        resumes from."""
        return len(self._dispatches)

    def served(self, cursor: int = 0
               ) -> Iterator[Tuple[Arrival, float, float]]:
        """``(request, start_s, finish_s)`` for every request served by
        the dispatches recorded from index ``cursor`` on, in dispatch
        order (a reader keeps :attr:`dispatch_count` as its next
        cursor)."""
        for requests, start_s, finish_s, _batch, _impl in \
                self._dispatches[cursor:]:
            for request in requests:
                yield request, start_s, finish_s

    def record_shed(self, cause: str, n: int = 1) -> None:
        """Attribute ``n`` dropped requests to one failure cause."""
        if n:
            self.registry.counter("serve_sheds_total", cause=cause).inc(n)

    def count_offered(self, n: int) -> None:
        """Bulk ``stats.offered += n`` (the run loop's batched admit)."""
        if n:
            offered = self._offered_counter
            if offered is None:
                offered = self._offered_counter = \
                    self._counter("serve_requests_offered_total")
            offered.inc(n)

    def finalize(self, duration_s: float, plan_cache_stats: Dict[str, float],
                 peak_memory_bytes: int) -> StatsReport:
        # record_dispatch() already computed every latency once;
        # sort that stream instead of walking the records again.
        completed = self._completed
        latencies = (sorted(self._histogram("serve_latency_seconds")
                            .observations)
                     if completed else [])
        n_batches = len(self._dispatches)
        total_padded = sum(size * count
                           for size, count in self.batch_histogram.items())
        causes = self.shed_by_cause
        if self.shed:
            causes["timeout"] = causes.get("timeout", 0) + self.shed
        if self.rejected:
            causes["queue_full"] = causes.get("queue_full", 0) + self.rejected
        if self.closed_shed:
            causes["closed"] = causes.get("closed", 0) + self.closed_shed
        # End-of-run state published as gauges so a --metrics snapshot
        # is self-contained.
        self.registry.gauge("serve_duration_seconds").set(duration_s)
        self.registry.gauge("serve_peak_memory_bytes").set(peak_memory_bytes)
        for key, value in sorted(plan_cache_stats.items()):
            self.registry.gauge(f"serve_plan_cache_{key}").set(value)
        return StatsReport(
            duration_s=duration_s,
            offered=self.offered,
            completed=completed,
            rejected=self.rejected,
            shed=self.shed,
            oom_splits=self.oom_splits,
            oom_shed=self.oom_shed,
            throughput_rps=(completed / duration_s
                            if duration_s > 0 else 0.0),
            latency_p50_ms=percentile(latencies, 50) * 1000,
            latency_p95_ms=percentile(latencies, 95) * 1000,
            latency_p99_ms=percentile(latencies, 99) * 1000,
            mean_batch_fill=(completed / n_batches if n_batches else 0.0),
            mean_batch_size=(total_padded / n_batches if n_batches else 0.0),
            batch_histogram=self.batch_histogram,
            plan_cache=dict(plan_cache_stats),
            peak_memory_mb=peak_memory_bytes / 2**20,
            implementations=self.implementations,
            shed_by_cause=causes,
            retries=self.retries,
            fallback_batches=self.fallback_batches,
            fallback_completions=self.fallback_completions,
            breaker_trips=self.breaker_trips,
            breaker_skips=self.breaker_skips,
            faults_injected=self.faults_injected,
            pressure_events=self.pressure_events,
            degraded_batches=self.degraded_batches,
            cache_corruptions=self.cache_corruptions,
            unhandled_errors=self.unhandled_errors,
            closed_shed=self.closed_shed,
        )


def _counter_view(metric: str) -> property:
    def fget(self: ServingStats) -> int:
        return int(self._counter(metric).value)

    def fset(self: ServingStats, value: int) -> None:
        self._counter(metric).set(value)

    return property(fget, fset,
                    doc=f"View over the ``{metric}`` registry counter.")


for _attr, _metric in _COUNTERS.items():
    setattr(ServingStats, _attr, _counter_view(_metric))
del _attr, _metric
