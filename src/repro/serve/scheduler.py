"""The serving worker loop.

A single simulated device drains the admission queue batch by batch:

1. admit every arrival due by now (bounded queue — overflow rejected);
2. shed requests whose queueing deadline passed;
3. ask the dynamic batcher for the next same-shape batch;
4. resolve the batch's *ranked* plan list — plan-cache hit, or advisor
   ranking on a miss — then charge the chosen plan's footprint (its
   Fig. 5 peak above the CUDA context) through
   :meth:`~repro.gpusim.allocator.DeviceAllocator.replay_transient`
   and advance the :class:`~repro.gpusim.timing.SimClock` by the
   simulated service time;
5. if the batch does not fit device memory, split it in half and try
   the halves (a single sample that still does not fit is shed, with
   its own ``memory`` shed cause).

When a fault plan (:mod:`repro.faults`) is installed the loop grows a
recovery ladder, every rung bounded and counted:

* a transient kernel fault is retried after the device's ECC
  scrub-and-replay cost plus exponential backoff — all in *simulated*
  time;
* when the retry budget exhausts, dispatch falls back to the advisor's
  next-ranked implementation (the same cached ordering);
* a streak of faults opens that implementation's circuit breaker, so
  dispatch skips it entirely until a half-open probe succeeds;
* a memory-pressure window degrades gracefully: the batch cap halves
  before anything is shed, and recovers when the window passes.

Time is entirely virtual: service times come from the gpusim roofline
model (via the advisor's ranking), waiting comes from the arrival
trace, and no wall clock is ever consulted — a run is a pure function
of ``(trace, configuration, fault plan, seed)``.  A run without a
fault plan is bit-identical to the pre-fault-plane scheduler.

Every run reports into the observability plane (:mod:`repro.obs`): the
stats accumulator is a view over the run's metrics registry, and when
a :class:`~repro.obs.tracer.SimTracer` is attached (see
:meth:`Server.enable_tracing`) the loop records one span tree per run
— admission events, batch spans, plan lookups (with the advisor
ranking and evalcache accesses nested inside on a miss), dispatch
attempts with their gpusim kernel launches as leaves, and fault
injections as span events on the affected spans.  There is one path
per step, traced or not: the default tracer is the no-op
:data:`~repro.obs.tracer.NULL_TRACER`, on which every span and event
call costs nothing, so tracing only observes the lane and never forks
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.advisor import Advisor, RankedPlan
from ..gpusim.device import spec_digest
from ..errors import (DeviceOOMError, MemoryPressureError, ReproError,
                      TransientKernelError)
from ..faults import FaultInjector, FaultPlan
from ..frameworks.calibration import CONTEXT_BYTES
from ..frameworks.registry import resolve_implementation, shared_implementations
from ..gpusim.allocator import DeviceAllocator
from ..gpusim.device import DeviceSpec, K40C
from ..gpusim.timing import SimClock
from ..obs.context import Observability, obs_session
from ..obs.hist import ordered_sum
from ..obs.slo import SLOMonitor, SLOPolicy, SLOReport
from ..obs.timeseries import Rollups, TelemetryConfig
from ..obs.tracer import SimTracer, TraceSampler
from ..rng import DEFAULT_SEED
from .batcher import BatchPolicy, DynamicBatcher
from .loadgen import Arrival
from .plan_cache import PlanCache
from .queue import AdmissionQueue
from .request import Request, ShapeKey, batched_config, fast_request
from .resilience import CircuitBreaker, ResilienceConfig
from .stats import ServingStats, StatsReport

#: The advisor ranks full training iterations (forward + two backward
#: passes of equal direct-algorithm cost — see
#: :attr:`repro.config.ConvConfig.training_flops`); inference serves
#: the forward pass only.
FORWARD_FRACTION = 1.0 / 3.0


def _buffers(impl_name: str, key: ShapeKey,
             batch: int) -> Iterator[Tuple[str, int]]:
    """The memory plan of one dispatch, built only when walked."""
    yield from resolve_implementation(impl_name).memory_plan(
        batched_config(key, batch))


class _RetriesExhausted(Exception):
    """Internal: one implementation burned its whole retry budget."""


@dataclass(frozen=True)
class ServerConfig:
    """Everything a serving run is parameterised by."""

    policy: BatchPolicy = BatchPolicy()
    queue_depth: int = 512
    timeout_s: float = 0.25
    device: DeviceSpec = K40C
    plan_cache_capacity: int = 128
    resilience: ResilienceConfig = ResilienceConfig()
    #: Attach a simulated-time SLO monitor (:mod:`repro.obs.slo`).
    #: ``None`` (the default) keeps the run byte-identical to an
    #: unmonitored one.
    slo: Optional[SLOPolicy] = None
    #: Attach live windowed rollups (:mod:`repro.obs.timeseries`).
    #: ``None`` (the default) runs without the telemetry plane; the
    #: plane itself is observational only — the report is
    #: byte-identical either way.
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")


class Server:
    """One simulated inference server over one device.

    ``fault_plan`` installs a :class:`~repro.faults.plan.FaultPlan`
    through a :class:`~repro.faults.injector.FaultInjector` seeded with
    ``fault_seed``; ``None`` (or a no-op plan) leaves the scheduler on
    the exact fault-free path.

    :meth:`run` drives one whole arrival trace to completion.  The
    loop underneath it is exposed as a *session* API —
    :meth:`begin` / :meth:`admit` / :meth:`shed_expired` /
    :meth:`pump` / :meth:`finish` — so an external driver (the
    :mod:`repro.cluster` replica loop) can interleave this server's
    work with other servers on a shared fleet timeline while reusing
    the exact same batching, recovery and accounting machinery.
    """

    def __init__(self, config: ServerConfig = ServerConfig(),
                 advisor: Optional[Advisor] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 fault_seed: Optional[int] = None,
                 obs: Optional[Observability] = None):
        self.config = config
        #: The run's observability context: a real metrics registry
        #: (ServingStats is a view over it) and, by default, the no-op
        #: tracer — see :meth:`enable_tracing`.
        self.obs = obs if obs is not None else Observability()
        self.advisor = advisor or Advisor(
            device=config.device, implementations=shared_implementations())
        self.plan_cache = PlanCache(config.plan_cache_capacity)
        self.clock = SimClock()
        self._device_name = config.device.name
        # Cache keys carry the full spec digest, not just the display
        # name, so plans never leak between two devices that happen to
        # share a label (e.g. a tweaked profile under the same name).
        self._device_key = (config.device.name, spec_digest(config.device))
        #: ``name@digest`` — the device *identity* label every
        #: device-split telemetry series carries (same convention as
        #: :func:`repro.core.evalcache.device_key`).
        self._device_label = f"{self._device_key[0]}@{self._device_key[1]}"
        # Pre-bound plan-cache traffic counters (hot path: one method
        # call per lookup, no label-key construction).  Device-labeled
        # so mixed-fleet rollups split cleanly by device class.
        registry = self.obs.registry
        self._pc_hits = registry.counter("serve_plan_cache_requests_total",
                                         device=self._device_label,
                                         result="hit")
        self._pc_misses = registry.counter("serve_plan_cache_requests_total",
                                           device=self._device_label,
                                           result="miss")
        self._fallback_limit = 1 + config.resilience.max_fallbacks
        self._allocator = DeviceAllocator(config.device,
                                          baseline=CONTEXT_BYTES)
        self._injector: Optional[FaultInjector] = None
        if fault_plan is not None and not fault_plan.is_noop:
            seed = DEFAULT_SEED if fault_seed is None else fault_seed
            self._injector = FaultInjector(fault_plan, seed=seed,
                                           device=config.device)
            self._injector.install(self.clock, allocator=self._allocator,
                                   plan_cache=self.plan_cache)
        self._breaker = CircuitBreaker(
            threshold=config.resilience.breaker_threshold,
            cooldown_s=config.resilience.breaker_cooldown_s)
        #: Degraded batch cap while a memory-pressure window is active;
        #: None = full policy cap.
        self._degraded_cap: Optional[int] = None
        #: End-of-run SLO verdict, set by :meth:`run` when the config
        #: carries an :class:`~repro.obs.slo.SLOPolicy`.
        self.slo_report: Optional[SLOReport] = None
        # -- per-session state, created by begin() -------------------------
        self.stats: Optional[ServingStats] = None
        self.queue: Optional[AdmissionQueue] = None
        self.batcher: Optional[DynamicBatcher] = None
        self._monitor: Optional[SLOMonitor] = None
        #: Live windowed rollups, built by :meth:`begin` when the
        #: config carries a :class:`~repro.obs.timeseries.TelemetryConfig`.
        self.telemetry: Optional[Rollups] = None
        self._tel_cursor = 0
        self._breaker_base = (0, 0)
        self._injector_base = (0, 0)

    @property
    def device_label(self) -> str:
        """``name@digest`` — the device identity label telemetry
        rollups split series by."""
        return self._device_label

    def enable_tracing(self, sample: int = 1) -> Union[SimTracer,
                                                       TraceSampler]:
        """Attach a span tracer driven by this server's clock.

        ``sample`` > 1 wraps it in a :class:`~repro.obs.tracer.
        TraceSampler` keeping one in every ``sample`` ``serve.batch``
        span trees (exact metrics, thinned trace).  Returns the tracer
        so the caller can export its span forest after :meth:`run`
        (see :mod:`repro.obs.export`).
        """
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        tracer: Union[SimTracer, TraceSampler] = SimTracer(self.clock)
        if sample > 1:
            tracer = TraceSampler(tracer, sample)
        self.obs.tracer = tracer
        return tracer

    def dispatch_memo_stats(self) -> Dict[str, object]:
        """Always empty: dispatch charges memory from the ranked plan
        and keeps no memo.  The end-to-end benchmark harness still
        reads it, and skips an empty dict."""
        return {}

    # ------------------------------------------------------------------

    def _plan_for(self, key: ShapeKey, batch: int) -> Tuple[RankedPlan, ...]:
        cache_key = (key, batch, self._device_key)
        with self.obs.tracer.span("serve.plan", cat="serve",
                                  batch=batch) as sp:
            hit = cache_key in self.plan_cache
            (self._pc_hits if hit else self._pc_misses).inc()
            plans = self.plan_cache.get_or_compute(
                cache_key,
                lambda: self.advisor.plan_ranked(
                    batched_config(key, batch), device=self.config.device))
            sp.annotate(hit=hit, candidates=len(plans or ()))
        return plans

    def _effective_cap(self) -> Optional[int]:
        """The degraded batch cap, dropped once pressure passes."""
        if self._degraded_cap is None:
            return None
        if self._injector is None or \
                not self._injector.pressure_active(self.clock.now_s):
            self._degraded_cap = None
            return None
        return self._degraded_cap

    # ------------------------------------------------------------------

    def _dispatch(self, plan: RankedPlan, rank: int, key: ShapeKey,
                  padded: int, requests: List[Request],
                  stats: ServingStats) -> None:
        """Run one batch on one implementation, retrying transient
        faults up to the resilience budget.

        The batch is charged the plan's footprint above the CUDA
        context — ``peak_memory_bytes - CONTEXT_BYTES``, which the
        ranking already computed — through
        :meth:`~repro.gpusim.allocator.DeviceAllocator.replay_transient`.
        A ranked plan fits the bare device, so its memory plan is
        built and walked buffer by buffer only when a memory-pressure
        window (or a raised baseline) leaves less room than that.

        Raises :class:`_RetriesExhausted` when the budget burns out
        (the caller falls back to the next-ranked plan) and
        :class:`DeviceOOMError` / :class:`MemoryPressureError` when the
        memory plan does not fit (the caller splits or sheds).
        """
        impl_name = plan.implementation
        allocator = self._allocator
        clock = self.clock
        injector = self._injector
        tracer = self.obs.tracer
        total = plan.peak_memory_bytes - CONTEXT_BYTES
        fill = len(requests)
        with tracer.span("serve.dispatch", cat="serve",
                         implementation=impl_name, rank=rank,
                         batch=padded, fill=fill) as sp:
            attempts = 0
            while True:
                allocator.replay_transient(
                    _buffers(impl_name, key, padded), total)
                if injector is None:
                    break
                try:
                    injector.check_launch(clock.now_s, impl_name, rank)
                except TransientKernelError as fault:
                    sp.event("fault.transient", implementation=impl_name,
                             attempt=attempts + 1,
                             retry_cost_s=fault.retry_cost_s)
                    self._breaker.record_failure(impl_name, clock.now_s)
                    # The fault is detected and replayed at the device's
                    # ECC scrub cost whether or not we retry.
                    clock.advance(fault.retry_cost_s)
                    attempts += 1
                    res = self.config.resilience
                    if attempts >= res.max_attempts:
                        sp.annotate(outcome="retries_exhausted")
                        raise _RetriesExhausted() from fault
                    stats.retries += 1
                    sp.event("retry.backoff", attempt=attempts,
                             backoff_s=res.backoff_s(attempts))
                    clock.advance(res.backoff_s(attempts))
                    continue
                break
            start = clock.now_s
            service = plan.time_s * FORWARD_FRACTION
            if injector is not None:
                slowdown = injector.slowdown(start)
                if slowdown != 1.0:
                    sp.event("fault.straggler", slowdown=slowdown)
                service *= slowdown
            finish = clock.advance(service)
            if injector is not None:
                self._breaker.record_success(impl_name)
            if tracer.recording:
                self._kernel_leaves(tracer, impl_name, key, padded, start,
                                    finish)
        stats.record_dispatch(requests, start, finish, padded, fill,
                              impl_name)
        if rank > 0:
            stats.fallback_batches += 1
            stats.fallback_completions += fill

    def _kernel_leaves(self, tracer, impl_name: str, key: ShapeKey,
                       padded: int, start: float, finish: float) -> None:
        """Lay the batch's simulated kernel launches back-to-back
        inside the dispatch window as leaf spans.

        The per-kernel rows come from the shared evaluation cache (the
        ranking that chose this plan already evaluated the point, so
        this is a cache hit), scaled from the full training iteration
        onto the served service time.  Traced runs only.
        """
        from ..core.evalcache import evaluate
        record = evaluate(resolve_implementation(impl_name),
                          batched_config(key, padded), self.config.device)
        kernels = record.kernels
        total = ordered_sum(k.time_s for k in kernels)
        if not kernels or total <= 0:
            return
        scale = (finish - start) / total
        t = start
        for k in kernels:
            dur = k.time_s * scale
            tracer.add_span(k.name, cat="gpu", start_s=t, end_s=t + dur,
                            role=k.role, model_time_s=k.time_s)
            t += dur

    def _split(self, requests: Sequence[Request], key: ShapeKey,
               stats: ServingStats) -> None:
        stats.oom_splits += 1
        mid = (len(requests) + 1) // 2
        self._execute(requests[:mid], key, stats)
        self._execute(requests[mid:], key, stats)

    def _execute(self, requests: Sequence[Request], key: ShapeKey,
                 stats: ServingStats,
                 padded: Optional[int] = None) -> None:
        """Serve one group of same-shape requests, walking the recovery
        ladder: retry → fallback → breaker skip → split on OOM →
        degrade under pressure → shed (counted by cause) last.

        ``padded`` is an optional precomputed ``policy.padded(fill)``
        hint from the batcher (valid only while no degradation cap is
        active — the batcher computed it cap-free).
        """
        # Inlined _effective_cap guard: no method call while no
        # degradation window is active (the overwhelmingly common case).
        cap = self._degraded_cap
        if cap is not None:
            cap = self._effective_cap()
        if cap is not None and len(requests) > cap:
            for i in range(0, len(requests), cap):
                self._execute(requests[i:i + cap], key, stats)
            return
        if padded is None or cap is not None:
            padded = self.config.policy.padded(len(requests), cap)
        plans = self._plan_for(key, padded)
        if not plans:
            stats.oom_shed += len(requests)
            stats.record_shed("infeasible", len(requests))
            return
        tracer = self.obs.tracer
        limit = self._fallback_limit
        for rank, plan in enumerate(plans[:limit]):
            if self._injector is not None and \
                    not self._breaker.allow(plan.implementation,
                                            self.clock.now_s):
                tracer.event("breaker.skip",
                             implementation=plan.implementation, rank=rank)
                continue
            try:
                self._dispatch(plan, rank, key, padded, requests, stats)
            except _RetriesExhausted:
                continue            # substitute the next-ranked plan
            except MemoryPressureError:
                stats.pressure_events += 1
                tracer.event("fault.memory_pressure", batch=padded,
                             degraded_cap=max(1, padded // 2))
                # Graceful degradation: halve the cap before shedding.
                self._degraded_cap = max(1, padded // 2)
                if len(requests) > 1:
                    self._split(requests, key, stats)
                else:
                    stats.oom_shed += 1
                    stats.record_shed("memory")
                return
            except DeviceOOMError:
                tracer.event("oom.split" if len(requests) > 1 else "oom.shed",
                             batch=padded)
                if len(requests) > 1:
                    self._split(requests, key, stats)
                else:
                    stats.oom_shed += 1
                    stats.record_shed("memory")
                return
            if cap is not None:
                stats.degraded_batches += 1
            return
        # Every candidate faulted past its budget or sat behind an open
        # breaker: the batch is shed, attributed to faults.
        tracer.event("shed.fault", requests=len(requests))
        stats.record_shed("fault", len(requests))

    # ------------------------------------------------------------------

    # -- the session API (what run() is built from) --------------------

    def begin(self) -> "Server":
        """Open a serving session: fresh queue, batcher and stats.

        :meth:`run` calls this itself; an external driver (the cluster
        replica loop) calls ``begin`` once, then :meth:`admit` /
        :meth:`shed_expired` / :meth:`pump` as its timeline dictates,
        and :meth:`finish` to freeze the report.
        """
        self.stats = ServingStats(registry=self.obs.registry)
        self.queue = AdmissionQueue(self.config.queue_depth)
        self.batcher = DynamicBatcher(self.config.policy)
        self._degraded_cap = None
        self._monitor = (SLOMonitor(self.config.slo, self.obs)
                         if self.config.slo is not None else None)
        self.telemetry = None
        self._tel_cursor = 0
        if self.config.telemetry is not None:
            tel = Rollups(window_s=self.config.telemetry.window_s)
            tel.add_source("server", self.obs.registry,
                           device=self._device_label)
            tel.add_probe("plan_cache", self.plan_cache.stats,
                          device=self._device_label)
            self.telemetry = tel
        self._breaker_base = (self._breaker.trips, self._breaker.skips)
        self._injector_base = (0, 0)
        if self._injector is not None:
            self._injector_base = (self._injector.faults_injected,
                                   self._injector.entries_corrupted)
        return self

    def admit(self, requests: Sequence[Request]) -> int:
        """Offer requests to the session's admission queue, in order;
        returns how many were admitted (the rest were refused as
        ``queue_full``)."""
        self.stats.count_offered(len(requests))
        offer = self.queue.offer
        tracer = self.obs.tracer
        if not tracer.enabled:
            return sum(map(offer, requests))
        admitted = 0
        for request in requests:
            ok = offer(request)
            tracer.event("serve.admit" if ok else "serve.reject",
                         rid=request.rid, model=request.model,
                         layer=request.layer)
            admitted += ok
        return admitted

    def shed_expired(self) -> int:
        """Drop every queued request whose deadline has passed."""
        expired = self.queue.shed_expired(self.clock.now_s)
        if expired:
            self.obs.tracer.event("serve.shed_expired",
                                  requests=len(expired))
        return len(expired)

    def pump(self, drain: bool = False) -> bool:
        """Release and execute one batch at the current simulated time.

        Returns whether a batch ran (dispatching advances the clock by
        the simulated service time); ``False`` means the batcher is
        holding for more fill or the queue is empty.
        """
        batch = self.batcher.next_batch(self.queue, self.clock.now_s,
                                        drain=drain)
        if batch is None:
            return False
        tracer = self.obs.tracer
        requests = batch.requests
        with tracer.span("serve.batch", cat="serve",
                         model=requests[0].model, layer=requests[0].layer,
                         fill=batch.fill, batch=batch.batch):
            try:
                self._execute(requests, batch.key, self.stats, batch.batch)
            except ReproError as exc:
                # No recovery layer absorbed it: count the failure
                # loudly instead of crashing the serving loop.
                tracer.event("serve.unhandled_error",
                             error=type(exc).__name__)
                self.stats.unhandled_errors += 1
                self.stats.record_shed("error", len(requests))
        return True

    def telemetry_poll(self, now_s: float) -> None:
        """Feed completions recorded since the last poll into the
        rollups, then fold/flush windows owed as of ``now_s``.  No-op
        without a telemetry config; never touches simulated state."""
        tel = self.telemetry
        if tel is None:
            return
        completions = self.stats.completions
        cursor = self._tel_cursor
        if cursor < len(completions):
            observe = tel.observe_completion
            device = self._device_label
            for completion in completions[cursor:]:
                observe(completion, device=device)
            self._tel_cursor = len(completions)
        tel.poll(now_s)

    def finish(self) -> StatsReport:
        """Freeze the session into its end-of-run report."""
        stats, queue = self.stats, self.queue
        if self.telemetry is not None:
            self.telemetry_poll(self.clock.now_s)
            self.telemetry.finalize(self.clock.now_s)
        stats.rejected = queue.rejected
        stats.shed = queue.shed
        stats.closed_shed = queue.closed_out
        if self._monitor is not None:
            self.slo_report = self._monitor.finalize(self.clock.now_s)
        trips0, skips0 = self._breaker_base
        stats.breaker_trips = self._breaker.trips - trips0
        stats.breaker_skips = self._breaker.skips - skips0
        if self._injector is not None:
            faults0, corrupted0 = self._injector_base
            stats.faults_injected = self._injector.faults_injected - faults0
            stats.cache_corruptions = \
                self._injector.entries_corrupted - corrupted0
        return stats.finalize(self.clock.now_s, self.plan_cache.stats(),
                              self._allocator.peak)

    # -- the one-server driver ------------------------------------------

    def run(self, trace: Sequence[Arrival]) -> StatsReport:
        """Serve one arrival trace to completion; returns the report.

        The same :meth:`admit` / :meth:`shed_expired` / :meth:`pump`
        sequence the cluster replica loop drives, with every arrival
        due at one stop admitted in a single call.
        """
        self.begin()
        clock = self.clock
        queue = self.queue
        monitor = self._monitor
        timeout_s = self.config.timeout_s
        admit, shed_expired, pump = self.admit, self.shed_expired, self.pump
        # Sorted list + cursor instead of a deque of popped arrivals:
        # bulk admission walks a slice with no per-element pops.
        pending = sorted(trace, key=lambda a: (a.t_s, a.rid))
        n = len(pending)
        i = 0
        with obs_session(self.obs), \
                self.obs.tracer.span("serve.run", cat="serve",
                                     device=self._device_name,
                                     arrivals=len(trace)):
            while i < n or queue._depth:
                now = clock._now
                if monitor is not None:
                    monitor.poll(now)
                if self.telemetry is not None:
                    # Poll at the loop top: counter ticks between stops
                    # are attributed to the window their dispatch began
                    # in (exact — the loop only mutates state at stops).
                    self.telemetry_poll(now)
                if i < n and pending[i].t_s <= now:
                    j = i
                    while j < n and pending[j].t_s <= now:
                        j += 1
                    admit([fast_request(a.rid, a.model, a.layer, a.key,
                                        a.t_s, timeout_s)
                           for a in pending[i:j]])
                    i = j
                shed_expired()
                if pump(drain=i >= n):
                    continue
                if i >= n and not queue._depth:
                    break
                # Nothing releasable: advance to the next event — the next
                # arrival or the oldest lane's max-wait expiry.
                events = [self.batcher.release_at(queue)]
                if i < n:
                    events.append(pending[i].t_s)
                clock.advance_to(min(events))
        return self.finish()


def serve_trace(trace: Sequence[Arrival],
                config: ServerConfig = ServerConfig(),
                fault_plan: Optional[FaultPlan] = None,
                fault_seed: Optional[int] = None) -> StatsReport:
    """Convenience one-shot: run ``trace`` on a fresh server."""
    return Server(config, fault_plan=fault_plan,
                  fault_seed=fault_seed).run(trace)
