"""The fleet driver: replicas + router + SLO monitor + autoscaler.

:class:`Cluster` generalises :meth:`repro.serve.scheduler.Server.run`
from one simulated GPU to a replicated fleet on one shared virtual
timeline.  The event loop is a discrete-event simulation over a global
:class:`~repro.gpusim.timing.SimClock`:

1. apply any scheduled replica kills due now (chaos: the router sheds
   around the hole while the evacuated queue is re-routed);
2. run the health plane (when configured): fleet-chaos transitions
   (crashes, flaps), supervisor restarts due, heartbeat probes —
   suspicion, eviction — and hedging (see
   :mod:`repro.cluster.health`);
3. run the fleet SLO monitor's due evaluations — a violation /
   recovery edge may scale the fleet through the autoscaler;
4. route every arrival due now to a replica (the policy sees only
   routable replicas);
5. poll, in index order, the live replicas a poll is due for
   (:meth:`Replica.catch_up`); other idle, up replicas only move their
   clocks to the stop;
6. advance the fleet clock to the next event — the earliest of: next
   arrival, each live replica's batch completion or next release
   (:meth:`Replica.next_event_s`), the monitor's next poll, the next
   scheduled kill, the health plane's next probe/restart/chaos edge.
   Queue deadlines pick which replicas a stop polls, never a stop.

Determinism is end-to-end: iteration is always in replica-index order,
the only RNGs are the seeded per-replica fault injectors and the
``p2c`` policy's own seeded generator, and no wall clock is ever read
— two same-seed runs produce byte-identical reports, traces and
metrics (the CI ``cluster-smoke`` job diffs exactly that).

The *fleet* sliding-window SLO view exists because the cumulative
``serve_latency_seconds`` histogram answers "how was the whole run"
— after a scale-up fixes the tail, the cumulative p99 stays violated
for a long time, so an autoscaler fed by it can never observe its own
success.  :meth:`Cluster._window_snapshot` therefore summarises only
the last ``window_s`` of fleet traffic into a snapshot-shaped dict and
feeds *that* to the :class:`~repro.obs.slo.SLOMonitor`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from math import inf
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.advisor import Advisor
from ..faults import FaultPlan, FleetFaultPlan, StragglerSpec
from ..frameworks.registry import shared_implementations
from ..gpusim.timing import SimClock
from ..obs.context import Observability, obs_session
from ..obs.hist import percentile, summarize
from ..obs.slo import SLOMonitor, SLOPolicy
from ..obs.timeseries import TelemetryConfig
from ..obs.tracer import SimTracer
from ..rng import DEFAULT_SEED
from ..serve.loadgen import Arrival, check_order
from ..serve.scheduler import ServerConfig
from .autoscaler import AutoscalePolicy, Autoscaler
from .health import HealthConfig, HealthPlane
from .replica import Replica
from .report import ClusterReport, ReplicaSummary, aggregate_plan_cache
from .router import POLICIES, Router, make_policy
from .telemetry import FleetTelemetry

#: Per-replica fault seeds are derived from the cluster seed with this
#: (prime) stride so replicas draw independent fault streams that stay
#: stable as the fleet grows.
_FAULT_SEED_STRIDE = 7919


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a fleet run is parameterised by."""

    replicas: int = 4
    policy: str = "round-robin"
    server: ServerConfig = ServerConfig()
    #: Seeds the ``p2c`` router and derives per-replica fault seeds.
    seed: int = DEFAULT_SEED
    #: Per-slot device profile names for a heterogeneous fleet
    #: (resolved through :func:`repro.devices.resolve_device`; slugs
    #: like ``k40c`` or display names like ``Tesla K40c``).  Empty ()
    #: keeps every replica on ``server.device`` — byte-identical to the
    #: pre-devices cluster.  When set, it must name one device per
    #: initial replica; supervisor restarts inherit their slot's
    #: device, autoscaler scale-ups beyond the tuple use
    #: ``server.device``.
    devices: Tuple[str, ...] = ()
    #: Fleet-level SLO rules, evaluated over the sliding window.
    slo: Optional[SLOPolicy] = None
    #: Enable the autoscaler (requires ``slo``).
    autoscale: Optional[AutoscalePolicy] = None
    #: Sliding-window width for the fleet SLO snapshot, seconds.
    window_s: float = 1.0
    #: Per-replica fault plans by slot; replicas not listed use
    #: ``default_fault_plan`` (``None`` = fault-free).  A supervisor
    #: replacement inherits its slot's plan.
    fault_plans: Dict[int, FaultPlan] = field(default_factory=dict)
    default_fault_plan: Optional[FaultPlan] = None
    #: Chaos: scheduled replica kills as ``(slot, time_s)`` pairs; a
    #: slot may die more than once when the supervisor restarts it.
    kills: Sequence[Tuple[int, float]] = ()
    #: Self-healing plane (detector, supervisor, hedging, retry
    #: budgets); ``None`` keeps the fleet byte-identical to the
    #: pre-health cluster.
    health: Optional[HealthConfig] = None
    #: Fleet-level chaos (replica crashes, degrades, flaps, domain
    #: failures).  Crash-bearing plans require ``health``: without
    #: probes nobody would ever observe the death and its stranded
    #: queue would deadlock the fleet.
    fleet_fault_plan: Optional[FleetFaultPlan] = None
    #: Live-telemetry plane (windowed rollups, burn-rate alerts,
    #: flight recorders); ``None`` runs without it.  Observational
    #: only: the :class:`ClusterReport` is byte-identical either way,
    #: minus its own ``telemetry`` section.
    telemetry: Optional[TelemetryConfig] = None

    def kill_schedule(self) -> List[Tuple[int, float]]:
        """The kills in execution order (time, then slot)."""
        return sorted(((int(i), float(t)) for i, t in self.kills),
                      key=lambda kv: (kv[1], kv[0]))

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown routing policy {self.policy!r}; "
                             f"options: {', '.join(POLICIES)}")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if self.devices and len(self.devices) != self.replicas:
            raise ValueError(
                f"devices names {len(self.devices)} device(s) for "
                f"{self.replicas} replica(s); give one per replica "
                f"or leave it empty for a homogeneous fleet")
        if self.autoscale is not None:
            if self.slo is None:
                raise ValueError("autoscaling needs an SLO policy "
                                 "(the autoscaler consumes its edges)")
            if not (self.autoscale.min_replicas <= self.replicas
                    <= self.autoscale.max_replicas):
                raise ValueError(
                    f"initial fleet size {self.replicas} outside autoscale "
                    f"bounds [{self.autoscale.min_replicas}, "
                    f"{self.autoscale.max_replicas}]")
        for index, t_s in self.kill_schedule():
            if index < 0 or t_s < 0:
                raise ValueError(f"invalid kill {index} @ {t_s}")
        if (self.fleet_fault_plan is not None
                and self.fleet_fault_plan.needs_health
                and self.health is None):
            raise ValueError(
                f"fleet fault plan {self.fleet_fault_plan.name!r} "
                f"schedules crashes/flaps, which only the health plane "
                f"can detect — set ClusterConfig.health")


class Cluster:
    """A replicated serving fleet on one shared virtual timeline."""

    def __init__(self, config: ClusterConfig = ClusterConfig()):
        self.config = config
        self.clock = SimClock()
        #: Fleet observability: router/autoscaler/SLO metrics + spans.
        #: Each replica additionally owns a private registry + tracer.
        self.obs = Observability()
        # One advisor shared by every replica: its ranking is a pure
        # function of (config, device), so sharing only shares the
        # memoization, never state — heterogeneous replicas pass their
        # own device per call (see Server._plan_for).
        self._advisor = Advisor(device=config.server.device,
                                implementations=shared_implementations())
        # Per-slot server configs for a heterogeneous fleet; empty when
        # homogeneous (every slot serves config.server untouched).
        # The registry import is lazy: repro.devices.plan imports this
        # module, so a top-level import back would cycle.
        self._slot_configs: Dict[int, ServerConfig] = {}
        if config.devices:
            from ..devices.registry import resolve_device
            for slot, name in enumerate(config.devices):
                spec = resolve_device(name)
                self._slot_configs[slot] = (
                    config.server if spec == config.server.device
                    else replace(config.server, device=spec))
        self.router = Router(
            make_policy(config.policy, config.seed, advisor=self._advisor),
            self.obs)
        self.replicas: List[Replica] = []
        #: The replicas not yet retired, in index order.
        self.live: List[Replica] = []
        #: (name, tracer) per replica, for the merged exports.
        self.replica_tracers: List[Tuple[str, SimTracer]] = []
        self._tracing = False
        self._trace_sample = 1
        self._next_index = 0
        self._peak_routable = 0
        self._consumed: Dict[int, int] = {}      # dispatch-record cursors
        self._incarnations: Dict[int, int] = {}  # spawns per slot
        self._requeued = 0
        self._kills_applied = 0
        #: Fleet-level terminal sheds by cause (``no_replica`` is kept
        #: in the router; ``retry_budget_exhausted`` lands here).
        self._fleet_sheds: Dict[str, int] = {}
        self.health: Optional[HealthPlane] = None
        if config.health is not None:
            self.health = HealthPlane(config.health, self, config.seed,
                                      plan=config.fleet_fault_plan)
        self._kill_queue: Deque[Tuple[int, float]] = deque()
        self._ran = False
        # Sliding-window state for the fleet SLO snapshot.
        self._win_offered: Deque[float] = deque()
        self._win_completions: Deque[Tuple[float, float, float]] = deque()
        self._all_latencies: List[float] = []
        #: Live-telemetry pipeline; replicas register as they spawn.
        self.telemetry: Optional[FleetTelemetry] = None
        if config.telemetry is not None:
            self.telemetry = FleetTelemetry(self, config.telemetry)
        self.autoscaler: Optional[Autoscaler] = None
        self.monitor: Optional[SLOMonitor] = None
        if config.slo is not None:
            edges = []
            if config.autoscale is not None:
                self.autoscaler = Autoscaler(config.autoscale, self)
                edges.append(self.autoscaler.on_edge)
            if self.telemetry is not None:
                # Telemetry listens second: the autoscaler reacts to
                # the edge first, so the incident bundle records the
                # fleet as the report will.
                edges.append(self.telemetry.on_slo_edge)
            if not edges:
                listener = None
            elif len(edges) == 1:
                listener = edges[0]
            else:
                def listener(rule, failed, now_s, verdict,
                             _edges=tuple(edges)):
                    for fn in _edges:
                        fn(rule, failed, now_s, verdict)
            self.monitor = SLOMonitor(config.slo, self.obs,
                                      snapshot_fn=self._window_snapshot,
                                      listener=listener)

    # -- observability -----------------------------------------------------

    def enable_tracing(self, sample: int = 1) -> SimTracer:
        """Attach a fleet tracer (router + autoscaler + SLO events) on
        the fleet clock; replicas spawned afterwards each get their own
        tracer in a disjoint span-id block.  Call before :meth:`run`.
        ``sample`` > 1 samples each replica's ``serve.batch`` unit
        trees 1-in-``sample`` (see
        :class:`~repro.obs.tracer.TraceSampler`); the fleet tracer's
        own router/autoscaler events are never sampled.  Returns the
        fleet tracer for the merged exports
        (:func:`repro.obs.export.cluster_chrome_trace`)."""
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        tracer = SimTracer(self.clock)
        self.obs.tracer = tracer
        self._tracing = True
        self._trace_sample = sample
        return tracer

    def _window_snapshot(self) -> dict:
        """The last ``window_s`` of fleet traffic, shaped like a
        registry snapshot so the SLO rules evaluate unchanged.

        Completions arrive slightly out of finish-time order across
        replicas, so pruning stops at the first in-window head — the
        effective window can briefly hold a few older entries, which
        is deterministic and bounded by one batch's service time.
        """
        cutoff = self.clock.now_s - self.config.window_s
        while self._win_offered and self._win_offered[0] < cutoff:
            self._win_offered.popleft()
        while self._win_completions and self._win_completions[0][0] < cutoff:
            self._win_completions.popleft()
        latencies = [lat for _, lat, _ in self._win_completions]
        waits = [w for _, _, w in self._win_completions]
        return {
            "counters": {
                "serve_requests_offered_total": float(len(self._win_offered)),
                "serve_requests_completed_total":
                    float(len(self._win_completions)),
            },
            "histograms": {
                "serve_latency_seconds": summarize(latencies),
                "serve_queue_wait_seconds": summarize(waits),
            },
        }

    # -- fleet mutation (also called back by the autoscaler) ---------------

    @property
    def routable_count(self) -> int:
        return sum(1 for r in self.live if r.routable)

    def _spawn(self, now_s: float, slot: Optional[int] = None) -> Replica:
        """Add a fleet member.  ``slot`` is set by the supervisor when
        the new replica replaces a dead one: the replacement gets a
        fresh index (and thus a fresh server with a **cold** plan
        cache) but inherits the slot's fault plan and chaos targeting.
        """
        index = self._next_index
        self._next_index += 1
        if slot is None:
            slot = index
        incarnation = self._incarnations.get(slot, 0)
        self._incarnations[slot] = incarnation + 1
        plan = self._slot_plan(slot)
        server_config = self._slot_configs.get(slot, self.config.server)
        replica = Replica(
            index, server_config, advisor=self._advisor,
            fault_plan=plan,
            fault_seed=self.config.seed + _FAULT_SEED_STRIDE * (index + 1),
            tracing=self._tracing, trace_sample=self._trace_sample,
            slot=slot, incarnation=incarnation)
        replica.begin(now_s)
        self.replicas.append(replica)
        self.live.append(replica)
        self._consumed[index] = 0
        if self._tracing:
            self.replica_tracers.append((replica.name, replica.tracer))
        if self.health is not None:
            self.health.register(replica, now_s)
        if self.telemetry is not None:
            self.telemetry.register(replica)
        self._peak_routable = max(self._peak_routable, self.routable_count)
        return replica

    def _slot_plan(self, slot: int) -> Optional[FaultPlan]:
        """The per-server fault plan for a slot, with any fleet-level
        degrade windows for the slot compiled in as straggler windows
        (so a degraded replica's *service times* slow down through the
        existing injector; the health plane separately delays its
        heartbeats)."""
        plan = self.config.fault_plans.get(slot,
                                           self.config.default_fault_plan)
        fleet_plan = self.config.fleet_fault_plan
        if fleet_plan is None:
            return plan
        degrades = fleet_plan.degrades_for(slot)
        if not degrades:
            return plan
        extra = tuple(StragglerSpec(slowdown=d.factor, start_s=d.start_s,
                                    end_s=d.end_s) for d in degrades)
        if plan is None:
            return FaultPlan(name=f"fleet:{fleet_plan.name}",
                             stragglers=extra)
        return replace(plan, stragglers=plan.stragglers + extra)

    def scale_up(self, now_s: float, rule: str = "") -> int:
        """Add one replica (autoscaler callback); returns its index."""
        replica = self._spawn(now_s)
        self.obs.tracer.add_span("autoscale.scale_up", cat="autoscale",
                                 start_s=now_s, end_s=now_s,
                                 replica=replica.index, rule=rule,
                                 replicas=self.routable_count)
        self.obs.registry.counter("cluster_scale_ups_total").inc()
        return replica.index

    def scale_down(self, now_s: float, rule: str = "") -> Optional[int]:
        """Start draining the highest-indexed routable replica
        (autoscaler callback); its queue is re-routed immediately and
        it retires once idle.  Returns the index, or ``None`` when
        nothing is drainable."""
        candidates = [r for r in self.live if r.routable]
        if len(candidates) <= 1:
            return None
        victim = max(candidates, key=lambda r: r.index)
        evacuated = victim.start_drain(now_s)
        self._requeue(evacuated, now_s)
        self.obs.registry.counter("cluster_drains_total").inc()
        return victim.index

    def _apply_kills(self, now_s: float) -> None:
        while self._kill_queue and self._kill_queue[0][1] <= now_s:
            index, _ = self._kill_queue.popleft()
            # Kills target slots, so a schedule can kill a slot's
            # restarted incarnation again (restart-then-kill-again).
            victim = next((r for r in self.live if r.slot == index), None)
            if victim is None:
                continue            # already retired or dead
            evacuated = victim.kill(now_s)
            self.live.remove(victim)
            self._kills_applied += 1
            self.obs.registry.counter("cluster_kills_total").inc()
            self.obs.tracer.add_span("fault.replica_kill", cat="faults",
                                     start_s=now_s, end_s=now_s,
                                     replica=victim.index,
                                     requeued=len(evacuated))
            if self.health is not None:
                self.health.on_kill(victim.slot, now_s)
            self._requeue_failed(evacuated, now_s)

    def _requeue_failed(self, requests: Sequence[Arrival],
                        now_s: float) -> None:
        """Re-route an *involuntary* evacuation (kill or eviction).

        Without the health plane this is a plain requeue.  With it,
        pending-hedge copies are skipped (their twin still serves the
        rid) and each survivor spends a retry-budget token — requests
        the tenant budget refuses are shed fleet-side under
        ``retry_budget_exhausted``.  Voluntary autoscaler drains stay
        budget-free: they are the fleet's own choice, not a failure.
        """
        if self.health is None:
            self._requeue(requests, now_s)
            return
        route, denied = self.health.plan_requeue(list(requests))
        if denied:
            n = len(denied)
            self._fleet_sheds["retry_budget_exhausted"] = \
                self._fleet_sheds.get("retry_budget_exhausted", 0) + n
            self.obs.registry.counter(
                "cluster_sheds_total",
                cause="retry_budget_exhausted").inc(n)
        self._requeue(route, now_s)

    def _requeue(self, requests: Sequence[Arrival], now_s: float) -> None:
        """Re-route requests evacuated from a draining/killed replica.

        They keep their original arrival time (so their deadline still
        stands) and are *not* re-counted as fleet offers."""
        if not requests:
            return
        self._requeued += len(requests)
        self.obs.registry.counter("cluster_requeued_total").inc(len(requests))
        for request in requests:
            target = self.router.route(request, self.live, now_s)
            if target is not None:
                target.admit(request)

    def _route_arrival(self, arrival: Arrival, now_s: float) -> None:
        self._win_offered.append(arrival.t_s)
        if self.health is not None:
            self.health.budget.on_offer(arrival.model)
        target = self.router.route(arrival, self.live, now_s)
        if target is not None:
            target.admit(arrival)

    def _collect_completions(self, replicas: Sequence[Replica]) -> None:
        health = self.health
        telemetry = self.telemetry
        filtering = health is not None and health.hedging
        now = self.clock.now_s
        for replica in replicas:
            stats = replica.server.stats
            cursor = self._consumed[replica.index]
            if stats.dispatch_count == cursor:
                continue
            for request, start_s, finish_s in stats.served(cursor):
                # Hedged rids complete once fleet-side: the winner is
                # kept, the losing copy's completion (if it raced to
                # execute anyway) is dropped here.
                if filtering and not health.on_completion(request.rid,
                                                          replica, now):
                    continue
                arrival = request.t_s
                latency = finish_s - arrival
                self._win_completions.append(
                    (finish_s, latency, start_s - arrival))
                self._all_latencies.append(latency)
                if telemetry is not None:
                    telemetry.observe(request, start_s, finish_s, replica)
            self._consumed[replica.index] = stats.dispatch_count

    def _retire_idle_drainers(self, now_s: float) -> None:
        for replica in [r for r in self.live if r.draining]:
            if not replica.queue_depth and replica.server.clock.now_s <= now_s:
                self._finish_drain(replica, now_s)

    def _finish_drain(self, replica: Replica, end_s: float) -> None:
        replica.retire(end_s, outcome="drained")
        self.live.remove(replica)
        self.obs.tracer.add_span(
            "autoscale.drain", cat="autoscale",
            start_s=replica.drain_started_s, end_s=end_s,
            replica=replica.index)

    # -- the fleet driver --------------------------------------------------

    def run(self, trace: Sequence[Arrival]) -> ClusterReport:
        """Serve one arrival trace across the fleet; returns the
        frozen :class:`~repro.cluster.report.ClusterReport`.  ``trace``
        must be in ``(t_s, rid)`` order
        (:func:`~repro.serve.loadgen.check_order`)."""
        if self._ran:
            raise RuntimeError("a Cluster runs one trace; build a new one")
        check_order(trace)
        self._ran = True
        self._kill_queue = deque(self.config.kill_schedule())
        for _ in range(self.config.replicas):
            self._spawn(0.0)
        with obs_session(self.obs):
            root = self.obs.tracer.span(
                "cluster.run", cat="cluster", policy=self.config.policy,
                replicas=self.config.replicas, arrivals=len(trace))
            root.__enter__()
            try:
                self._loop(trace)
            finally:
                replicas_final = self.routable_count
                end_s = self.clock.now_s
                for replica in list(self.live):
                    end = max(end_s, replica.server.clock.now_s)
                    if replica.draining:
                        self._finish_drain(replica, end)
                    else:
                        replica.retire(
                            end,
                            outcome="crashed" if replica.down else "ran")
                self._collect_completions(self.replicas)
                if self.health is not None:
                    self.health.finish()
                root.annotate(completed=len(self._all_latencies),
                              replicas_final=replicas_final)
                root.__exit__(None, None, None)
        return self._build_report(len(trace), replicas_final)

    def _loop(self, pending: Sequence[Arrival]) -> None:
        # Ordered trace + cursor instead of a deque of popped arrivals:
        # admission walks a slice, and the frequently-read "next
        # arrival time" is one index away.  Per-iteration attribute
        # lookups (clock, monitor, kill queue) are hoisted; ``live`` is
        # shared with the spawns, kills, evictions and drains.
        clock = self.clock
        monitor = self.monitor
        health = self.health
        telemetry = self.telemetry
        kill_queue = self._kill_queue
        route = self._route_arrival
        live = self.live
        n = len(pending)
        i = 0
        while True:
            now = clock.now_s
            if telemetry is not None:
                # Poll before this stop's processing: counter ticks
                # made while handling a stop are attributed to the
                # window that stop's fleet time falls in.
                telemetry.poll(now)
            if kill_queue:
                self._apply_kills(now)
            if health is not None and health.next_event_s() <= now:
                health.poll(now)
            if monitor is not None:
                monitor.poll(now)
            while i < n and pending[i].t_s <= now:
                route(pending[i], now)
                i += 1
            drain = i >= n
            dispatched = [r for r in live if r.catch_up(now, drain)
                          and r.poll(now, drain=drain)]
            if dispatched:
                self._collect_completions(dispatched)
            self._retire_idle_drainers(now)
            if drain and not any(r.queue_depth for r in live):
                return
            events: List[float] = []
            if i < n:
                events.append(pending[i].t_s)
            if kill_queue:
                events.append(kill_queue[0][1])
            if health is not None:
                events.append(health.next_event_s())
            if monitor is not None:
                events.append(monitor.next_poll_s)
            events.extend([r.next_event_s(now) for r in live])
            horizon = min(events, default=inf)
            if horizon == inf:
                return
            if horizon <= now:
                raise RuntimeError(
                    f"cluster event loop stalled at t={now:.6f}s "
                    f"(next event {horizon:.6f}s)")
            clock.advance_to(horizon)

    def _build_report(self, offered: int,
                      replicas_final: int) -> ClusterReport:
        latencies = sorted(self._all_latencies)
        duration = max([r.retired_s or 0.0 for r in self.replicas]
                       + [self.clock.now_s])
        completed = len(latencies)
        telemetry_doc = None
        if self.telemetry is not None:
            # Replica clocks can run ahead of the fleet clock at the
            # end; finalize at the report duration so the last window
            # covers every collected completion.
            self.telemetry.finalize(duration)
            telemetry_doc = self.telemetry.report()
        # Replica device names appear in the report only when the fleet
        # is actually heterogeneous: homogeneous runs (including a
        # one-device --fleet) keep their pre-devices serialization
        # byte-for-byte.
        hetero = len({r.device_name for r in self.replicas}) > 1
        summaries = tuple(
            ReplicaSummary(index=r.index, name=r.name,
                           started_s=r.started_s, retired_s=r.retired_s,
                           outcome=r.outcome,
                           routed=self.router.routed.get(r.index, 0),
                           report=r.report,
                           slot=r.slot, incarnation=r.incarnation,
                           device=r.device_name if hetero else None)
            for r in self.replicas)
        slo_in_violation: Optional[bool] = None
        violations = recoveries = 0
        if self.monitor is not None:
            violations = self.monitor.violations
            recoveries = self.monitor.recoveries
            slo_in_violation = (self.autoscaler.in_violation
                                if self.autoscaler is not None
                                else self.monitor.in_violation)
        registry = self.obs.registry
        registry.gauge("cluster_replicas_final").set(replicas_final)
        registry.gauge("cluster_replicas_peak").set(self._peak_routable)
        registry.gauge("cluster_duration_seconds").set(duration)
        fleet_sheds = dict(self._fleet_sheds)
        if self.router.no_replica:
            fleet_sheds["no_replica"] = (fleet_sheds.get("no_replica", 0)
                                         + self.router.no_replica)
        return ClusterReport(
            policy=self.config.policy,
            duration_s=duration,
            offered=offered,
            completed=completed,
            requeued=self._requeued,
            no_replica_shed=self.router.no_replica,
            throughput_rps=completed / duration if duration > 0 else 0.0,
            latency_p50_ms=percentile(latencies, 50) * 1000,
            latency_p95_ms=percentile(latencies, 95) * 1000,
            latency_p99_ms=percentile(latencies, 99) * 1000,
            replicas_started=len(self.replicas),
            replicas_peak=self._peak_routable,
            replicas_final=replicas_final,
            scale_ups=(self.autoscaler.scale_ups
                       if self.autoscaler is not None else 0),
            drains=(self.autoscaler.drains
                    if self.autoscaler is not None else 0),
            kills=self._kills_applied,
            slo_violations=violations,
            slo_recoveries=recoveries,
            slo_in_violation=slo_in_violation,
            plan_cache=aggregate_plan_cache(
                tuple(r.report for r in self.replicas)),
            replicas=summaries,
            autoscale_actions=tuple(self.autoscaler.actions
                                    if self.autoscaler is not None else ()),
            shed_by_cause=fleet_sheds,
            health=(self.health.scorecard()
                    if self.health is not None else None),
            telemetry=telemetry_doc,
        )


def serve_cluster(trace: Sequence[Arrival],
                  config: ClusterConfig = ClusterConfig()) -> ClusterReport:
    """Convenience one-shot: run ``trace`` on a fresh fleet."""
    return Cluster(config).run(trace)
