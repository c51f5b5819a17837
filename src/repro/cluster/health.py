"""The fleet's self-healing plane: detection, restarts, hedging,
retry budgets.

Before this module the cluster's only failure story was the scheduled
kill list — the fleet was *told* who died, exactly at death time.
:class:`HealthPlane` replaces that with observation and recovery, all
on the shared virtual clock and all byte-deterministic:

* **Failure detection** — heartbeat probes every
  ``probe_interval_s``.  A replica that is up answers; one that is
  down (crashed, flapping) or too degraded to answer in time does
  not.  The suspicion score is phi-accrual-style: ``phi = intervals
  since the last heartbeat``.  At ``suspect_after`` the replica is
  *suspected* — the router stops sending it traffic but its queue is
  left alone (a late heartbeat clears the suspicion as a *false*
  one).  At ``evict_after`` the supervisor gives up: the queue is
  evacuated through the retry budget and the replica is retired.

* **Self-healing** — every supervisor-observed death (eviction or
  scheduled kill) schedules a replacement after ``restart_delay_s``
  plus seeded jitter, up to ``max_restarts`` per slot.  The
  replacement is a brand-new :class:`~repro.cluster.replica.Replica`
  with a **cold plan cache**: its warmup is visible as plan-cache
  misses and a latency bump, and the shape-affinity router re-pins
  shapes the dead replica owned.

* **Tail defense** — with ``hedge_after_s`` set, a request queued
  longer than the hedge deadline is re-dispatched to a second replica
  (least-loaded among the other routable members).  First completion
  wins; the losing copy is cancelled out of its queue (the
  ``hedge_cancelled`` shed cause) or, if already in flight, its
  completion is dropped from the fleet accounting.  Every hedge
  resolves as exactly one win or one cancel, so the scorecard
  reconciles: ``hedges_issued == hedge_wins + hedge_cancels``.

* **Retry budgets** — hedges and involuntary requeues spend from a
  per-tenant budget (``retry_budget_min`` plus ``retry_budget_ratio``
  of that tenant's offered traffic), capping fleet-wide retry storms
  when a fault plan degrades everyone at once.  A requeue the budget
  refuses is shed fleet-side under ``retry_budget_exhausted``.

Determinism: probes, chaos transitions and restarts are processed in
time order with replica-index tie-breaks; the only randomness is the
restart-jitter RNG, seeded from the cluster seed on its own stream.
With ``ClusterConfig.health = None`` none of this code runs and the
fleet behaves byte-identically to the pre-health cluster.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..faults.fleet import FleetFaultPlan
from ..serve.loadgen import Arrival
from .replica import Replica
from .router import _least_loaded

#: The restart-jitter RNG is seeded ``cluster seed + this (prime)
#: stride`` so it never shares a stream with the per-replica fault
#: injectors (stride 7919) or the p2c router (raw seed).
HEALTH_SEED_STRIDE = 104729


@dataclass(frozen=True)
class HealthConfig:
    """Tuning for the self-healing plane (see the module docstring).

    The defaults suit the smoke workloads (tens-of-ms latencies):
    20 ms probes, suspicion after 3 missed intervals, eviction after
    6.  ``hedge_after_s=None`` disables hedging;
    ``max_restarts=0`` disables the supervisor (detection only).
    """

    probe_interval_s: float = 0.02
    #: Suspicion threshold in missed probe intervals (phi): the router
    #: stops sending traffic here but the queue is left alone.
    suspect_after: float = 3.0
    #: Eviction threshold in missed intervals: the queue is evacuated
    #: and a restart is scheduled.  Must be >= ``suspect_after``.
    evict_after: float = 6.0
    restart_delay_s: float = 0.25
    #: Seeded uniform jitter added to every restart delay.
    restart_jitter_s: float = 0.05
    #: Replacement budget per slot (origin index); 0 disables restarts.
    max_restarts: int = 2
    #: Queue age after which the oldest queued request is hedged to a
    #: second replica; ``None`` disables hedging.
    hedge_after_s: Optional[float] = None
    #: Per-tenant retry allowance: ``retry_budget_min`` plus this
    #: fraction of the tenant's offered requests.
    retry_budget_ratio: float = 0.1
    retry_budget_min: int = 10

    def __post_init__(self) -> None:
        if self.probe_interval_s <= 0:
            raise ValueError(f"probe_interval_s must be positive, "
                             f"got {self.probe_interval_s}")
        if self.suspect_after <= 0:
            raise ValueError(f"suspect_after must be positive, "
                             f"got {self.suspect_after}")
        if self.evict_after < self.suspect_after:
            raise ValueError(
                f"evict_after ({self.evict_after}) must be >= "
                f"suspect_after ({self.suspect_after})")
        if self.restart_delay_s < 0 or self.restart_jitter_s < 0:
            raise ValueError("restart delay/jitter must be non-negative")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, "
                             f"got {self.max_restarts}")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError(f"hedge_after_s must be positive, "
                             f"got {self.hedge_after_s}")
        if self.retry_budget_ratio < 0 or self.retry_budget_min < 0:
            raise ValueError("retry budget parameters must be non-negative")


class RetryBudget:
    """Per-tenant retry token accounting.

    A tenant (the request's model name) may spend
    ``floor + ratio * offered(tenant)`` retries — hedges plus
    involuntary requeues — over the run.  Deterministic: pure counting,
    no clocks, no RNG.
    """

    def __init__(self, ratio: float, floor: int):
        self.ratio = ratio
        self.floor = floor
        self.offers: Dict[str, int] = {}
        self.spent: Dict[str, int] = {}
        self.exhaustions = 0

    def on_offer(self, tenant: str) -> None:
        self.offers[tenant] = self.offers.get(tenant, 0) + 1

    def allowance(self, tenant: str) -> int:
        return self.floor + int(self.ratio * self.offers.get(tenant, 0))

    def allow(self, tenant: str) -> bool:
        """Spend one retry token if the tenant has any left."""
        spent = self.spent.get(tenant, 0)
        if spent < self.allowance(tenant):
            self.spent[tenant] = spent + 1
            return True
        self.exhaustions += 1
        return False

    def to_dict(self) -> dict:
        return {
            "exhaustions": self.exhaustions,
            "offers": int(sum(self.offers.values())),
            "spent": int(sum(self.spent.values())),
            "tenants_exhausted": sorted(
                t for t, n in self.spent.items()
                if n >= self.allowance(t)),
        }


class HealthPlane:
    """Failure detector + supervisor + hedger for one
    :class:`~repro.cluster.fleet.Cluster`.

    The cluster calls :meth:`register` for every spawned replica,
    :meth:`poll` at each stop where :meth:`next_event_s` is due, folds
    :meth:`next_event_s` into its event horizon, and routes
    completions/evacuations through :meth:`on_completion` /
    :meth:`plan_requeue`.  :meth:`scorecard` is the resilience section
    of the :class:`~repro.cluster.report.ClusterReport`.
    """

    def __init__(self, config: HealthConfig, cluster,
                 seed: int, plan: Optional[FleetFaultPlan] = None):
        from ..rng import make_rng

        self.config = config
        self.cluster = cluster
        self.plan = plan
        self.hedging = config.hedge_after_s is not None
        self._rng = make_rng(seed + HEALTH_SEED_STRIDE)
        #: Next probe pass (the first one runs after one interval).
        self._probe_due_s = config.probe_interval_s
        #: Replica index -> time of the last heartbeat received.
        self._last_hb: Dict[int, float] = {}
        #: Slot (origin index) -> the live incarnation, if any.
        self._current: Dict[int, Replica] = {}
        self._restarts_by_slot: Dict[int, int] = {}
        self._restart_heap: List[Tuple[float, int, int]] = []
        self._restart_seq = 0
        # Fleet-chaos schedule: (time, slot, kind) with kind one of
        # "crash" | "down" | "up", consumed by a cursor in time order.
        events: List[Tuple[float, int, int, str]] = []
        if plan is not None:
            for t, slot in plan.crash_events():
                events.append((t, slot, 0, "crash"))
            for t, slot, down in plan.flap_events():
                events.append((t, slot, 1, "down" if down else "up"))
        self._chaos = sorted(events)
        self._chaos_i = 0
        self.budget = RetryBudget(config.retry_budget_ratio,
                                  config.retry_budget_min)
        #: rid -> pending hedge record; popped on resolution.
        self._hedges: Dict[int, dict] = {}
        #: rids whose next completion is a cancelled hedge copy —
        #: dropped from the fleet accounting when it surfaces.
        self._ignore: Set[int] = set()
        # Scorecard counters.
        self.probes = 0
        self.detections = 0
        self.false_suspicions = 0
        self.evictions = 0
        self.kills_observed = 0
        self.flap_downs = 0
        self.restarts = 0
        self.restarts_denied = 0
        self.hedges_issued = 0
        self.hedge_wins = 0
        self.hedge_cancels = 0
        self.hedges_denied = 0

    # Read through to the cluster's observability context on every
    # use: the fleet tracer is attached by ``enable_tracing()`` *after*
    # the cluster (and this plane) is constructed.
    @property
    def _tracer(self):
        return self.cluster.obs.tracer

    @property
    def _registry(self):
        return self.cluster.obs.registry

    # -- lifecycle plumbing ------------------------------------------------

    def register(self, replica: Replica, now_s: float) -> None:
        """Track a newly spawned replica (initial fleet, autoscaler
        additions and supervisor replacements all pass through)."""
        self._last_hb[replica.index] = now_s
        self._current[replica.slot] = replica

    @property
    def crashes(self) -> int:
        """Supervisor-observed deaths: evictions plus scheduled kills.
        By construction ``crashes == restarts + restarts_pending +
        restarts_denied`` — the reconciliation the tests assert."""
        return self.evictions + self.kills_observed

    @property
    def restarts_pending(self) -> int:
        return len(self._restart_heap)

    def on_kill(self, slot: int, now_s: float) -> None:
        """A scheduled kill fired: the supervisor saw a death and
        schedules the replacement (kill-is-forever is gone)."""
        self.kills_observed += 1
        self._current.pop(slot, None)
        self._schedule_restart(slot, now_s)

    def _schedule_restart(self, slot: int, now_s: float) -> None:
        done = self._restarts_by_slot.get(slot, 0)
        if done >= self.config.max_restarts:
            self.restarts_denied += 1
            return
        self._restarts_by_slot[slot] = done + 1
        delay = self.config.restart_delay_s
        if self.config.restart_jitter_s:
            delay += self.config.restart_jitter_s * float(self._rng.random())
        self._restart_seq += 1
        heapq.heappush(self._restart_heap,
                       (now_s + delay, self._restart_seq, slot))

    # -- the event-loop hooks ----------------------------------------------

    def next_event_s(self) -> float:
        """The earliest pending health event (there is always a next
        probe, so this is always finite)."""
        t = self._probe_due_s
        if self._restart_heap and self._restart_heap[0][0] < t:
            t = self._restart_heap[0][0]
        if self._chaos_i < len(self._chaos):
            t_chaos = self._chaos[self._chaos_i][0]
            if t_chaos < t:
                t = t_chaos
        return t

    def poll(self, now_s: float) -> None:
        """Apply everything due at ``now_s``: chaos transitions first
        (deaths happen), then restarts, then heartbeat probes (which
        observe the new state), then hedging."""
        self._apply_chaos(now_s)
        self._apply_restarts(now_s)
        interval = self.config.probe_interval_s
        while self._probe_due_s <= now_s:
            t = self._probe_due_s
            self._probe_pass(t)
            if self.hedging:
                self._hedge_pass(t)
            self._probe_due_s = t + interval

    def _apply_chaos(self, now_s: float) -> None:
        while (self._chaos_i < len(self._chaos)
               and self._chaos[self._chaos_i][0] <= now_s):
            t, slot, _, kind = self._chaos[self._chaos_i]
            self._chaos_i += 1
            replica = self._current.get(slot)
            if replica is None or not replica.active:
                continue
            if kind == "crash":
                if not replica.down:
                    replica.down = True
                    self._tracer.add_span(
                        "fault.replica_crash", cat="faults",
                        start_s=t, end_s=t, replica=replica.index, slot=slot)
            elif kind == "down":
                if not replica.down:
                    replica.down = True
                    self.flap_downs += 1
                    self._tracer.add_span(
                        "fault.replica_flap", cat="faults",
                        start_s=t, end_s=t, replica=replica.index,
                        slot=slot, down=True)
            else:  # "up" — flap self-recovery; probes clear suspicion.
                if replica.down:
                    replica.down = False
                    self._tracer.add_span(
                        "fault.replica_flap", cat="faults",
                        start_s=t, end_s=t, replica=replica.index,
                        slot=slot, down=False)

    def _apply_restarts(self, now_s: float) -> None:
        while self._restart_heap and self._restart_heap[0][0] <= now_s:
            t, _, slot = heapq.heappop(self._restart_heap)
            replica = self.cluster._spawn(now_s, slot=slot)
            self.restarts += 1
            self._registry.counter("cluster_restarts_total").inc()
            self._tracer.add_span(
                "health.restart", cat="health", start_s=now_s, end_s=now_s,
                slot=slot, replica=replica.index,
                incarnation=replica.incarnation, cold_cache=True)

    def _probe_pass(self, t: float) -> None:
        interval = self.config.probe_interval_s
        for replica in list(self.cluster.live):
            self.probes += 1
            last = self._last_hb[replica.index]
            responsive = not replica.down
            if responsive and self.plan is not None:
                factor = self.plan.degrade_factor(replica.slot, t)
                if factor > 1.0:
                    # A degraded replica answers every ``factor``
                    # intervals instead of every one.
                    responsive = t - last + 1e-12 >= factor * interval
            if responsive:
                self._last_hb[replica.index] = t
                if replica.suspected:
                    replica.suspected = False
                    self.false_suspicions += 1
                    self._tracer.add_span(
                        "health.recover", cat="health", start_s=t, end_s=t,
                        replica=replica.index, slot=replica.slot)
                continue
            phi = (t - last) / interval
            if not replica.suspected and phi >= self.config.suspect_after:
                replica.suspected = True
                self.detections += 1
                self._registry.counter("cluster_suspicions_total").inc()
                self._tracer.add_span(
                    "health.suspect", cat="health", start_s=t, end_s=t,
                    replica=replica.index, slot=replica.slot,
                    phi=round(phi, 3))
            if phi >= self.config.evict_after:
                self._evict(replica, t)

    def _evict(self, replica: Replica, t: float) -> None:
        """Give up on a suspected replica: evacuate its queue through
        the retry budget, retire it, schedule the replacement."""
        outcome = "crashed" if replica.down else "evicted"
        evacuated = replica.evict(t, outcome=outcome)
        self.cluster.live.remove(replica)
        self.evictions += 1
        self._current.pop(replica.slot, None)
        self._registry.counter("cluster_evictions_total").inc()
        self._tracer.add_span(
            "health.evict", cat="health", start_s=t, end_s=t,
            replica=replica.index, slot=replica.slot, outcome=outcome,
            evacuated=len(evacuated))
        telemetry = getattr(self.cluster, "telemetry", None)
        if telemetry is not None:
            telemetry.on_eviction(replica, t)
        self._schedule_restart(replica.slot, t)
        self.cluster._requeue_failed(evacuated, t)

    # -- hedging -----------------------------------------------------------

    def _hedge_pass(self, t: float) -> None:
        hedge_after = self.config.hedge_after_s
        replicas = self.cluster.live
        for replica in replicas:
            if replica.queue_depth == 0:
                continue
            head = replica.server.queue.oldest_lane()
            if head is None:
                continue
            request = head[1]
            if t - request.t_s < hedge_after:
                continue
            rid = request.rid
            if rid in self._hedges or rid in self._ignore:
                continue
            eligible = [r for r in replicas
                        if r.routable and r is not replica]
            if not eligible:
                continue
            target = _least_loaded(eligible, t)
            if target.queue_depth >= target.server.config.queue_depth:
                continue            # no room; retry next pass
            if not self.budget.allow(request.model):
                self.hedges_denied += 1
                continue
            target.admit(request)
            self._hedges[rid] = {"primary": replica, "target": target,
                                 "request": request, "dead": 0}
            self.hedges_issued += 1
            self._registry.counter("cluster_hedges_total").inc()
            self._tracer.add_span(
                "hedge.issued", cat="health", start_s=t, end_s=t,
                rid=rid, from_replica=replica.index,
                to_replica=target.index,
                queued_s=round(t - request.t_s, 6))

    def on_completion(self, rid: int, replica: Replica,
                      now_s: float) -> bool:
        """First-completion-wins arbitration; returns whether this
        completion counts fleet-side (the losing copy of a hedged
        request does not)."""
        if rid in self._ignore:
            self._ignore.discard(rid)
            return False
        hedge = self._hedges.get(rid)
        if hedge is None:
            return True
        del self._hedges[rid]
        won = replica is hedge["target"]
        loser = hedge["primary"] if won else hedge["target"]
        if won:
            self.hedge_wins += 1
        else:
            self.hedge_cancels += 1
        self._tracer.add_span(
            "hedge.win" if won else "hedge.cancel", cat="health",
            start_s=now_s, end_s=now_s, rid=rid,
            completed_on=replica.index, cancelled_on=loser.index)
        if loser.active and not loser.cancel(hedge["request"]):
            # In flight (or already shed): swallow its completion if
            # one ever surfaces.
            self._ignore.add(rid)
        return True

    def plan_requeue(self, requests: List[Arrival]
                     ) -> Tuple[List[Arrival], List[Arrival]]:
        """Split an involuntary evacuation into ``(route, denied)``.

        A pending hedge's copy is skipped outright — its twin on the
        other replica still serves the rid — unless both copies are
        now dead, in which case the hedge resolves as a cancel and the
        request re-enters the (budgeted) requeue like any other.
        Requests the tenant budget refuses land in ``denied`` and are
        shed fleet-side under ``retry_budget_exhausted``.
        """
        route: List[Arrival] = []
        denied: List[Arrival] = []
        for request in requests:
            hedge = self._hedges.get(request.rid)
            if hedge is not None:
                hedge["dead"] += 1
                if hedge["dead"] < 2:
                    continue        # the other copy is still live
                del self._hedges[request.rid]
                self.hedge_cancels += 1
            if self.budget.allow(request.model):
                route.append(request)
            else:
                denied.append(request)
        return route, denied

    # -- end of run --------------------------------------------------------

    def finish(self) -> None:
        """Resolve anything still pending so the scorecard reconciles
        exactly: unresolved hedges (neither copy completed) count as
        cancels."""
        if self._hedges:
            self.hedge_cancels += len(self._hedges)
            self._hedges.clear()

    def scorecard(self) -> dict:
        """The resilience section of the cluster report (stable key
        order via sorted serialization in ``ClusterReport.to_dict``)."""
        return {
            "probes": self.probes,
            "detections": self.detections,
            "false_suspicions": self.false_suspicions,
            "crashes": self.crashes,
            "evictions": self.evictions,
            "kills_observed": self.kills_observed,
            "flap_downs": self.flap_downs,
            "restarts": self.restarts,
            "restarts_pending": self.restarts_pending,
            "restarts_denied": self.restarts_denied,
            "hedges_issued": self.hedges_issued,
            "hedge_wins": self.hedge_wins,
            "hedge_cancels": self.hedge_cancels,
            "hedges_denied": self.hedges_denied,
            "retry_budget": self.budget.to_dict(),
        }
