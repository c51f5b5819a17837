"""One member of a serving fleet.

A :class:`Replica` wraps a whole single-device serving stack — a
:class:`~repro.serve.scheduler.Server` with its own simulated GPU,
dynamic batcher, plan cache and (optionally) fault injector — behind
the small surface the cluster driver needs: admit a routed request,
advance the replica's work up to the fleet's global time, report how
busy it is, and hand back its queue when it is drained or killed.

Each replica owns a private virtual clock (the server's), a private
metrics registry (its :class:`~repro.serve.stats.ServingStats` is a
view over it) and, when tracing is on, a private
:class:`~repro.obs.tracer.SimTracer` whose span ids start at a
replica-specific offset so the fleet's tracers merge into one export
without collisions (see :data:`REPLICA_SID_STRIDE` and
:func:`repro.obs.export.cluster_chrome_trace`).

The clock protocol mirrors a busy device: a replica's clock runs
*ahead* of the fleet clock while a dispatched batch is executing
(:meth:`Replica.next_event_s`), and :meth:`Replica.poll` refuses to
release new work until the fleet clock catches up — which is exactly
what makes a one-replica cluster reproduce
:meth:`~repro.serve.scheduler.Server.run` decision for decision.
"""

from __future__ import annotations

from dataclasses import replace
from math import inf
from typing import List, Optional, Tuple

from ..faults import FaultPlan
from ..obs.context import Observability, obs_session
from ..obs.tracer import SimTracer, TraceSampler
from ..serve.loadgen import Arrival
from ..serve.scheduler import Server, ServerConfig
from ..serve.stats import StatsReport

#: Span-id block reserved per replica: replica ``i``'s tracer starts
#: at ``REPLICA_SID_STRIDE * (i + 1)``, leaving sids below the stride
#: to the fleet/router tracer.  Far larger than any run's span count.
REPLICA_SID_STRIDE = 10_000_000


class Replica:
    """One fleet member: a server plus its lifecycle state.

    Lifecycle: *active* (routable) → optionally *draining* (finishes
    in-flight work, queue handed back for re-routing, no new traffic)
    → *retired* (report frozen).  A *killed* replica retires
    immediately at the next batch boundary — completions its clock
    already recorded stand (the kill lands between batches, never
    mid-dispatch, keeping the timeline consistent).

    With the health plane attached two more states exist.  A *down*
    replica (crashed or mid-flap) has silently stopped serving: it
    stays formally active — traffic keeps queueing into it — until the
    failure detector notices the missing heartbeats.  A *suspected*
    replica is unrouted (``routable`` is False) but otherwise left
    alone: either a late heartbeat clears the suspicion or the
    supervisor :meth:`evict`\\ s it.  ``slot`` is the fleet position
    the replica occupies — its own index, or for a supervisor
    replacement the index of the original member it replaces — and
    ``incarnation`` counts restarts in that slot.
    """

    def __init__(self, index: int, config: ServerConfig,
                 advisor=None,
                 fault_plan: Optional[FaultPlan] = None,
                 fault_seed: Optional[int] = None,
                 tracing: bool = False,
                 trace_sample: int = 1,
                 slot: Optional[int] = None,
                 incarnation: int = 0):
        self.index = index
        self.name = f"replica{index}"
        self.slot = index if slot is None else slot
        self.incarnation = incarnation
        self.down = False
        self.suspected = False
        # The fleet monitor owns SLO evaluation; a per-replica monitor
        # would double-count violations on the merged timeline.  Same
        # for telemetry: FleetTelemetry registers this replica's
        # registry and caches itself, so a server-side pipeline would
        # double-ingest.
        config = replace(config, slo=None, telemetry=None)
        obs = Observability()
        self.server = Server(config, advisor=advisor,
                             fault_plan=fault_plan, fault_seed=fault_seed,
                             obs=obs)
        if tracing:
            first_sid = REPLICA_SID_STRIDE * (index + 1)
            obs.tracer = (TraceSampler(self.server.clock, trace_sample,
                                       first_sid=first_sid)
                          if trace_sample > 1 else
                          SimTracer(self.server.clock, first_sid=first_sid))
        self.tracer = obs.tracer
        self.alive = True
        self.draining = False
        self.drain_started_s: Optional[float] = None
        self.started_s = 0.0
        self.retired_s: Optional[float] = None
        self.outcome = "ran"
        self.report: Optional[StatsReport] = None
        self._root_span = None
        #: Handed a request since the last poll.
        self.new_work = False
        #: The batcher's oldest-lane verdict at the last poll or cancel.
        self.release_s = inf
        self.full = False

    # -- queries -----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Still doing work (alive and not yet retired)."""
        return self.alive and self.report is None

    @property
    def routable(self) -> bool:
        """Eligible to receive new traffic from the router.  A *down*
        replica stays routable until the detector suspects it — the
        fleet cannot route around a death it has not observed."""
        return self.active and not self.draining and not self.suspected

    @property
    def queue_depth(self) -> int:
        return len(self.server.queue) if self.server.queue is not None else 0

    @property
    def device_name(self) -> str:
        """Display name of the device this replica simulates."""
        return self.server.config.device.name

    @property
    def state(self) -> str:
        """One-word lifecycle state for telemetry rollups: the live
        states (``down`` / ``suspected`` / ``draining`` / ``active``)
        while serving, the retirement outcome afterwards."""
        if not self.active:
            return self.outcome
        if self.down:
            return "down"
        if self.suspected:
            return "suspected"
        if self.draining:
            return "draining"
        return "active"

    def next_event_s(self, now_s: float) -> float:
        """Batch end while busy, else (unless down) the next release."""
        busy = self.server.clock._now
        return (busy if busy > now_s
                else inf if self.down else self.release_s)

    def load(self, now_s: float) -> Tuple[int, float]:
        """Routing load: (queued requests, busy seconds remaining).
        Compared lexicographically; ties break on replica index."""
        busy = self.server.clock.now_s - now_s
        return (self.queue_depth, busy if busy > 0 else 0.0)

    # -- lifecycle ---------------------------------------------------------

    def begin(self, now_s: float) -> "Replica":
        """Join the fleet at simulated time ``now_s``."""
        self.started_s = now_s
        with obs_session(self.server.obs):
            self.server.clock.advance_to(now_s)
        self.server.begin()
        if self.tracer.enabled:
            self._root_span = self.tracer.span("replica.run", cat="cluster",
                                               replica=self.index,
                                               device=self.server.config
                                               .device.name)
            self._root_span.__enter__()
        return self

    def admit(self, request: Arrival) -> bool:
        """Offer one routed request to this replica's admission queue."""
        self.new_work = True
        return self.server.admit((request,)) == 1

    def poll(self, now_s: float, drain: bool = False) -> bool:
        """Advance this replica's serving loop up to fleet time
        ``now_s``; returns whether it dispatched a batch.

        A replica whose clock is ahead is mid-batch: it does nothing
        until the fleet clock catches up, so every arrival routed in
        the meantime is queued before the next release decision —
        the same order :meth:`Server.run` produces on one device.
        ``drain`` releases partial batches immediately (no arrivals
        left anywhere in the fleet).  The fleet loop polls only when
        :meth:`catch_up` says a poll is due; any other poll is a no-op.

        A *down* replica does nothing at all — its private clock
        freezes where the crash left it, so when (if) it recovers from
        a flap, the first poll catches the clock up and sheds whatever
        expired while it was dead.
        """
        if not self.active or self.down:
            return False
        clock = self.server.clock
        if clock.now_s > now_s:
            return False                # busy until clock.now_s
        dispatched = False
        with obs_session(self.server.obs):
            clock.advance_to(now_s)
            self.server.shed_expired()
            while self.server.pump(drain=drain or self.draining):
                dispatched = True
                if clock.now_s > now_s:
                    break               # ran past the horizon; now busy
                self.server.shed_expired()
        self.new_work = False
        self._refresh_due()
        return dispatched

    def catch_up(self, now_s: float, drain: bool = False) -> bool:
        """Whether a :meth:`poll` at fleet time ``now_s`` is due: the
        replica is up and idle, and it got new work, its oldest lane is
        releasable, a queued deadline passed, or partial batches go out
        now (``drain``; a draining replica has an empty queue).
        Otherwise an idle replica just moves its clock to ``now_s``,
        where a poll would leave it: later events keep their stamps,
        and clock-driven faults fire under this replica's observability."""
        clock = self.server.clock
        t = clock._now
        if self.down or t > now_s:
            return False
        if (self.new_work or self.full or now_s >= self.release_s or drain
                or now_s > self.server.queue._min_deadline):
            return True
        if t < now_s and clock.observed:
            with obs_session(self.server.obs):
                clock.advance_to(now_s)
        elif t < now_s:
            clock.advance_to(now_s)
        return False

    def _refresh_due(self) -> None:
        batcher, queue = self.server.batcher, self.server.queue
        self.release_s = batcher.release_at(queue)
        self.full = batcher.oldest_full(queue)

    def cancel(self, request: Arrival) -> bool:
        """Unqueue a hedge's losing copy; ``False`` if not queued."""
        if self.server.queue.remove(request.key, request.rid) is None:
            return False
        self.server.stats.record_shed("hedge_cancelled", 1)
        self._refresh_due()
        return True

    def start_drain(self, now_s: float) -> List[Arrival]:
        """Stop accepting traffic and hand back the queued requests.

        The requests are *requeued*, not shed: they go back to the
        router for re-routing (counted under the ``requeued`` cause in
        this replica's :attr:`~repro.serve.stats.StatsReport
        .shed_by_cause`, deliberately excluded from its shed rate —
        they complete elsewhere).  In-flight batches finish; the
        cluster retires the replica once it goes idle.
        """
        self.draining = True
        self.drain_started_s = now_s
        evacuated = self.server.queue.drain(for_requeue=True)
        if evacuated:
            self.server.stats.record_shed("requeued", len(evacuated))
            self.tracer.event("replica.drain", replica=self.index,
                              requeued=len(evacuated))
        return evacuated

    def kill(self, now_s: float) -> List[Arrival]:
        """Fail the replica at the next batch boundary.

        Queued requests are handed back for re-routing exactly as in
        :meth:`start_drain`; the report is frozen immediately.
        """
        evacuated = self.server.queue.drain(for_requeue=True)
        if evacuated:
            self.server.stats.record_shed("requeued", len(evacuated))
        self.tracer.event("replica.killed", replica=self.index,
                          requeued=len(evacuated))
        self.alive = False
        self.retire(max(now_s, self.server.clock.now_s), outcome="killed")
        return evacuated

    def evict(self, now_s: float, outcome: str = "crashed") -> List[Arrival]:
        """Supervisor eviction: the health plane gave up on this
        replica (``outcome='crashed'`` when it is actually down,
        ``'evicted'`` for a responsive replica evicted on a false
        suspicion that crossed the eviction threshold).

        Mechanically a :meth:`kill`, but reached by *observation* —
        missed heartbeats — rather than by a schedule, and typically
        long after the actual death: everything queued in the
        meantime is only now evacuated for (budgeted) re-routing.
        """
        evacuated = self.server.queue.drain(for_requeue=True)
        if evacuated:
            self.server.stats.record_shed("requeued", len(evacuated))
        self.tracer.event("replica.evicted", replica=self.index,
                          requeued=len(evacuated))
        self.alive = False
        self.retire(max(now_s, self.server.clock.now_s), outcome=outcome)
        return evacuated

    def retire(self, now_s: float, outcome: str = "ran") -> StatsReport:
        """Freeze the replica's report at ``now_s`` (idempotent)."""
        if self.report is not None:
            return self.report
        self.outcome = outcome
        self.retired_s = now_s
        with obs_session(self.server.obs):
            self.server.clock.advance_to(now_s)
            self.report = self.server.finish()
        if self._root_span is not None:
            self._root_span.annotate(outcome=outcome)
            self._root_span.__exit__(None, None, None)
            self._root_span = None
        return self.report
