"""Pluggable request routing for the serving fleet.

The router picks a replica for every arriving request, considering
only *routable* replicas (alive, not draining).  Four policies, all
deterministic — two runs with the same seed make the same sequence of
decisions, which is what the cluster determinism tests assert:

* ``round-robin`` — a rotating cursor over the routable set.  The
  baseline: fair by count, blind to load and cache state.
* ``least-loaded`` — the replica with the smallest
  ``(queue depth, busy seconds)`` load tuple; ties break on the
  lowest index.  A full-information policy real routers approximate.
* ``p2c`` — power of two choices: draw two distinct replicas from a
  seeded RNG, send to the less loaded.  Near-least-loaded balance at
  O(1) cost (the classic Mitzenmacher result), and the only policy
  that consumes randomness — from its own generator, so routing
  noise never perturbs a fault plan's RNG stream or vice versa.
* ``shape-affinity`` — pin each layer shape to the replica that first
  served it (chosen least-loaded at first sight), so repeated shapes
  land on warm plan caches.  Exploits the plan cache's
  ``(shape, batch, device)`` keying: a shape's plans are ranked once
  per replica, then every later request of that shape is a cache hit
  — the test suite asserts this beats round-robin's hit rate on a
  many-shape trace.  Pins move (least-loaded again) when their
  replica drains or dies.
* ``device-affinity`` — shape-affinity for heterogeneous fleets: the
  first sight of a shape ranks the fleet's *distinct devices* through
  the shared advisor and pins the shape to the winning device's
  least-loaded replica.  On a homogeneous fleet (or without an
  advisor) every choice degrades to shape-affinity's least-loaded
  first sight, decision for decision.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..rng import make_rng
from ..serve.loadgen import Arrival
from ..serve.request import ShapeKey, batched_config
from .replica import Replica

#: Router policy names accepted by :func:`make_policy` and the CLI.
POLICIES = ("round-robin", "least-loaded", "p2c", "shape-affinity",
            "device-affinity")


def _least_loaded(replicas: Sequence[Replica], now_s: float) -> Replica:
    """Smallest load tuple, ties to the lowest index (deterministic)."""
    return min(replicas, key=lambda r: (r.load(now_s), r.index))


class RoutingPolicy:
    """Base: choose one replica from a non-empty routable set."""

    name = "abstract"

    def choose(self, replicas: Sequence[Replica], request: Arrival,
               now_s: float) -> Replica:
        raise NotImplementedError


class RoundRobin(RoutingPolicy):
    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, replicas: Sequence[Replica], request: Arrival,
               now_s: float) -> Replica:
        chosen = replicas[self._cursor % len(replicas)]
        self._cursor += 1
        return chosen


class LeastLoaded(RoutingPolicy):
    name = "least-loaded"

    def choose(self, replicas: Sequence[Replica], request: Arrival,
               now_s: float) -> Replica:
        return _least_loaded(replicas, now_s)


class PowerOfTwo(RoutingPolicy):
    """Two seeded draws, keep the less loaded (ties to lower index)."""

    name = "p2c"

    def __init__(self, seed: int) -> None:
        self._rng = make_rng(seed)

    def choose(self, replicas: Sequence[Replica], request: Arrival,
               now_s: float) -> Replica:
        n = len(replicas)
        if n == 1:
            return replicas[0]
        i = int(self._rng.integers(n))
        j = int(self._rng.integers(n - 1))
        if j >= i:
            j += 1
        return _least_loaded([replicas[i], replicas[j]], now_s)


class ShapeAffinity(RoutingPolicy):
    name = "shape-affinity"

    def __init__(self) -> None:
        #: shape -> pinned replica index.
        self.pins: Dict[ShapeKey, int] = {}

    def choose(self, replicas: Sequence[Replica], request: Arrival,
               now_s: float) -> Replica:
        pinned = self.pins.get(request.key)
        if pinned is not None:
            for r in replicas:
                if r.index == pinned:
                    return r
        chosen = _least_loaded(replicas, now_s)
        self.pins[request.key] = chosen.index
        return chosen


class DeviceAffinity(RoutingPolicy):
    """Shape-affinity that ranks the fleet's *devices* per shape.

    First sight of a shape asks the shared advisor to rank each
    distinct device present among the eligible replicas (at batch 1 —
    a shape proxy; the per-replica plan cache still ranks the real
    padded batch at dispatch) and pins the shape to the winning
    device's least-loaded replica.  The device ranking is memoized per
    ``(shape, devices-present)``, so fleet-membership changes (drains,
    deaths, scale-ups) re-rank deterministically while the common case
    costs one dict lookup.  Without an advisor, or when every eligible
    replica runs the same device, this is exactly shape-affinity.
    """

    name = "device-affinity"

    def __init__(self, advisor=None) -> None:
        self._advisor = advisor
        #: shape -> pinned replica index (as in shape-affinity).
        self.pins: Dict[ShapeKey, int] = {}
        #: (shape, sorted device names) -> device names, fastest first.
        self._rankings: Dict[Tuple[ShapeKey, Tuple[str, ...]],
                             Tuple[str, ...]] = {}

    def _rank_devices(self, key: ShapeKey,
                      replicas: Sequence[Replica]) -> Tuple[str, ...]:
        specs = {}
        for r in replicas:
            device = r.server.config.device
            specs.setdefault(device.name, device)
        present = tuple(sorted(specs))
        cached = self._rankings.get((key, present))
        if cached is not None:
            return cached
        config = batched_config(key, 1)
        timed = []
        for name in present:
            plan = self._advisor.plan(config, device=specs[name])
            timed.append((plan.time_s if plan is not None else float("inf"),
                          name))
        ranking = tuple(name for _, name in sorted(timed))
        self._rankings[(key, present)] = ranking
        return ranking

    def choose(self, replicas: Sequence[Replica], request: Arrival,
               now_s: float) -> Replica:
        pinned = self.pins.get(request.key)
        if pinned is not None:
            for r in replicas:
                if r.index == pinned:
                    return r
        chosen = None
        if self._advisor is not None:
            for name in self._rank_devices(request.key, replicas):
                members = [r for r in replicas
                           if r.server.config.device.name == name]
                if members:
                    chosen = _least_loaded(members, now_s)
                    break
        if chosen is None:
            chosen = _least_loaded(replicas, now_s)
        self.pins[request.key] = chosen.index
        return chosen


def make_policy(name: str, seed: int, advisor=None) -> RoutingPolicy:
    """Instantiate a policy by name.  ``seed`` feeds ``p2c`` only;
    ``advisor`` feeds ``device-affinity`` only (the cluster passes its
    shared advisor so device rankings draw on the fleet-wide
    evaluation cache)."""
    if name == "round-robin":
        return RoundRobin()
    if name == "least-loaded":
        return LeastLoaded()
    if name == "p2c":
        return PowerOfTwo(seed)
    if name == "shape-affinity":
        return ShapeAffinity()
    if name == "device-affinity":
        return DeviceAffinity(advisor)
    raise KeyError(f"unknown routing policy {name!r}; "
                   f"options: {', '.join(POLICIES)}")


class Router:
    """Applies a policy to the current routable set and keeps the
    routing ledger.

    ``obs`` is the *fleet* observability context: per-replica routed
    counts land in ``cluster_routed_total{replica=...}`` and a request
    finding no routable replica increments
    ``cluster_no_replica_total`` (the cluster sheds it under the
    ``no_replica`` cause).  With ``record_decisions`` on, every
    ``(rid, replica index)`` pair is kept — the determinism tests
    compare these sequences between same-seed runs.
    """

    def __init__(self, policy: RoutingPolicy, obs,
                 record_decisions: bool = False):
        self.policy = policy
        self._obs = obs
        self.routed: Dict[int, int] = {}
        self._routed_total: Dict[int, object] = {}
        self.no_replica = 0
        self.decisions: Optional[List[Tuple[int, int]]] = \
            [] if record_decisions else None

    def route(self, request: Arrival, replicas: Sequence[Replica],
              now_s: float) -> Optional[Replica]:
        """Pick a routable replica for ``request``; ``None`` when the
        whole fleet is down or draining."""
        eligible = [r for r in replicas if r.routable]
        if not eligible:
            self.no_replica += 1
            self._obs.registry.counter("cluster_no_replica_total").inc()
            self._obs.tracer.event("router.no_replica", rid=request.rid)
            return None
        chosen = self.policy.choose(eligible, request, now_s)
        self.routed[chosen.index] = self.routed.get(chosen.index, 0) + 1
        counter = self._routed_total.get(chosen.index)
        if counter is None:
            counter = self._routed_total[chosen.index] = \
                self._obs.registry.counter("cluster_routed_total",
                                           replica=str(chosen.index))
        counter.inc()
        if self.decisions is not None:
            self.decisions.append((request.rid, chosen.index))
        return chosen
