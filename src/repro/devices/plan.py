"""Heterogeneous-fleet capacity planning.

Answers the operator's question "which mix of devices serves this
workload within the SLO, cheapest first?" by sweeping fleet mixes
through the existing cluster simulator and SLO engine:

1. :func:`parse_fleet` turns a ``--fleet`` string
   (``k40c:4,maxwell:2``) into per-device *ceilings* — the most of
   each device the operator can provision;
2. :func:`enumerate_mixes` expands the ceilings into every non-empty
   mix (``k40c:4,maxwell:2`` → 14 candidates, from one lone ``k40c``
   up to the full fleet);
3. :func:`plan_capacity` runs each mix as a heterogeneous
   :class:`~repro.cluster.fleet.Cluster` over one shared arrival
   trace, evaluates the SLO rules over the mix's end-to-end snapshot,
   prices the mix from the profiles' ``cost_per_hour``, and ranks:
   passing mixes first, cheapest first (ties to lower p99, then fewer
   replicas).

Everything inherits the cluster's determinism: the trace is seeded,
each mix's run is a pure function of ``(trace, mix, seed)``, and
:meth:`CapacityPlan.to_dict` carries no wall-clock state — two
same-seed sweeps serialize byte-identically (the CI ``devices-smoke``
job diffs exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.hist import percentile, summarize
from ..obs.slo import SLOReport, SLORule, evaluate_slo
from ..serve.loadgen import Arrival, TrafficSpec, generate_trace
from ..serve.scheduler import ServerConfig
from .registry import get_profile

#: ``--workload`` names -> model mixes (:data:`MODEL_SHAPES` keys).
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "alexnet": ("AlexNet",),
    "vgg16": ("VGG",),
    "googlenet": ("GoogLeNet",),
    "mixed": ("AlexNet", "VGG", "GoogLeNet"),
}

#: Fleet mixes above this many total candidates are almost certainly a
#: typo (the sweep is a full cluster run per mix).
MAX_MIXES = 512


def parse_fleet(text: str) -> Tuple[Tuple[str, int], ...]:
    """Parse ``slug:count,slug:count`` into validated ceilings.

    Order is preserved (it decides slot order within a mix); slugs
    must name registered profiles; counts must be positive; a repeated
    slug is an error rather than a silent merge.
    """
    if not text or not text.strip():
        raise ValueError("empty fleet spec; expected e.g. 'k40c:4,maxwell:2'")
    ceilings: List[Tuple[str, int]] = []
    seen = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, count_s = part.partition(":")
        name = name.strip()
        if not sep:
            raise ValueError(f"fleet entry {part!r} is missing ':<count>' "
                             f"(expected e.g. 'k40c:4')")
        try:
            count = int(count_s)
        except ValueError:
            raise ValueError(f"fleet entry {part!r} has a non-integer "
                             f"count {count_s!r}") from None
        if count < 1:
            raise ValueError(f"fleet entry {part!r} must have count >= 1")
        profile = get_profile(name)     # raises KeyError on unknown slug
        if profile.name in seen:
            raise ValueError(f"device {profile.name!r} appears twice in "
                             f"the fleet spec")
        seen.add(profile.name)
        ceilings.append((profile.name, count))
    if not ceilings:
        raise ValueError("empty fleet spec; expected e.g. 'k40c:4,maxwell:2'")
    return tuple(ceilings)


def enumerate_mixes(ceilings: Sequence[Tuple[str, int]]
                    ) -> List[Tuple[Tuple[str, int], ...]]:
    """Every non-empty mix within the ceilings, in lexicographic count
    order.  Zero-count devices are dropped from the mix tuple."""
    names = [name for name, _ in ceilings]
    ranges = [range(0, count + 1) for _, count in ceilings]
    total = 1
    for r in ranges:
        total *= len(r)
    if total - 1 > MAX_MIXES:
        raise ValueError(f"fleet spec expands to {total - 1} mixes "
                         f"(limit {MAX_MIXES}); lower the ceilings")
    mixes = []
    for counts in product(*ranges):
        if not any(counts):
            continue
        mixes.append(tuple((name, c) for name, c in zip(names, counts)
                           if c > 0))
    return mixes


def mix_label(mix: Sequence[Tuple[str, int]]) -> str:
    return ",".join(f"{name}:{count}" for name, count in mix)


def mix_slots(mix: Sequence[Tuple[str, int]]) -> Tuple[str, ...]:
    """The per-slot device tuple a mix expands to."""
    slots: List[str] = []
    for name, count in mix:
        slots.extend([name] * count)
    return tuple(slots)


def mix_cost(mix: Sequence[Tuple[str, int]]) -> float:
    return sum(count * get_profile(name).cost_per_hour
               for name, count in mix)


@dataclass(frozen=True)
class FleetOption:
    """One simulated fleet mix with its verdict and price tag."""

    mix: Tuple[Tuple[str, int], ...]
    replicas: int
    cost_per_hour: float
    offered: int
    completed: int
    shed: int
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    slo: SLOReport

    @property
    def label(self) -> str:
        return mix_label(self.mix)

    @property
    def passed(self) -> bool:
        return self.slo.passed

    @property
    def completion_rate(self) -> float:
        return self.completed / self.offered if self.offered else 0.0

    def to_dict(self) -> dict:
        return {
            "mix": self.label,
            "devices": {name: count for name, count in self.mix},
            "replicas": self.replicas,
            "cost_per_hour": self.cost_per_hour,
            "offered": self.offered,
            "completed": self.completed,
            "completion_rate": self.completion_rate,
            "shed": self.shed,
            "latency_ms": {
                "p50": self.latency_p50_ms,
                "p95": self.latency_p95_ms,
                "p99": self.latency_p99_ms,
            },
            "slo": self.slo.to_dict(),
        }


@dataclass(frozen=True)
class CapacityPlan:
    """The ranked answer to one capacity question."""

    workload: str
    fleet_spec: str
    policy: str
    seed: int
    offered: int
    duration_s: float
    rate_rps: float
    options: Tuple[FleetOption, ...]   # ranked: passing cheapest first

    @property
    def best(self) -> Optional[FleetOption]:
        """The cheapest passing mix, or None when nothing passes."""
        return self.options[0] if self.options and self.options[0].passed \
            else None

    def to_dict(self) -> dict:
        best = self.best
        return {
            "workload": self.workload,
            "fleet_spec": self.fleet_spec,
            "policy": self.policy,
            "seed": self.seed,
            "offered": self.offered,
            "duration_s": self.duration_s,
            "rate_rps": self.rate_rps,
            "best": best.label if best is not None else None,
            "options": [o.to_dict() for o in self.options],
        }

    def render(self) -> str:
        lines = [
            f"capacity plan: workload {self.workload}, fleet ceilings "
            f"{self.fleet_spec}, policy {self.policy}",
            f"traffic: {self.offered} arrivals over {self.duration_s:.1f} s "
            f"(~{self.rate_rps:.0f} req/s, seed {self.seed})",
            f"{'mix':24s} {'n':>3s} {'$/h':>7s} {'compl':>7s} "
            f"{'p99 ms':>9s}  verdict",
        ]
        for o in self.options:
            verdict = "PASS" if o.passed else (
                "FAIL " + ",".join(v.rule.name for v in o.slo.failing))
            lines.append(
                f"{o.label:24s} {o.replicas:3d} {o.cost_per_hour:7.2f} "
                f"{o.completion_rate * 100:6.1f}% "
                f"{o.latency_p99_ms:9.2f}  {verdict}")
        best = self.best
        if best is not None:
            lines.append(f"recommendation: {best.label} — cheapest mix "
                         f"meeting every rule at "
                         f"{best.cost_per_hour:.2f} $/h")
        else:
            lines.append("recommendation: none — no mix within the "
                         "ceilings meets the SLO; raise them or relax "
                         "the rules")
        return "\n".join(lines)


def _fleet_snapshot(cluster, offered: int) -> Tuple[dict, List[float]]:
    """End-to-end fleet snapshot for the SLO rules, shaped like a
    registry snapshot: cumulative counters plus full-run latency and
    queue-wait histograms gathered from every replica's served
    requests."""
    latencies: List[float] = []
    waits: List[float] = []
    for replica in cluster.replicas:
        stats = replica.server.stats
        if stats is None:
            continue
        for request, start_s, finish_s in stats.served():
            latencies.append(finish_s - request.t_s)
            waits.append(start_s - request.t_s)
    snapshot = {
        "counters": {
            "serve_requests_offered_total": float(offered),
            "serve_requests_completed_total": float(len(latencies)),
        },
        "histograms": {
            "serve_latency_seconds": summarize(latencies),
            "serve_queue_wait_seconds": summarize(waits),
        },
    }
    return snapshot, latencies


def evaluate_mix(mix: Tuple[Tuple[str, int], ...],
                 trace: Sequence[Arrival],
                 rules: Tuple[SLORule, ...],
                 server: ServerConfig,
                 policy: str,
                 seed: int) -> FleetOption:
    """Run one mix over ``trace`` and score it against ``rules``."""
    # Deferred: repro.cluster imports this package's registry, so a
    # top-level import back would cycle.
    from ..cluster.fleet import Cluster, ClusterConfig
    slots = mix_slots(mix)
    config = ClusterConfig(replicas=len(slots), policy=policy,
                           server=server, seed=seed, devices=slots)
    cluster = Cluster(config)
    cluster.run(trace)
    offered = len(trace)
    snapshot, latencies = _fleet_snapshot(cluster, offered)
    completed = len(latencies)
    latencies.sort()
    label = mix_label(mix)
    return FleetOption(
        mix=mix,
        replicas=len(slots),
        cost_per_hour=mix_cost(mix),
        offered=offered,
        completed=completed,
        shed=offered - completed,
        latency_p50_ms=percentile(latencies, 50) * 1000,
        latency_p95_ms=percentile(latencies, 95) * 1000,
        latency_p99_ms=percentile(latencies, 99) * 1000,
        slo=evaluate_slo(snapshot, rules, source=label),
    )


def plan_capacity(fleet: str,
                  rules: Tuple[SLORule, ...],
                  workload: str = "mixed",
                  duration_s: float = 5.0,
                  rate_rps: float = 500.0,
                  pattern: str = "poisson",
                  policy: str = "device-affinity",
                  seed: int = 0,
                  server: Optional[ServerConfig] = None) -> CapacityPlan:
    """Sweep every mix within the ``fleet`` ceilings and rank them.

    One arrival trace is generated for the workload and shared by
    every mix, so options differ only in the fleet serving it.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"options: {', '.join(sorted(WORKLOADS))}")
    ceilings = parse_fleet(fleet)
    spec = TrafficSpec(duration_s=duration_s, rate_rps=rate_rps,
                       pattern=pattern, seed=seed,
                       models=WORKLOADS[workload])
    trace = generate_trace(spec)
    base = server if server is not None else ServerConfig()
    options = [evaluate_mix(mix, trace, rules, base, policy, seed)
               for mix in enumerate_mixes(ceilings)]
    # Passing mixes first, cheapest first; ties to lower p99, then
    # smaller fleets, then the label (total order => deterministic).
    options.sort(key=lambda o: (not o.passed, o.cost_per_hour,
                                o.latency_p99_ms, o.replicas, o.label))
    return CapacityPlan(
        workload=workload,
        fleet_spec=mix_label(ceilings),
        policy=policy,
        seed=seed,
        offered=len(trace),
        duration_s=duration_s,
        rate_rps=rate_rps,
        options=tuple(options),
    )
