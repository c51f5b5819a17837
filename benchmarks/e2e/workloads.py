"""The four workloads, each driven through the program's public API.

A workload builds its inputs from a seed in :meth:`setup`, which also
runs any warm-up, then repeats :meth:`run_once`.  :meth:`before_rep`
is the untimed reset a repetition starts from.  ``run_once`` returns
an :class:`Outcome`: one result string per operation (compared with
the first repetition's, so any drift is a failure), the operations
that broke an identity the program's reports claim, and the simulated
outcomes and counters the traced run reports.

Nothing here changes the program; it only calls it.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import spec
from repro.cluster import Cluster, ClusterConfig, HealthConfig
from repro.config import ConvConfig
from repro.core import evalcache
from repro.core.advisor import Advisor
from repro.core.full_report import generate_report
from repro.faults import named_fleet_plan
from repro.gpusim import memo
from repro.obs.timeseries import TelemetryConfig
from repro.serve import Server, ServerConfig
from repro.serve.loadgen import TrafficSpec, generate_trace


@dataclass
class Outcome:
    """What one repetition produced."""

    #: One result per operation; repetition 1's list is the reference.
    results: List[str]
    #: Indices of operations that broke a report identity.
    broken: List[int] = field(default_factory=list)
    #: Per-operation host latency, ms (None: the repetition is the
    #: operation, timed by the caller).
    latencies_ms: Optional[List[float]] = None
    #: sim_* metrics (serve and fleet only).
    sim: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific exact counters (names from spec.COUNTERS).
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return sha256("\n".join(self.results))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(doc: dict) -> str:
    return sha256(json.dumps(doc, sort_keys=True))


def clear_caches() -> None:
    """Cold start: drop the gpusim memo tables and the shared
    evaluation cache (their counters reset too)."""
    memo.clear_all()
    evalcache.reset_cache()


class Figures:
    """``repro report``: regenerate every figure and table, caches
    cold, because a reproducer pays the cold cost on every run."""

    name = "figures"

    def __init__(self, seed: int, size: dict):
        self.experiments = size["experiments"]
        self.extensions = size["extensions"]

    def setup(self) -> None:
        pass

    def before_rep(self) -> None:
        clear_caches()

    def run_once(self) -> Outcome:
        text = generate_report(
            include_extensions=self.extensions,
            experiments=(list(self.experiments)
                         if self.experiments is not None else None))
        # Section timings are host wall time, not output.
        stable = "\n".join(line for line in text.splitlines()
                           if not line.startswith("_regenerated in "))
        return Outcome(results=[sha256(stable)])


class Advise:
    """Rank all seven implementations for distinct configurations:
    the evaluation-cache miss (write) path."""

    name = "advise"

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.queries = size["queries"]
        self.configs: List[ConvConfig] = []
        self.advisor: Optional[Advisor] = None

    def setup(self) -> None:
        axes = spec.ADVISE_SPACE
        rng = random.Random(self.seed)
        seen = set()
        while len(self.configs) < self.queries:
            point = tuple(rng.choice(axes[k]) for k in axes)
            if point not in seen:
                seen.add(point)
                self.configs.append(ConvConfig(**dict(zip(axes, point))))
        self.advisor = Advisor()

    def before_rep(self) -> None:
        clear_caches()

    def run_once(self) -> Outcome:
        evaluate = self.advisor.evaluate
        clock = time.perf_counter
        results, latencies, broken = [], [], []
        for i, config in enumerate(self.configs):
            start = clock()
            candidates = evaluate(config)
            latencies.append((clock() - start) * 1000.0)
            if len(candidates) != spec.ADVISE_CANDIDATES:
                broken.append(i)
            results.append(repr([(c.implementation, c.time_s,
                                  c.peak_memory_bytes, c.supported,
                                  c.fits_memory) for c in candidates]))
        return Outcome(results=results, broken=broken, latencies_ms=latencies)


def _serving_counters(reports, memo_stats) -> Dict[str, float]:
    """Batch and dispatch-memo counters summed over server reports."""
    batches = sum(sum(r.batch_histogram.values()) for r in reports)
    filled = sum(r.mean_batch_fill * sum(r.batch_histogram.values())
                 for r in reports)
    hits = sum(s["hits"] for s in memo_stats if s)
    misses = sum(s["misses"] for s in memo_stats if s)
    return {
        "serve.batches": batches,
        "serve.batch_fill": filled / batches if batches else 0.0,
        "serve.dispatch_memo.hit_rate":
            hits / (hits + misses) if hits + misses else 0.0,
    }


def _sim(report) -> Dict[str, float]:
    return {
        "sim_throughput_rps": report.throughput_rps,
        "sim_p99_ms": report.latency_p99_ms,
        "sim_goodput_frac": report.completed / report.offered,
    }


class Serve:
    """One server under saturating Poisson load (the untraced fast
    lane; the evaluation and plan caches are warm, so reads)."""

    name = "serve"

    def __init__(self, seed: int, size: dict):
        self.traffic = TrafficSpec(duration_s=size["duration_s"],
                                   rate_rps=size["rate_rps"], seed=seed)
        self.trace = []

    def setup(self) -> None:
        self.trace = generate_trace(self.traffic)
        self.run_once()

    def before_rep(self) -> None:
        pass

    def run_once(self) -> Outcome:
        server = Server(ServerConfig())
        report = server.run(self.trace)
        shed = sum(report.shed_by_cause.values())
        ok = report.offered == len(self.trace) == report.completed + shed
        counters = _serving_counters([report],
                                     [server.dispatch_memo_stats()])
        counters["serve.plan_cache.hit_rate"] = report.plan_cache["hit_rate"]
        return Outcome(results=[_report_digest(report.to_dict())],
                       broken=[] if ok else [0], sim=_sim(report),
                       counters=counters)


class Fleet:
    """Four replicas, least-loaded routing, the fleet-chaos fault plan
    (crashes, a degrade, a domain outage), hedging, telemetry and
    sampled tracing: the observed, failing fleet."""

    name = "fleet"

    def __init__(self, seed: int, size: dict):
        self.traffic = TrafficSpec(duration_s=size["duration_s"],
                                   rate_rps=size["rate_rps"], seed=seed)
        self.replicas = size["replicas"]
        self.warmup_s = size["warmup_s"]
        self.config = ClusterConfig(
            replicas=self.replicas, policy="least-loaded",
            health=HealthConfig(hedge_after_s=0.02),
            fleet_fault_plan=named_fleet_plan(
                "fleet-chaos", duration_s=size["duration_s"],
                replicas=self.replicas),
            telemetry=TelemetryConfig(window_s=0.25))
        self.trace = []

    def setup(self) -> None:
        self.trace = generate_trace(self.traffic)
        self._run([a for a in self.trace if a.t_s < self.warmup_s])

    def before_rep(self) -> None:
        pass

    def _run(self, trace):
        cluster = Cluster(self.config)
        cluster.enable_tracing(sample=10)
        return cluster, cluster.run(trace)

    def run_once(self) -> Outcome:
        cluster, report = self._run(self.trace)
        health = report.health
        ok = (report.offered == len(self.trace)
              and health["crashes"] == (health["restarts"]
                                        + health["restarts_pending"]
                                        + health["restarts_denied"])
              and health["hedges_issued"] == (health["hedge_wins"]
                                              + health["hedge_cancels"]))
        counters = _serving_counters(
            [r.report for r in cluster.replicas],
            [r.server.dispatch_memo_stats() for r in cluster.replicas])
        counters.update({
            "serve.plan_cache.hit_rate": report.plan_cache["hit_rate"],
            "cluster.requeued": report.requeued,
            "cluster.hedges_issued": health["hedges_issued"],
            "cluster.restarts": health["restarts"],
            "cluster.probes": health["probes"],
            "obs.spans": cluster.obs.tracer.span_count() + sum(
                t.span_count() for _, t in cluster.replica_tracers),
            "obs.windows": report.telemetry["windows"],
        })
        return Outcome(results=[_report_digest(report.to_dict())],
                       broken=[] if ok else [0], sim=_sim(report),
                       counters=counters)


WORKLOAD_CLASSES = {cls.name: cls for cls in (Figures, Advise, Serve, Fleet)}


def make(name: str, seed: int, size: str = "full"):
    """Build a workload by name at a declared size."""
    return WORKLOAD_CLASSES[name](seed, spec.SIZES[size][name])
