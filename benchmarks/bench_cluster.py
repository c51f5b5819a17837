"""Fleet serving benchmark (and CI determinism/recovery gate).

Two scenarios over seeded traffic on a four-replica fleet:

* **policy comparison** — the same ≥100k-request trace (quick mode
  shrinks it) served once under each routing policy.  Shape-affinity
  must beat round-robin on fleet plan-cache hit rate (the point of the
  policy), and a same-seed re-run under the baseline policy must
  produce a byte-identical report digest — the determinism gate.
* **autoscaler recovery** — one replica under rate-4000 traffic it
  cannot sustain, with the 30 ms p99 rule and the autoscaler attached.
  The gate requires the SLO to be violated, the fleet to grow, and the
  violation to be *recovered* by the end of the run.

Run as a script (``python benchmarks/bench_cluster.py``) it writes
``benchmarks/results/BENCH_cluster.json`` plus the rendered
``cluster_policies.txt`` and exits non-zero on any gate failure.  It
first reads the report digests recorded in the artifact (or in
``cluster_million_chaos.json`` under ``--million``): when the recorded
run used the same workload, every digest must come out unchanged — the
same-seed gate that lets the fleet loop be rewritten safely.  The
artifacts are written only when none exists or the recorded workload
differs: a run that fails a gate leaves them untouched, and so does one
that reproduces the recorded digests (it prints its fresh host wall
times instead).  Re-baselining, new host walls included, is a
deliberate act: delete the artifact, then run.  ``--quick`` runs a
smaller workload through the other gates and writes nothing.
Under pytest it runs in quick mode, asserts the same gates and writes
nothing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

REPLICAS = 4

#: Hard host-time ceiling for the quick (CI) run.  The fast-path work
#: brought the whole quick benchmark to a few seconds; the budget is
#: deliberately generous for slow CI hosts but fails loudly long
#: before the bench slides back to minutes.
QUICK_WALL_BUDGET_S = 30.0


def _digest(report) -> str:
    import hashlib

    blob = json.dumps(report.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_policy_comparison(duration_s: float, rate_rps: float) -> dict:
    from repro.cluster import POLICIES, ClusterConfig, serve_cluster
    from repro.serve import TrafficSpec, generate_trace

    spec = TrafficSpec(duration_s=duration_s, rate_rps=rate_rps, seed=7)
    trace = generate_trace(spec)
    policies = {}
    for policy in POLICIES:
        t0 = time.perf_counter()
        report = serve_cluster(trace, ClusterConfig(
            replicas=REPLICAS, policy=policy))
        policies[policy] = {
            "throughput_rps": round(report.throughput_rps, 1),
            "latency_p50_ms": round(report.latency_p50_ms, 3),
            "latency_p99_ms": round(report.latency_p99_ms, 3),
            "completion_rate": round(report.completion_rate, 4),
            "plan_cache_hit_rate":
                round(report.plan_cache["hit_rate"], 4),
            "routed": [r.routed for r in report.replicas],
            "digest": _digest(report),
            "host_wall_s": round(time.perf_counter() - t0, 3),
        }
    rerun = serve_cluster(trace, ClusterConfig(
        replicas=REPLICAS, policy="round-robin"))
    return {
        "workload": {"duration_s": duration_s, "rate_rps": rate_rps,
                     "seed": spec.seed, "arrivals": len(trace),
                     "replicas": REPLICAS},
        "policies": policies,
        "rerun_digest_matches":
            _digest(rerun) == policies["round-robin"]["digest"],
    }


def run_autoscale_recovery(duration_s: float = 2.0,
                           rate_rps: float = 4000.0) -> dict:
    from repro.cluster import (AutoscalePolicy, ClusterConfig,
                               serve_cluster)
    from repro.obs.slo import SLOPolicy, SLORule
    from repro.serve import TrafficSpec, generate_trace

    trace = generate_trace(TrafficSpec(duration_s=duration_s,
                                       rate_rps=rate_rps, seed=11))
    report = serve_cluster(trace, ClusterConfig(
        replicas=1, policy="least-loaded",
        slo=SLOPolicy(rules=(SLORule(name="p99", kind="latency_p99",
                                     threshold=0.03),), window_s=0.05),
        window_s=0.25,
        autoscale=AutoscalePolicy(min_replicas=1, max_replicas=4,
                                  cooldown_s=0.5)))
    return {
        "workload": {"duration_s": duration_s, "rate_rps": rate_rps,
                     "seed": 11, "arrivals": len(trace)},
        "violations": report.slo_violations,
        "recoveries": report.slo_recoveries,
        "in_violation_at_end": report.slo_in_violation,
        "scale_ups": report.scale_ups,
        "replicas_peak": report.replicas_peak,
        "latency_p99_ms": round(report.latency_p99_ms, 3),
        "actions": list(report.autoscale_actions),
    }


def run_million_chaos(duration_s: float = 50.0,
                      rate_rps: float = 20000.0) -> dict:
    """A million-request fleet trace with a mid-run correlated domain
    failure: an eight-replica fleet in two racks, rack0 (half the
    fleet) dying at 40% of the run, the health plane detecting,
    evacuating and restarting all four members while hedging defends
    the tail.  The archived artifact records the scorecard and a
    sha256 digest of the full report — the acceptance-scale
    self-healing run."""
    from repro.cluster import ClusterConfig, HealthConfig, serve_cluster
    from repro.faults import DomainFailureSpec, FleetFaultPlan
    from repro.serve import TrafficSpec, generate_trace

    replicas = 8
    fail_at = round(duration_s * 0.4, 3)
    plan = FleetFaultPlan(
        name="rack0-outage",
        domains={"rack0": tuple(range(replicas // 2)),
                 "rack1": tuple(range(replicas // 2, replicas))},
        domain_failures=(DomainFailureSpec(domain="rack0", at_s=fail_at),))
    spec = TrafficSpec(duration_s=duration_s, rate_rps=rate_rps, seed=13)
    trace = generate_trace(spec)
    config = ClusterConfig(
        replicas=replicas, policy="least-loaded", seed=spec.seed,
        health=HealthConfig(hedge_after_s=0.02),
        fleet_fault_plan=plan)
    t0 = time.perf_counter()
    report = serve_cluster(trace, config)
    wall = time.perf_counter() - t0
    score = report.health
    return {
        "workload": {"duration_s": duration_s, "rate_rps": rate_rps,
                     "seed": spec.seed, "arrivals": len(trace),
                     "replicas": replicas, "policy": config.policy,
                     "rack0_fails_at_s": fail_at},
        "completed": report.completed,
        "completion_rate": round(report.completion_rate, 6),
        "requeued": report.requeued,
        "throughput_rps": round(report.throughput_rps, 1),
        "latency_p50_ms": round(report.latency_p50_ms, 3),
        "latency_p99_ms": round(report.latency_p99_ms, 3),
        "replicas_started": report.replicas_started,
        "shed_by_cause": dict(sorted(report.shed_by_cause.items())),
        "health": score,
        "digest": _digest(report),
        "host_wall_s": round(wall, 3),
        "events_per_host_s": round(len(trace) / wall) if wall else None,
    }


def check_million_gates(payload: dict) -> list:
    failures = []
    if payload["workload"]["arrivals"] < 1_000_000:
        failures.append(f"trace has {payload['workload']['arrivals']} "
                        f"arrivals, under the million-request bar")
    score = payload["health"]
    half = payload["workload"]["replicas"] // 2
    if score["crashes"] != half:
        failures.append(f"rack outage observed {score['crashes']} "
                        f"crash(es), expected {half}")
    if score["restarts"] != half:
        failures.append(f"supervisor restarted {score['restarts']} of "
                        f"{half} crashed replicas")
    if score["hedges_issued"] != (score["hedge_wins"]
                                  + score["hedge_cancels"]):
        failures.append("hedge scorecard does not reconcile")
    if payload["completion_rate"] < 0.99:
        failures.append(f"completion rate {payload['completion_rate']:.4f} "
                        f"< 0.99 — the fleet did not absorb the outage")
    return failures


def recorded_digests(path: pathlib.Path, workload: dict) -> dict:
    """``{name: digest}`` recorded in the artifact at ``path`` by a
    run of the same ``workload`` (empty when there is none)."""
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    runs = doc.get("policy_comparison", doc)
    if runs.get("workload") != workload:
        return {}
    if "policies" in runs:
        return {name: p["digest"] for name, p in runs["policies"].items()}
    return {"million": runs["digest"]}


def check_digests(digests: dict, recorded: dict) -> list:
    """One failure per run whose digest moved from the recorded one."""
    return [f"{name}: report digest {digests[name]} differs from the "
            f"recorded {recorded[name]}"
            for name in recorded
            if name in digests and digests[name] != recorded[name]]


def finish(failures: list, artifacts: dict, recorded: dict) -> int:
    """Report gate failures; write ``{path: text}`` only when there are
    none and nothing was ``recorded`` for this workload, so a failing
    run never replaces its reference and a reproducing one leaves it
    byte-for-byte as it was."""
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if failures or recorded:
        if not failures:
            print("every report digest matches the recorded run; to "
                  "record new host walls, delete the artifact and rerun")
        for path in artifacts:
            print(f"left {path} untouched")
        return 1 if failures else 0
    RESULTS_DIR.mkdir(exist_ok=True)
    for path, text in artifacts.items():
        path.write_text(text)
        print(f"wrote {path}")
    return 0


def run_benchmark(quick: bool = False) -> dict:
    t0 = time.perf_counter()
    if quick:
        comparison = run_policy_comparison(duration_s=1.0, rate_rps=4000.0)
    else:
        # ≥100k arrivals across the fleet, the acceptance-scale trace.
        comparison = run_policy_comparison(duration_s=10.5,
                                           rate_rps=10000.0)
    return {
        "benchmark": "cluster",
        "quick": quick,
        "policy_comparison": comparison,
        "autoscale_recovery": run_autoscale_recovery(),
        "host_wall_s": round(time.perf_counter() - t0, 3),
        "quick_wall_budget_s": QUICK_WALL_BUDGET_S,
    }


def check_gates(payload: dict) -> list:
    failures = []
    comparison = payload["policy_comparison"]
    if not comparison["rerun_digest_matches"]:
        failures.append("same-seed re-run produced a different report "
                        "digest — the fleet is nondeterministic")
    policies = comparison["policies"]
    if (policies["shape-affinity"]["plan_cache_hit_rate"]
            <= policies["round-robin"]["plan_cache_hit_rate"]):
        failures.append("shape-affinity did not beat round-robin on "
                        "plan-cache hit rate")
    recovery = payload["autoscale_recovery"]
    if recovery["violations"] < 1:
        failures.append("overload scenario never violated the SLO")
    if recovery["recoveries"] < 1 or recovery["in_violation_at_end"]:
        failures.append("autoscaler failed to recover the violated "
                        "latency SLO")
    if recovery["scale_ups"] < 1:
        failures.append("autoscaler never scaled up under overload")
    if payload["quick"] and payload["host_wall_s"] > QUICK_WALL_BUDGET_S:
        failures.append(
            f"quick run took {payload['host_wall_s']:.1f}s host time, "
            f"over the {QUICK_WALL_BUDGET_S:.0f}s budget — the "
            f"simulator fast path has regressed")
    return failures


def _render_text(payload: dict) -> str:
    comparison = payload["policy_comparison"]
    w = comparison["workload"]
    lines = [
        f"routing policies on {w['arrivals']} arrivals "
        f"({w['duration_s']:g} s @ {w['rate_rps']:g} req/s, "
        f"{w['replicas']} replicas, seed {w['seed']})",
        "",
        f"{'policy':16s} {'req/s':>8s} {'p50 ms':>8s} {'p99 ms':>8s} "
        f"{'cache hit':>10s} {'completion':>11s}",
    ]
    for name, p in comparison["policies"].items():
        lines.append(
            f"{name:16s} {p['throughput_rps']:8.0f} "
            f"{p['latency_p50_ms']:8.2f} {p['latency_p99_ms']:8.2f} "
            f"{p['plan_cache_hit_rate'] * 100:9.1f}% "
            f"{p['completion_rate'] * 100:10.1f}%")
    lines.append("")
    lines.append("same-seed re-run digest identical: "
                 f"{comparison['rerun_digest_matches']}")
    recovery = payload["autoscale_recovery"]
    lines.append(
        f"autoscale recovery: {recovery['violations']} violation(s), "
        f"{recovery['scale_ups']} scale-up(s) to peak "
        f"{recovery['replicas_peak']}, {recovery['recoveries']} "
        f"recovery(ies), end state "
        f"{'VIOLATED' if recovery['in_violation_at_end'] else 'ok'}")
    lines.append(f"host wall time: {payload['host_wall_s']:.2f} s"
                 + (f" (quick budget {payload['quick_wall_budget_s']:.0f} s)"
                    if payload["quick"] else ""))
    return "\n".join(lines)


def bench_cluster_policies():
    """Benchmark-suite entry: quick mode plus the CI gates; writes
    nothing."""
    payload = run_benchmark(quick=True)
    print(_render_text(payload))
    assert not check_gates(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="~4k-request trace instead of the "
                             "acceptance-scale 100k; writes nothing")
    parser.add_argument("--million", action="store_true",
                        help="archive the million-request self-healing "
                             "run (mid-run rack outage) instead of the "
                             "policy comparison")
    args = parser.parse_args(argv)

    if args.million:
        payload = run_million_chaos()
        out = RESULTS_DIR / "cluster_million_chaos.json"
        recorded = recorded_digests(out, payload["workload"])
        score = payload["health"]
        print(f"million-request rack outage: "
              f"{payload['workload']['arrivals']} arrivals, "
              f"{payload['completed']} completed "
              f"({payload['completion_rate'] * 100:.2f}%), "
              f"{score['crashes']} crash(es) -> {score['restarts']} "
              f"restart(s), {score['hedges_issued']} hedge(s), "
              f"p99 {payload['latency_p99_ms']:.2f} ms")
        print(f"report digest {payload['digest']}")
        print(f"host wall {payload['host_wall_s']:.1f} s "
              f"({payload['events_per_host_s']} req/s simulated)")
        failures = check_million_gates(payload) + check_digests(
            {"million": payload["digest"]}, recorded)
        return finish(failures, {
            out: json.dumps(payload, indent=2, sort_keys=True) + "\n"},
            recorded)

    payload = run_benchmark(quick=args.quick)
    print(_render_text(payload) + "\n")
    out = RESULTS_DIR / "BENCH_cluster.json"
    comparison = payload["policy_comparison"]
    recorded = recorded_digests(out, comparison["workload"])
    failures = check_gates(payload) + check_digests(
        {name: p["digest"] for name, p in comparison["policies"].items()},
        recorded)
    if not args.quick:
        print("host wall per policy: " + ", ".join(
            f"{name} {p['host_wall_s']:.2f} s"
            for name, p in comparison["policies"].items()))
    return finish(failures, {} if args.quick else {
        out: json.dumps(payload, indent=2) + "\n",
        RESULTS_DIR / "cluster_policies.txt": _render_text(payload) + "\n"},
        recorded)


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
    raise SystemExit(main())
