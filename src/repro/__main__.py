"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the reproducible experiments (tables/figures).
``run <id> [...]``
    Regenerate one or more experiments (``all`` for everything).
``advise b i f k s [c] [--memory MB]``
    Ask the advisor which implementation fits a configuration.
``compare b i f k s [c]``
    Head-to-head table for one configuration.
``ablations``
    Run the simulator design-choice ablations.
``export <dir>``
    Write the figure data as CSV files for external plotting.
``devices``
    Cross-GPU sensitivity: headline results on every modelled device.
``audit b i f k s [c]``
    Run the consistency audits on every implementation.
``report <path>``
    Regenerate the full study as one markdown document.
``serve [--rate ... --duration ...]``
    Run simulated inference traffic through the serving subsystem.
``loadgen [--seed ...]``
    Generate a deterministic trace and compare dynamic batching
    against forced batch=1 on it.
``chaos [--fault-plan ...] [--cluster --fleet-plan ...]``
    Run the same traffic twice — fault-free and under a named fault
    plan — and report the resilience stats (retries, fallbacks,
    breaker trips, shed causes) plus a determinism digest.  With
    ``--cluster``, inject a named *fleet* fault plan (crashes,
    degrades, flapping, correlated domain outages) into a replicated
    fleet with the self-healing plane attached, and additionally gate
    on recovery: post-recovery tail latency back at the pre-fault
    baseline, and a reconciled self-healing scorecard.
``cluster [--replicas N --policy p2c --slo ... --autoscale]``
    Serve the traffic across a replicated fleet of simulated GPUs:
    pluggable routing, per-replica fault plans and scheduled kills,
    and (with ``--autoscale``) SLO-driven scale up / graceful drain.
    ``--health`` attaches the self-healing plane (heartbeat probes,
    supervisor restarts); ``--hedge-after-ms`` adds hedged requests,
    ``--fleet-plan`` injects fleet chaos.
``trace [--out ...]``
    Run one traced serving run and export its span timeline
    (Chrome-trace/Perfetto JSON, or the JSONL event log).
``analyze <trace.jsonl> [--baseline other.jsonl]``
    Offline trace analytics: critical path, span aggregates and the
    hotspot table; with ``--baseline``, a ranked "what got slower and
    why" diff between the two runs.
``slo <metrics.json> [--rules rules.json]``
    Evaluate declarative SLO rules against a saved metrics snapshot;
    a failing rule exits non-zero (CI gate).
``regression [--json]``
    Measure every row of the claims ledger (the paper's numbers, each
    with the band the model must keep it in) and print the table; a
    row outside its band exits non-zero (CI gate).

``serve``, ``chaos`` and ``compare`` also accept ``--trace PATH``
(record the run's span tree) and ``--metrics [PATH]`` (emit the
end-of-run metrics snapshot; with no PATH it prints, under ``--json``
it embeds).  ``serve --slo [RULES]`` attaches the simulated-time SLO
monitor to the run.
"""

from __future__ import annotations

import argparse
import sys

from . import EXPERIMENTS, run_experiment
from .config import ConvConfig
from .core.ablations import run_all as run_ablations
from .core.advisor import Advisor
from .core.report import table
from .frameworks.registry import all_implementations


def _config_from_args(args) -> ConvConfig:
    return ConvConfig(batch=args.b, input_size=args.i, filters=args.f,
                      kernel_size=args.k, stride=args.s, channels=args.c)


def _write_trace(path, tracer, registry, **meta) -> None:
    """Write a recorded span forest: Chrome-trace JSON, or the JSONL
    event log when ``path`` ends in ``.jsonl``.  Notices go to stderr
    so ``--json`` stdout stays machine-readable."""
    from .obs.export import write_chrome_trace, write_jsonl

    if path.endswith(".jsonl"):
        n = write_jsonl(path, tracer)
        print(f"wrote {n} trace records to {path}", file=sys.stderr)
    else:
        write_chrome_trace(path, tracer, registry, **meta)
        print(f"wrote {tracer.span_count()}-span trace to {path}",
              file=sys.stderr)


def _emit_metrics(args, registry, embed=None) -> None:
    """Handle ``--metrics``: ``-`` prints the plain-text snapshot (or
    embeds it into the ``embed`` JSON document), a path writes the JSON
    snapshot."""
    from .obs.export import render_metrics, write_metrics

    target = getattr(args, "metrics", None)
    if not target:
        return
    if target == "-":
        if embed is not None:
            embed["metrics"] = registry.snapshot()
        else:
            print()
            print(render_metrics(registry))
    else:
        write_metrics(target, registry)
        print(f"wrote metrics snapshot to {target}", file=sys.stderr)


def cmd_list(_args) -> int:
    for exp_id, exp in sorted(EXPERIMENTS.items()):
        print(f"{exp_id:8s} {exp.title}")
    return 0


def cmd_run(args) -> int:
    targets = sorted(EXPERIMENTS) if "all" in args.ids else args.ids
    for exp_id in targets:
        if exp_id not in EXPERIMENTS:
            print(f"unknown experiment {exp_id!r}", file=sys.stderr)
            return 1
        print(f"== {exp_id}: {EXPERIMENTS[exp_id].title} ==")
        _, text = run_experiment(exp_id)
        print(text)
        print()
    return 0


def cmd_advise(args) -> int:
    config = _config_from_args(args)
    budget = args.memory * 2**20 if args.memory else None
    print(Advisor().recommend(config, memory_budget=budget).render())
    return 0


def cmd_compare(args) -> int:
    import json
    import time

    from .core import evalcache
    from .gpusim.device import K40C
    from .obs.context import NULL_OBS, Observability, obs_session

    config = _config_from_args(args)
    obs = NULL_OBS
    if args.trace or args.metrics:
        from .gpusim.timing import SimClock
        from .obs.tracer import SimTracer
        obs = Observability(
            tracer=SimTracer(SimClock()) if args.trace else None)
    t0 = time.perf_counter()
    impls = all_implementations()
    with obs_session(obs):
        records = [evalcache.evaluate(impl, config, K40C) for impl in impls]
    elapsed = time.perf_counter() - t0
    if args.trace:
        _write_trace(args.trace, obs.tracer, obs.registry,
                     command="compare", config=str(config))
    rows = []
    for record in records:
        if not record.supported:
            rows.append([record.paper_name, "-", "-"])
            continue
        mem = ("-" if record.peak_memory_bytes is None
               else f"{record.peak_memory_bytes / 2**20:.0f}")
        rows.append([record.paper_name, f"{record.time_s * 1000:.2f}", mem])
    if args.json:
        results = [
            {"implementation": name,
             "time_ms": None if t == "-" else float(t),
             "memory_mb": None if m == "-" else float(m)}
            for name, t, m in rows
        ]
        doc = {"config": str(config),
               "results": results,
               "elapsed_s": elapsed,
               "cache": evalcache.get_cache().stats()}
        _emit_metrics(args, obs.registry, embed=doc)
        print(json.dumps(doc, indent=2))
        return 0
    print(table(["Implementation", "Time (ms)", "Memory (MB)"], rows,
                title=f"{config}"))
    _emit_metrics(args, obs.registry)
    return 0


def cmd_ablations(_args) -> int:
    for r in run_ablations():
        print(r.render())
        print()
    return 0


def cmd_export(args) -> int:
    import os

    from .config import SWEEPS
    from .core.export import (breakdown_csv, memory_sweep_csv, metrics_csv,
                              runtime_sweep_csv, transfer_csv)
    from .core.gpu_metrics import gpu_metric_profile
    from .core.hotspot_layers import hotspot_layer_analysis
    from .core.memory_comparison import memory_sweep
    from .core.runtime_comparison import runtime_sweep
    from .core.transfer_overhead import transfer_overhead_profile

    os.makedirs(args.dir, exist_ok=True)
    for sweep in SWEEPS:
        runtime_sweep_csv(runtime_sweep(sweep),
                          os.path.join(args.dir, f"fig3_{sweep}.csv"))
        memory_sweep_csv(memory_sweep(sweep),
                         os.path.join(args.dir, f"fig5_{sweep}.csv"))
    breakdown_csv(hotspot_layer_analysis(),
                  os.path.join(args.dir, "fig2_breakdown.csv"))
    metrics_csv(gpu_metric_profile(),
                os.path.join(args.dir, "fig6_metrics.csv"))
    transfer_csv(transfer_overhead_profile(),
                 os.path.join(args.dir, "fig7_transfers.csv"))
    print(f"wrote 13 CSV files to {args.dir}")
    return 0


def cmd_devices(args) -> int:
    if getattr(args, "validate", False):
        return _validate_devices()
    from .core.sensitivity import device_comparison, render_device_comparison

    print(render_device_comparison(device_comparison()))
    return 0


def _validate_devices() -> int:
    """``repro devices --validate``: schema-check every shipped profile
    and round-trip each through its JSON form (the CI
    ``devices-smoke`` job gates on this)."""
    import json

    from .devices import PROFILE_DIR, default_registry, selftest, \
        validate_profile

    failures = 0
    for path in sorted(PROFILE_DIR.glob("*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        errors = validate_profile(doc)
        if errors:
            failures += len(errors)
            print(f"[FAIL] {path.name}")
            for error in errors:
                print(f"         {error}")
        else:
            print(f"[ ok ] {path.name}")
    problems = selftest()
    for problem in problems:
        print(f"[FAIL] selftest: {problem}")
    failures += len(problems)
    registry = default_registry()
    print(f"{len(registry)} profile(s) registered: "
          + ", ".join(registry.names()))
    for profile in sorted(registry, key=lambda p: p.name):
        print(f"  {profile.name:10s} v{profile.version}  "
              f"{profile.spec.name:24s} digest {profile.digest}  "
              f"{profile.tdp_w:5.0f} W  {profile.cost_per_hour:5.2f} $/h")
    if failures:
        print(f"validation FAILED with {failures} problem(s)")
        return 1
    print("validation passed: schemas clean, profiles round-trip")
    return 0


def cmd_audit(args) -> int:
    from .core.validation import audit_all

    config = _config_from_args(args)
    ok = True
    for report in audit_all(config):
        print(report.render())
        ok = ok and report.ok
    return 0 if ok else 1


def _traffic_spec(args):
    from .serve import TrafficSpec

    return TrafficSpec(duration_s=args.duration, rate_rps=args.rate,
                       pattern=args.pattern, seed=args.seed)


def _server_config(args):
    from .gpusim.device import DEVICES
    from .serve import BatchPolicy, ServerConfig

    return ServerConfig(
        policy=BatchPolicy(max_batch=args.max_batch,
                           max_wait_s=args.max_wait_ms / 1000.0,
                           bucket=not args.no_bucket),
        queue_depth=args.queue_depth,
        timeout_s=args.timeout_ms / 1000.0,
        device=DEVICES[args.device],
        plan_cache_capacity=args.cache_capacity,
    )


def cmd_serve(args) -> int:
    import json
    from dataclasses import replace

    from .serve import Server, generate_trace, trace_summary

    spec = _traffic_spec(args)
    trace = generate_trace(spec)
    config = _server_config(args)
    if args.slo:
        from .obs.slo import DEFAULT_RULES, SLOPolicy, load_rules

        rules = DEFAULT_RULES if args.slo == "-" else load_rules(args.slo)
        config = replace(config, slo=SLOPolicy(rules=rules))
    tel_config = _telemetry_config(args)
    if tel_config is not None:
        config = replace(config, telemetry=tel_config)
    server = Server(config)
    if args.trace:
        server.enable_tracing(sample=getattr(args, "trace_sample", 1))
    report = server.run(trace)
    slo_ok = server.slo_report is None or server.slo_report.passed
    if args.trace:
        _write_trace(args.trace, server.obs.tracer, server.obs.registry,
                     command="serve", seed=spec.seed)
    _emit_telemetry(args, server.telemetry)
    if args.json:
        doc = {"traffic": {"arrivals": len(trace),
                           "duration_s": spec.duration_s,
                           "pattern": spec.pattern,
                           "seed": spec.seed},
               "stats": report.to_dict()}
        if server.slo_report is not None:
            doc["slo"] = server.slo_report.to_dict()
        _emit_metrics(args, server.obs.registry, embed=doc)
        print(json.dumps(doc, indent=2))
        return 0 if slo_ok else 1
    print(trace_summary(trace, spec))
    print()
    print(report.render())
    if server.slo_report is not None:
        print()
        print(server.slo_report.render())
    _emit_metrics(args, server.obs.registry)
    return 0 if slo_ok else 1


def cmd_loadgen(args) -> int:
    from .serve import BatchPolicy, Server, generate_trace, trace_summary
    from dataclasses import replace

    spec = _traffic_spec(args)
    trace = generate_trace(spec)
    print(trace_summary(trace, spec))

    config = _server_config(args)
    batched = Server(config).run(trace)
    print("\n== dynamic batching ==")
    print(batched.render())

    single = Server(replace(config, policy=BatchPolicy(
        max_batch=1, max_wait_s=0.0))).run(trace)
    print("\n== forced batch=1 ==")
    print(single.render())

    speedup = (batched.throughput_rps / single.throughput_rps
               if single.throughput_rps else float("inf"))
    print(f"\ndynamic batching throughput speedup: x{speedup:.2f}")
    return 0


def _cmd_chaos_cluster(args) -> int:
    """``chaos --cluster``: fleet chaos with the self-healing plane.

    Three runs — healthy baseline, chaos, chaos re-run — then three
    gates: the same-seed chaos digest is byte-identical, the
    self-healing scorecard reconciles (every crash has a restart
    scheduled or denied; every hedge resolved as a win or a cancel),
    and the post-recovery tail latency is back at the pre-fault
    baseline.
    """
    import hashlib
    import json

    from .cluster import Cluster, ClusterConfig, HealthConfig
    from .faults import named_fleet_plan
    from .obs.hist import percentile
    from .serve import generate_trace, trace_summary

    if args.quick:
        args.duration = 2.0
        args.rate = 3000.0
    spec = _traffic_spec(args)
    trace = generate_trace(spec)
    plan = named_fleet_plan(args.fleet_plan, duration_s=spec.duration_s,
                            replicas=args.replicas)
    hedge_s = (args.hedge_after_ms / 1000.0
               if args.hedge_after_ms else None)
    health = HealthConfig(hedge_after_s=hedge_s)

    def run_once(with_faults):
        config = ClusterConfig(
            replicas=args.replicas, policy=args.policy,
            server=_server_config(args), seed=spec.seed, health=health,
            fleet_fault_plan=plan if with_faults else None)
        cluster = Cluster(config)
        report = cluster.run(trace)
        completions = sorted(
            (finish_s, finish_s - request.t_s)
            for r in cluster.replicas
            for request, _, finish_s in r.server.stats.served())
        return report, completions

    def digest(report):
        blob = json.dumps(report.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    baseline, _ = run_once(False)
    chaos, completions = run_once(True)
    rerun, _ = run_once(True)
    deterministic = digest(chaos) == digest(rerun)

    # Recovery: tail latency over the run's last fifth must be back at
    # (within 50% of) the pre-fault level.  Both windows come from the
    # chaos run itself, so a fleet that never heals cannot pass by
    # having been fast before the fault.
    fault_t = plan.first_event_s()
    tail_start = spec.duration_s * 0.8
    pre = sorted(lat for t, lat in completions
                 if fault_t is not None and t < fault_t)
    post = sorted(lat for t, lat in completions if t >= tail_start)
    pre_p99 = percentile(pre, 99) * 1000 if pre else None
    post_p99 = percentile(post, 99) * 1000 if post else None
    recovered = (True if pre_p99 is None or post_p99 is None
                 else post_p99 <= pre_p99 * 1.5)

    score = chaos.health or {}
    reconciled = (
        score.get("crashes", 0) == (score.get("restarts", 0)
                                    + score.get("restarts_pending", 0)
                                    + score.get("restarts_denied", 0))
        and score.get("hedges_issued", 0) == (score.get("hedge_wins", 0)
                                              + score.get("hedge_cancels", 0)))
    ratio = (chaos.completed / baseline.completed
             if baseline.completed else 0.0)
    ok = deterministic and reconciled and recovered

    if args.json:
        doc = {
            "traffic": {"arrivals": len(trace),
                        "duration_s": spec.duration_s,
                        "pattern": spec.pattern,
                        "seed": spec.seed},
            "fleet_plan": {"name": plan.name,
                           "description": plan.describe(),
                           "replicas": args.replicas,
                           "policy": args.policy,
                           "hedge_after_ms": args.hedge_after_ms},
            "fault_free": baseline.to_dict(),
            "chaos": chaos.to_dict(),
            "completion_ratio": ratio,
            "recovery": {"fault_at_s": fault_t,
                         "pre_fault_p99_ms": pre_p99,
                         "post_recovery_p99_ms": post_p99,
                         "recovered": recovered},
            "scorecard_reconciled": reconciled,
            "deterministic": deterministic,
            "digest": digest(chaos),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if ok else 1

    print(trace_summary(trace, spec))
    print(f"\nfleet plan: {plan.describe()}")
    print("\n== fault-free fleet ==")
    print(baseline.render())
    print(f"\n== under {plan.name!r} ==")
    print(chaos.render())
    print(f"\ncompletion ratio vs fault-free: {ratio:.3f}")
    if fault_t is not None and pre_p99 is not None and post_p99 is not None:
        print(f"p99 before fault @{fault_t:.2f}s: {pre_p99:.2f} ms; "
              f"post-recovery (last fifth): {post_p99:.2f} ms -> "
              f"{'recovered' if recovered else 'NOT RECOVERED'}")
    print(f"scorecard reconciled: {reconciled}")
    print(f"deterministic re-run: {deterministic}")
    return 0 if ok else 1


def cmd_chaos(args) -> int:
    import hashlib
    import json

    from .faults import named_plan
    from .serve import Server, generate_trace, trace_summary

    if getattr(args, "cluster", False):
        return _cmd_chaos_cluster(args)
    if args.quick:
        args.duration = 1.0
        args.rate = 1500.0
    spec = _traffic_spec(args)
    trace = generate_trace(spec)
    plan = named_plan(args.fault_plan, duration_s=spec.duration_s)
    config = _server_config(args)
    fault_seed = args.fault_seed if args.fault_seed is not None else spec.seed

    def run_once(with_faults, trace_path=None):
        server = Server(config, fault_plan=plan if with_faults else None,
                        fault_seed=fault_seed)
        if trace_path:
            server.enable_tracing(sample=getattr(args, "trace_sample", 1))
        report = server.run(trace)
        if trace_path:
            _write_trace(trace_path, server.obs.tracer, server.obs.registry,
                         command="chaos", seed=spec.seed,
                         fault_plan=plan.name)
        return report, server

    def digest(report):
        blob = json.dumps(report.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    baseline, _ = run_once(False)
    # Only the first chaos run is traced; the untraced re-run doubles
    # as a check that tracing never changes the simulated outcome.
    chaos, chaos_server = run_once(True, trace_path=args.trace)
    rerun, _ = run_once(True)
    deterministic = digest(chaos) == digest(rerun)
    ratio = (chaos.completed / baseline.completed
             if baseline.completed else 0.0)

    if args.json:
        doc = {
            "traffic": {"arrivals": len(trace),
                        "duration_s": spec.duration_s,
                        "pattern": spec.pattern,
                        "seed": spec.seed},
            "fault_plan": {"name": plan.name,
                           "description": plan.describe(),
                           "seed": fault_seed},
            "fault_free": baseline.to_dict(),
            "chaos": chaos.to_dict(),
            "completion_ratio": ratio,
            "unhandled_errors": chaos.unhandled_errors,
            "deterministic": deterministic,
            "digest": digest(chaos),
        }
        _emit_metrics(args, chaos_server.obs.registry, embed=doc)
        print(json.dumps(doc, indent=2))
    else:
        print(trace_summary(trace, spec))
        print(f"\nfault plan: {plan.describe()}")
        print("\n== fault-free ==")
        print(baseline.render())
        print(f"\n== under {plan.name!r} ==")
        print(chaos.render())
        print(f"\ncompletion ratio vs fault-free: {ratio:.3f}")
        print(f"deterministic re-run: {deterministic}")
        _emit_metrics(args, chaos_server.obs.registry)
    return 0 if deterministic else 1


def cmd_cluster(args) -> int:
    import json

    from .cluster import AutoscalePolicy, Cluster, ClusterConfig, HealthConfig
    from .faults import (FLEET_PLAN_NAMES, PLAN_NAMES, named_fleet_plan,
                         named_plan)
    from .obs.slo import DEFAULT_RULES, SLOPolicy, load_rules
    from .serve import generate_trace, trace_summary

    if args.quick:
        args.duration = 1.0
        args.rate = 4000.0
    devices = ()
    if getattr(args, "fleet", None):
        from .devices.plan import mix_slots, parse_fleet

        devices = mix_slots(parse_fleet(args.fleet))
        args.replicas = len(devices)
    spec = _traffic_spec(args)
    trace = generate_trace(spec)

    slo = None
    if args.slo:
        rules = DEFAULT_RULES if args.slo == "-" else load_rules(args.slo)
        slo = SLOPolicy(rules=rules, window_s=args.slo_window_ms / 1000.0)
    autoscale = None
    if args.autoscale:
        if slo is None:
            raise ValueError("--autoscale needs --slo (the autoscaler "
                             "consumes SLO violation/recovery edges)")
        autoscale = AutoscalePolicy(min_replicas=args.min_replicas,
                                    max_replicas=args.max_replicas,
                                    cooldown_s=args.cooldown_ms / 1000.0)
    fault_plans = {}
    default_plan = None
    fleet_plan_name = args.fleet_plan
    if args.fault_plan:
        if (args.fault_plan in FLEET_PLAN_NAMES
                and args.fault_plan not in PLAN_NAMES):
            # A fleet-level plan name (crash / flapping / domain-outage
            # / fleet-chaos) given through --fault-plan: route it to the
            # fleet fault plane instead of per-replica injectors.
            if fleet_plan_name is None:
                fleet_plan_name = args.fault_plan
        else:
            plan = named_plan(args.fault_plan, duration_s=spec.duration_s)
            if args.fault_replica is not None:
                fault_plans = {i: plan for i in args.fault_replica}
            else:
                default_plan = plan
    kills = []
    if args.kill_replica is not None:
        if (args.kill_at is None
                or len(args.kill_at) != len(args.kill_replica)):
            raise ValueError("each --kill-replica needs a matching "
                             "--kill-at SECONDS")
        kills = list(zip(args.kill_replica, args.kill_at))

    fleet_plan = None
    if fleet_plan_name:
        fleet_plan = named_fleet_plan(fleet_plan_name,
                                      duration_s=spec.duration_s,
                                      replicas=args.replicas)
    health = None
    if args.health or fleet_plan is not None or args.hedge_after_ms:
        health = HealthConfig(
            probe_interval_s=args.probe_interval_ms / 1000.0,
            max_restarts=args.max_restarts,
            hedge_after_s=(args.hedge_after_ms / 1000.0
                           if args.hedge_after_ms else None),
            retry_budget_ratio=args.retry_budget)

    config = ClusterConfig(
        replicas=args.replicas, policy=args.policy,
        server=_server_config(args), seed=spec.seed, devices=devices,
        slo=slo, autoscale=autoscale, window_s=args.window_ms / 1000.0,
        fault_plans=fault_plans, default_fault_plan=default_plan,
        kills=kills, health=health, fleet_fault_plan=fleet_plan,
        telemetry=_telemetry_config(args))
    cluster = Cluster(config)
    if args.trace:
        cluster.enable_tracing(sample=getattr(args, "trace_sample", 1))
    report = cluster.run(trace)

    if args.trace:
        from .obs.export import write_cluster_chrome_trace, write_jsonl

        if args.trace.endswith(".jsonl"):
            n = write_jsonl(args.trace, cluster.obs.tracer,
                            *(t for _, t in cluster.replica_tracers))
            print(f"wrote {n} trace records to {args.trace}",
                  file=sys.stderr)
        else:
            write_cluster_chrome_trace(
                args.trace, cluster.obs.tracer, cluster.replica_tracers,
                cluster.obs.registry, command="cluster", seed=spec.seed,
                policy=config.policy, replicas=config.replicas)
            print(f"wrote fleet trace to {args.trace}", file=sys.stderr)
    replica_registries = [(r.name, r.server.obs.registry)
                          for r in cluster.replicas]
    if args.metrics and args.metrics != "-":
        from .obs.export import write_cluster_metrics

        write_cluster_metrics(args.metrics, cluster.obs.registry,
                              replica_registries)
        print(f"wrote fleet metrics snapshot to {args.metrics}",
              file=sys.stderr)
    if cluster.telemetry is not None:
        _emit_telemetry(args, cluster.telemetry.rollups,
                        manager=cluster.telemetry.alerts,
                        fleet=cluster.telemetry)

    slo_ok = not report.slo_in_violation  # None (no SLO) is ok
    if args.json:
        doc = {"traffic": {"arrivals": len(trace),
                           "duration_s": spec.duration_s,
                           "pattern": spec.pattern,
                           "seed": spec.seed},
               "cluster": report.to_dict()}
        if args.metrics == "-":
            from .obs.export import cluster_metrics_doc

            doc["metrics"] = cluster_metrics_doc(cluster.obs.registry,
                                                 replica_registries)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if slo_ok else 1
    print(trace_summary(trace, spec))
    if default_plan is not None or fault_plans:
        targets = ("all replicas" if default_plan is not None else
                   "replica(s) " + ", ".join(map(str, args.fault_replica)))
        print(f"fault plan: {args.fault_plan} on {targets}")
    if kills:
        print("kill schedule: " + ", ".join(
            f"replica {i} @ {t:.3f}s" for i, t in sorted(kills)))
    if fleet_plan is not None:
        print(f"fleet plan: {fleet_plan.describe()}")
    print()
    print(report.render())
    if args.metrics == "-":
        from .obs.export import render_metrics

        print()
        print(render_metrics(cluster.obs.registry))
    return 0 if slo_ok else 1


def cmd_plan(args) -> int:
    import json

    from .devices import plan_capacity
    from .obs.slo import DEFAULT_RULES, load_rules

    rules = (DEFAULT_RULES if not args.slo or args.slo == "-"
             else load_rules(args.slo))
    if args.quick:
        args.duration = 1.0
        args.rate = 800.0
    plan = plan_capacity(args.fleet, rules,
                         workload=args.workload,
                         duration_s=args.duration, rate_rps=args.rate,
                         pattern=args.pattern, policy=args.policy,
                         seed=args.seed)
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    else:
        print(plan.render())
    return 0 if plan.best is not None else 1


def cmd_trace(args) -> int:
    from .faults import named_plan
    from .serve import Server, generate_trace, trace_summary

    spec = _traffic_spec(args)
    trace = generate_trace(spec)
    plan = (named_plan(args.fault_plan, duration_s=spec.duration_s)
            if args.fault_plan else None)
    server = Server(_server_config(args), fault_plan=plan,
                    fault_seed=spec.seed)
    tracer = server.enable_tracing(sample=getattr(args, "trace_sample", 1))
    report = server.run(trace)
    print(trace_summary(trace, spec))
    if plan is not None:
        print(f"\nfault plan: {plan.describe()}")
    print()
    print(report.render())
    _write_trace(args.out, tracer, server.obs.registry,
                 command="trace", seed=spec.seed,
                 fault_plan=plan.name if plan else None)
    print(f"trace: {tracer.span_count()} spans -> {args.out}")
    _emit_metrics(args, server.obs.registry)
    return 0


def _host_hotspots(top: int) -> str:
    """cProfile one reference serving run (dynamic batching + forced
    batch-1 over the same trace) and return the hottest-function table.

    This profiles *host* time spent simulating, not simulated time;
    the run's simulated report is identical to an unprofiled one.
    """
    import cProfile
    import io
    import pstats
    from dataclasses import replace

    from .serve import (BatchPolicy, Server, ServerConfig, TrafficSpec,
                        generate_trace)

    spec = TrafficSpec(duration_s=3.0, rate_rps=6000)
    trace = generate_trace(spec)
    config = ServerConfig()
    # Warm the process-wide advisor/evalcache models so the table shows
    # the steady-state serving loop, not one-time model evaluation.
    Server(config).run(trace)
    profile = cProfile.Profile()
    profile.enable()
    Server(config).run(trace)
    Server(replace(config, policy=BatchPolicy(max_batch=1,
                                              max_wait_s=0.0))).run(trace)
    profile.disable()
    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    return out.getvalue()


def cmd_analyze(args) -> int:
    import json

    from .obs.analyze import analyze_run, load_jsonl
    from .obs.diff import diff_runs

    if args.hotspots_host:
        print(_host_hotspots(args.top))
        return 0
    if args.trace is None:
        raise ValueError("analyze needs a JSONL trace path "
                         "(or --hotspots-host to profile the host)")
    try:
        analysis = analyze_run(load_jsonl(args.trace))
        diff = None
        if args.baseline:
            diff = diff_runs(analyze_run(load_jsonl(args.baseline)),
                             analysis)
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    if args.json:
        doc = analysis.to_dict() if diff is None else \
            {"analysis": analysis.to_dict(), "diff": diff.to_dict()}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(analysis.render(top=args.top))
    if diff is not None:
        print()
        print(diff.render(top=args.top))
    return 0


def cmd_slo(args) -> int:
    import json

    from .obs.export import load_metrics_snapshot
    from .obs.slo import DEFAULT_RULES, evaluate_slo, load_rules

    try:
        rules = load_rules(args.rules) if args.rules else DEFAULT_RULES
        snapshot = load_metrics_snapshot(args.metrics)
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    report = evaluate_slo(snapshot, rules, source=args.metrics)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.passed else 1


def cmd_regression(args) -> int:
    import json

    from .core.ledger import check, failures, render

    results = check()
    failed = failures(results)
    if args.json:
        print(json.dumps({"passed": not failed,
                          "claims": [r.to_dict() for r in results]},
                         indent=2, sort_keys=True))
    else:
        print(render(results))
        if failed:
            print(f"{len(failed)} of {len(results)} claims outside their "
                  f"band: {', '.join(failed)}")
    return 1 if failed else 0


def cmd_report(args) -> int:
    from .core.full_report import write_report

    write_report(args.path, include_extensions=not args.no_extensions)
    print(f"wrote {args.path}")
    return 0


def _add_obs_args(p) -> None:
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="record the run's span tree to PATH as "
                        "Chrome-trace/Perfetto JSON (a .jsonl extension "
                        "selects the JSONL event log)")
    p.add_argument("--metrics", metavar="PATH", nargs="?", const="-",
                   default=None,
                   help="emit the end-of-run metrics snapshot: to PATH as "
                        "JSON, printed (or embedded under --json) when "
                        "PATH is omitted")
    p.add_argument("--trace-sample", type=int, default=1, metavar="N",
                   help="with --trace, keep only 1 in N serve.batch span "
                        "trees (deterministic; metrics and the report "
                        "stay exact; default 1 = full tracing)")


def _add_telemetry_args(p, fleet: bool = False) -> None:
    extras = (", burn-rate alerts and flight recorders" if fleet else "")
    p.add_argument("--telemetry", action="store_true",
                   help=f"attach the live-telemetry plane (windowed "
                        f"rollups{extras}); implied by the telemetry "
                        f"output flags below; the report itself is "
                        f"byte-identical either way")
    p.add_argument("--telemetry-window-ms", type=float, default=1000.0,
                   metavar="MS",
                   help="rollup window width (default 1000 ms)")
    p.add_argument("--window-log", metavar="PATH", default=None,
                   help="write the JSONL window log (implies --telemetry)")
    p.add_argument("--openmetrics", metavar="PATH", default=None,
                   help="write an OpenMetrics-style text snapshot "
                        "(implies --telemetry)")
    p.add_argument("--dashboard", action="store_true",
                   help="render the terminal telemetry dashboard after "
                        "the run (implies --telemetry)")
    if fleet:
        p.add_argument("--alert-log", metavar="PATH", default=None,
                       help="write the JSONL burn-rate alert event "
                            "stream (implies --telemetry)")
        p.add_argument("--incident-dir", metavar="DIR", default=None,
                       help="dump flight-recorder incident bundles into "
                            "DIR (implies --telemetry)")
        p.add_argument("--no-alerts", action="store_true",
                       help="with --telemetry, skip burn-rate alert "
                            "evaluation")


def _telemetry_config(args):
    """Resolve the telemetry flags into a TelemetryConfig (or None)."""
    wants = (args.telemetry or args.window_log or args.openmetrics
             or args.dashboard or getattr(args, "alert_log", None)
             or getattr(args, "incident_dir", None))
    if not wants:
        return None
    from .obs.timeseries import TelemetryConfig

    return TelemetryConfig(window_s=args.telemetry_window_ms / 1000.0,
                           alerts=not getattr(args, "no_alerts", False))


def _emit_telemetry(args, rollups, manager=None, fleet=None) -> None:
    """Write the requested telemetry artifacts after a run."""
    if rollups is None:
        return
    from .obs.timeseries import write_openmetrics, write_window_log

    if args.window_log:
        n = write_window_log(args.window_log, rollups)
        print(f"wrote {n} window-log line(s) to {args.window_log}",
              file=sys.stderr)
    if args.openmetrics:
        write_openmetrics(args.openmetrics, rollups)
        print(f"wrote OpenMetrics snapshot to {args.openmetrics}",
              file=sys.stderr)
    if manager is not None and getattr(args, "alert_log", None):
        from .obs.alerts import write_alert_log

        n = write_alert_log(args.alert_log, manager)
        print(f"wrote {n} alert-log line(s) to {args.alert_log}",
              file=sys.stderr)
    if fleet is not None and getattr(args, "incident_dir", None):
        paths = fleet.write_incidents(args.incident_dir)
        print(f"wrote {len(paths)} incident bundle(s) to "
              f"{args.incident_dir}", file=sys.stderr)
    if args.dashboard:
        from .obs.dashboard import render_dashboard_live

        print()
        print(render_dashboard_live(rollups), end="")


def cmd_dashboard(args) -> int:
    from .obs.dashboard import render_dashboard_from_log

    print(render_dashboard_from_log(args.window_log), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Performance Analysis of GPU-based "
                    "Convolutional Neural Networks' (ICPP 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="regenerate experiments")
    p_run.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    p_run.set_defaults(fn=cmd_run)

    for name, fn in (("advise", cmd_advise), ("compare", cmd_compare)):
        p = sub.add_parser(name)
        p.add_argument("b", type=int, help="mini-batch size")
        p.add_argument("i", type=int, help="input size")
        p.add_argument("f", type=int, help="filter count")
        p.add_argument("k", type=int, help="kernel size")
        p.add_argument("s", type=int, help="stride")
        p.add_argument("c", type=int, nargs="?", default=3,
                       help="input channels (default 3)")
        if name == "advise":
            p.add_argument("--memory", type=int, default=None,
                           help="device memory budget in MB")
        if name == "compare":
            p.add_argument("--json", action="store_true",
                           help="machine-readable output")
            _add_obs_args(p)
        p.set_defaults(fn=fn)

    sub.add_parser("ablations",
                   help="run design-choice ablations").set_defaults(
        fn=cmd_ablations)

    p_export = sub.add_parser("export", help="write figure data as CSV")
    p_export.add_argument("dir", help="output directory")
    p_export.set_defaults(fn=cmd_export)

    p_devices = sub.add_parser(
        "devices", help="headline results across modelled GPUs")
    p_devices.add_argument("--validate", action="store_true",
                           help="schema-validate the shipped device "
                                "profiles and round-trip each through "
                                "its JSON form (CI gate)")
    p_devices.set_defaults(fn=cmd_devices)

    p_audit = sub.add_parser(
        "audit", help="run the consistency audits on every implementation")
    for field, hint in (("b", "mini-batch size"), ("i", "input size"),
                        ("f", "filter count"), ("k", "kernel size"),
                        ("s", "stride")):
        p_audit.add_argument(field, type=int, help=hint)
    p_audit.add_argument("c", type=int, nargs="?", default=3,
                         help="input channels (default 3)")
    p_audit.set_defaults(fn=cmd_audit)

    p_report = sub.add_parser(
        "report", help="regenerate the full study as one markdown file")
    p_report.add_argument("path", help="output markdown path")
    p_report.add_argument("--no-extensions", action="store_true",
                          help="paper artifacts only")
    p_report.set_defaults(fn=cmd_report)

    def add_traffic_args(p) -> None:
        from .gpusim.device import DEVICES
        from .rng import DEFAULT_SEED

        p.add_argument("--duration", type=float, default=10.0,
                       help="simulated seconds of traffic (default 10)")
        p.add_argument("--rate", type=float, default=2000.0,
                       help="mean offered load in req/s (default 2000)")
        p.add_argument("--pattern", choices=("poisson", "bursty"),
                       default="poisson", help="arrival process")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="trace seed (runs are deterministic per seed)")
        p.add_argument("--max-batch", type=int, default=64,
                       help="dynamic batcher size cap (default 64)")
        p.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="batching latency guard (default 2 ms)")
        p.add_argument("--no-bucket", action="store_true",
                       help="disable power-of-two batch padding")
        p.add_argument("--queue-depth", type=int, default=512,
                       help="admission queue bound (default 512)")
        p.add_argument("--timeout-ms", type=float, default=250.0,
                       help="queueing timeout before shedding (default 250 ms)")
        p.add_argument("--cache-capacity", type=int, default=128,
                       help="plan cache entries (default 128)")
        p.add_argument("--device", choices=sorted(DEVICES),
                       default="Tesla K40c", help="modelled GPU")

    p_serve = sub.add_parser(
        "serve", help="run simulated inference traffic end-to-end")
    add_traffic_args(p_serve)
    p_serve.add_argument("--json", action="store_true",
                         help="machine-readable stats output")
    p_serve.add_argument("--slo", metavar="RULES", nargs="?", const="-",
                         default=None,
                         help="attach the simulated-time SLO monitor: "
                              "rules from a JSON file, or the default "
                              "rule set when RULES is omitted (a failing "
                              "rule makes the command exit non-zero)")
    _add_obs_args(p_serve)
    _add_telemetry_args(p_serve)
    p_serve.set_defaults(fn=cmd_serve)

    from .faults import PLAN_NAMES

    p_chaos = sub.add_parser(
        "chaos", help="run traffic under a named fault plan and report "
                      "the resilience stats")
    add_traffic_args(p_chaos)
    p_chaos.add_argument("--fault-plan", choices=PLAN_NAMES, default="chaos",
                         help="named fault plan (default 'chaos')")
    p_chaos.add_argument("--fault-seed", type=int, default=None,
                         help="injector seed (default: the trace seed)")
    from .cluster import POLICIES
    from .faults import FLEET_PLAN_NAMES

    p_chaos.add_argument("--cluster", action="store_true",
                         help="fleet chaos: inject --fleet-plan into a "
                              "replicated fleet with the self-healing "
                              "plane attached, and gate on recovery")
    p_chaos.add_argument("--fleet-plan", choices=FLEET_PLAN_NAMES,
                         default="fleet-chaos",
                         help="named fleet fault plan for --cluster "
                              "(default 'fleet-chaos')")
    p_chaos.add_argument("--replicas", type=int, default=4,
                         help="fleet size for --cluster (default 4)")
    p_chaos.add_argument("--policy", choices=POLICIES,
                         default="round-robin",
                         help="routing policy for --cluster (default "
                              "round-robin)")
    p_chaos.add_argument("--hedge-after-ms", type=float, default=20.0,
                         help="hedge queued requests older than this in "
                              "--cluster mode; 0 disables (default 20)")
    p_chaos.add_argument("--json", action="store_true",
                         help="machine-readable stats output")
    p_chaos.add_argument("--quick", action="store_true",
                         help="1-second smoke run (CI gate)")
    _add_obs_args(p_chaos)
    p_chaos.set_defaults(fn=cmd_chaos)

    p_cluster = sub.add_parser(
        "cluster", help="serve traffic across a replicated fleet with "
                        "pluggable routing and SLO-driven autoscaling")
    add_traffic_args(p_cluster)
    p_cluster.add_argument("--replicas", type=int, default=4,
                           help="initial fleet size (default 4)")
    p_cluster.add_argument("--fleet", metavar="SPEC", default=None,
                           help="heterogeneous fleet as device:count "
                                "pairs, e.g. 'k40c:4,maxwell:2' (device "
                                "profile slugs from 'repro devices "
                                "--validate'); overrides --replicas and "
                                "--device")
    p_cluster.add_argument("--policy", choices=POLICIES,
                           default="round-robin",
                           help="request routing policy (default "
                                "round-robin)")
    p_cluster.add_argument("--slo", metavar="RULES", nargs="?", const="-",
                           default=None,
                           help="attach the fleet SLO monitor (sliding-"
                                "window evaluation): rules from a JSON "
                                "file, or the default rule set when RULES "
                                "is omitted; a rule still in violation at "
                                "the end exits non-zero")
    p_cluster.add_argument("--slo-window-ms", type=float, default=50.0,
                           help="SLO polling cadence (default 50 ms)")
    p_cluster.add_argument("--window-ms", type=float, default=1000.0,
                           help="sliding window the fleet SLO snapshot "
                                "summarises (default 1000 ms)")
    p_cluster.add_argument("--autoscale", action="store_true",
                           help="scale the fleet on SLO violation/recovery "
                                "edges (needs --slo)")
    p_cluster.add_argument("--min-replicas", type=int, default=1,
                           help="autoscaler floor (default 1)")
    p_cluster.add_argument("--max-replicas", type=int, default=8,
                           help="autoscaler ceiling (default 8)")
    p_cluster.add_argument("--cooldown-ms", type=float, default=200.0,
                           help="min time between scaling actions "
                                "(default 200 ms)")
    p_cluster.add_argument("--fault-plan",
                           choices=sorted(set(PLAN_NAMES)
                                          | set(FLEET_PLAN_NAMES)),
                           default=None,
                           help="inject a named fault plan; fleet-level "
                                "names (crash, flapping, domain-outage, "
                                "fleet-chaos) route to the fleet fault "
                                "plane and imply --health")
    p_cluster.add_argument("--fault-replica", type=int, action="append",
                           default=None, metavar="IDX",
                           help="restrict --fault-plan to this replica "
                                "index (repeatable; default: all replicas)")
    p_cluster.add_argument("--kill-replica", type=int, default=None,
                           action="append", metavar="IDX",
                           help="kill this replica mid-run (with "
                                "--kill-at; repeatable — pairs match "
                                "positionally)")
    p_cluster.add_argument("--kill-at", type=float, default=None,
                           action="append", metavar="SECONDS",
                           help="simulated time of the matching "
                                "--kill-replica kill (repeatable)")
    p_cluster.add_argument("--health", action="store_true",
                           help="attach the self-healing plane: heartbeat "
                                "probes, failure detection, supervisor "
                                "restarts, retry budgets")
    p_cluster.add_argument("--fleet-plan", choices=FLEET_PLAN_NAMES,
                           default=None,
                           help="inject a named fleet fault plan — "
                                "crashes, degrades, flapping, domain "
                                "outages (implies --health)")
    p_cluster.add_argument("--hedge-after-ms", type=float, default=None,
                           help="hedge queued requests older than this to "
                                "a second replica (implies --health)")
    p_cluster.add_argument("--probe-interval-ms", type=float, default=20.0,
                           help="heartbeat probe cadence (default 20 ms)")
    p_cluster.add_argument("--max-restarts", type=int, default=2,
                           help="supervisor restarts per slot (default 2)")
    p_cluster.add_argument("--retry-budget", type=float, default=0.1,
                           help="per-tenant retry budget as a fraction of "
                                "offered traffic (default 0.1)")
    p_cluster.add_argument("--json", action="store_true",
                           help="machine-readable report output")
    p_cluster.add_argument("--quick", action="store_true",
                           help="1-second smoke run (CI gate)")
    _add_obs_args(p_cluster)
    _add_telemetry_args(p_cluster, fleet=True)
    p_cluster.set_defaults(fn=cmd_cluster)

    p_dash = sub.add_parser(
        "dashboard", help="render the terminal telemetry dashboard from "
                          "a recorded window log")
    p_dash.add_argument("window_log", metavar="WINDOW_LOG",
                        help="JSONL window log written by serve/cluster "
                             "--window-log")
    p_dash.set_defaults(fn=cmd_dashboard)

    from .devices.plan import WORKLOADS
    from .rng import DEFAULT_SEED as _PLAN_SEED

    p_plan = sub.add_parser(
        "plan", help="capacity-plan a heterogeneous fleet: sweep every "
                     "device mix within the ceilings against an SLO and "
                     "rank the passing mixes cheapest first")
    p_plan.add_argument("--fleet", required=True, metavar="SPEC",
                        help="device ceilings as slug:count pairs, e.g. "
                             "'k40c:4,maxwell:2' — every mix up to the "
                             "ceilings is simulated")
    p_plan.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="mixed",
                        help="traffic model mix (default 'mixed')")
    p_plan.add_argument("--slo", metavar="RULES", nargs="?", const="-",
                        default=None,
                        help="SLO rules from a JSON file, or the default "
                             "rule set when RULES is omitted; exits "
                             "non-zero when no mix passes")
    p_plan.add_argument("--duration", type=float, default=5.0,
                        help="simulated seconds of traffic (default 5)")
    p_plan.add_argument("--rate", type=float, default=500.0,
                        help="mean offered load in req/s (default 500)")
    p_plan.add_argument("--pattern", choices=("poisson", "bursty"),
                        default="poisson", help="arrival process")
    p_plan.add_argument("--seed", type=int, default=_PLAN_SEED,
                        help="trace seed (sweeps are deterministic "
                             "per seed)")
    p_plan.add_argument("--policy", choices=POLICIES,
                        default="device-affinity",
                        help="routing policy every mix is simulated "
                             "under (default device-affinity)")
    p_plan.add_argument("--json", action="store_true",
                        help="machine-readable ranked output")
    p_plan.add_argument("--quick", action="store_true",
                        help="1-second smoke sweep (CI gate)")
    p_plan.set_defaults(fn=cmd_plan)

    p_trace = sub.add_parser(
        "trace", help="run one traced serving run and export the span "
                      "timeline")
    add_traffic_args(p_trace)
    p_trace.add_argument("--out", default="serving_trace.json",
                         help="trace output path (default "
                              "serving_trace.json; a .jsonl extension "
                              "selects the JSONL event log)")
    p_trace.add_argument("--fault-plan", choices=PLAN_NAMES, default=None,
                         help="inject a named fault plan into the traced run")
    p_trace.add_argument("--metrics", metavar="PATH", nargs="?", const="-",
                         default=None,
                         help="also emit the metrics snapshot (to PATH, or "
                              "printed when PATH is omitted)")
    p_trace.add_argument("--trace-sample", type=int, default=1, metavar="N",
                         help="keep only 1 in N serve.batch span trees "
                              "(deterministic; the report stays exact)")
    # A traced second of traffic is plenty to read; heavier runs are
    # one --duration/--rate away.
    p_trace.set_defaults(fn=cmd_trace, duration=1.0, rate=1000.0)

    p_analyze = sub.add_parser(
        "analyze", help="offline trace analytics: critical path, hotspot "
                        "table, and (with --baseline) regression "
                        "attribution between two runs")
    p_analyze.add_argument("trace", nargs="?", default=None,
                           help="JSONL event log to analyze "
                                "(see 'trace --out run.jsonl')")
    p_analyze.add_argument("--hotspots-host", action="store_true",
                           help="profile the simulator itself: cProfile a "
                                "reference serving run on this host and "
                                "print the hottest functions (simulated "
                                "results are unaffected)")
    p_analyze.add_argument("--baseline", metavar="PATH", default=None,
                           help="second JSONL log to diff against "
                                "(baseline -> trace)")
    p_analyze.add_argument("--top", type=int, default=10,
                           help="rows per table (default 10)")
    p_analyze.add_argument("--json", action="store_true",
                           help="machine-readable output")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_slo = sub.add_parser(
        "slo", help="evaluate SLO rules against a saved metrics snapshot "
                    "(exits non-zero on a failing rule)")
    p_slo.add_argument("metrics", help="metrics snapshot JSON (from "
                                       "--metrics PATH), or a Chrome trace "
                                       "with an embedded snapshot")
    p_slo.add_argument("--rules", metavar="PATH", default=None,
                       help="JSON rules file (default: the built-in "
                            "rule set)")
    p_slo.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_slo.set_defaults(fn=cmd_slo)

    p_reg = sub.add_parser(
        "regression", help="check the paper's claims against the model and "
                           "print the claims ledger (exits non-zero when a "
                           "claim leaves its band)")
    p_reg.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_reg.set_defaults(fn=cmd_regression)

    p_loadgen = sub.add_parser(
        "loadgen", help="generate a trace; compare dynamic batching "
                        "vs forced batch=1 on it")
    add_traffic_args(p_loadgen)
    # loadgen's point is the batched-vs-unbatched contrast, which needs
    # an offered load past the batch=1 saturation point (~4k req/s on
    # the K40c model).
    p_loadgen.set_defaults(fn=cmd_loadgen, rate=6000.0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: a subcommand is required "
              "(see --help)", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
