"""Fleet integration: determinism across policies and fault plans,
shape-affinity's cache win, autoscaling end-to-end, chaos kills, and
the merged observability exports."""

import json

import pytest

from repro.cluster import (AutoscalePolicy, Cluster, ClusterConfig,
                           REPLICA_SID_STRIDE, serve_cluster)
from repro.faults import named_plan
from repro.faults.plan import PLAN_NAMES
from repro.obs.export import (CLUSTER_PID, REPLICA_PID_BASE,
                              cluster_chrome_trace, cluster_jsonl_lines,
                              cluster_metrics_doc)
from repro.obs.slo import SLOPolicy, SLORule
from repro.serve import BatchPolicy, ServerConfig, TrafficSpec, generate_trace


def small_server(**kwargs):
    defaults = dict(policy=BatchPolicy(max_batch=8, max_wait_s=0.002),
                    queue_depth=64, timeout_s=0.25)
    defaults.update(kwargs)
    return ServerConfig(**defaults)


def small_trace(duration=0.5, rate=1200, seed=42):
    return generate_trace(TrafficSpec(duration_s=duration, rate_rps=rate,
                                      seed=seed))


def run_recorded(trace, config):
    """One fleet run with the routing-decision ledger switched on."""
    cluster = Cluster(config)
    cluster.router.decisions = []
    report = cluster.run(trace)
    return report, cluster.router.decisions


STRAGGLER = named_plan("straggler", 0.5)


class TestConfigValidation:
    def test_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            ClusterConfig(replicas=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ClusterConfig(policy="coin-flip")

    def test_autoscale_requires_slo(self):
        with pytest.raises(ValueError):
            ClusterConfig(autoscale=AutoscalePolicy())

    def test_initial_size_must_fit_autoscale_bounds(self):
        slo = SLOPolicy(rules=(SLORule(name="p99", kind="latency_p99",
                                       threshold=0.25),))
        with pytest.raises(ValueError):
            ClusterConfig(replicas=9, slo=slo,
                          autoscale=AutoscalePolicy(max_replicas=8))

    def test_cluster_runs_one_trace_only(self):
        cluster = Cluster(ClusterConfig(replicas=1, server=small_server()))
        cluster.run([])
        with pytest.raises(RuntimeError):
            cluster.run([])


class TestDeterminism:
    """Satellite: every router policy x a replica-straggler fault plan
    must give byte-identical reports AND identical routing decisions
    on same-seed runs."""

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded",
                                        "p2c", "shape-affinity"])
    def test_policy_with_straggler_replica_is_deterministic(self, policy):
        trace = small_trace()
        config = ClusterConfig(replicas=3, policy=policy,
                               server=small_server(),
                               fault_plans={0: STRAGGLER})
        rep_a, dec_a = run_recorded(trace, config)
        rep_b, dec_b = run_recorded(trace, config)
        assert dec_a == dec_b
        assert (json.dumps(rep_a.to_dict(), sort_keys=True)
                == json.dumps(rep_b.to_dict(), sort_keys=True))

    def test_different_seeds_differ_under_p2c(self):
        trace = small_trace()
        base = dict(replicas=3, policy="p2c", server=small_server())
        _, dec_a = run_recorded(trace, ClusterConfig(seed=1, **base))
        _, dec_b = run_recorded(trace, ClusterConfig(seed=2, **base))
        assert dec_a != dec_b

    def test_fleet_conserves_every_arrival(self):
        trace = small_trace()
        report = serve_cluster(trace, ClusterConfig(
            replicas=4, server=small_server()))
        # Every arrival either completes somewhere or is terminally
        # shed somewhere; 'requeued' is a hand-off, not an outcome.
        terminal_sheds = sum(
            n for r in report.replicas
            for cause, n in r.report.shed_by_cause.items()
            if cause != "requeued")
        accounted = report.completed + terminal_sheds + \
            report.no_replica_shed
        assert accounted == len(trace)
        assert report.offered == len(trace)

    def test_straggler_replica_shows_in_its_latency_tail(self):
        trace = small_trace(rate=2000)
        report = serve_cluster(trace, ClusterConfig(
            replicas=3, policy="round-robin", server=small_server(),
            fault_plans={1: named_plan("straggler", 0.5)}))
        straggler = report.replicas[1].report
        healthy = report.replicas[2].report
        # Equal traffic in (round-robin), but the slowdown window
        # stretches the slowed replica's tail.
        assert straggler.offered == healthy.offered
        assert straggler.latency_p99_ms > healthy.latency_p99_ms


class TestShapeAffinity:
    def test_beats_round_robin_on_plan_cache_hit_rate(self):
        """Satellite: pinning shapes to replicas keeps their plan
        caches warm; round-robin pays the ranking cost on every
        replica for every shape."""
        trace = small_trace(duration=1.0, rate=1000, seed=7)
        base = dict(replicas=4, server=small_server())
        aff = serve_cluster(trace, ClusterConfig(policy="shape-affinity",
                                                 **base))
        rr = serve_cluster(trace, ClusterConfig(policy="round-robin",
                                                **base))
        assert aff.plan_cache["hit_rate"] > rr.plan_cache["hit_rate"]
        assert aff.plan_cache["misses"] < rr.plan_cache["misses"]


class TestAutoscaling:
    SLO = SLOPolicy(rules=(SLORule(name="p99", kind="latency_p99",
                                   threshold=0.03),), window_s=0.05)

    def overload_config(self, cooldown_s=0.5, **kwargs):
        # A single replica saturates just under 4000 rps with the
        # default server config, so rate-4000 traffic violates the
        # 30 ms p99 until the autoscaler grows the fleet — the
        # scenario the CI recovery gate replays through the CLI.
        defaults = dict(
            replicas=1, policy="least-loaded", server=ServerConfig(),
            slo=self.SLO, window_s=0.25,
            autoscale=AutoscalePolicy(min_replicas=1, max_replicas=4,
                                      cooldown_s=cooldown_s))
        defaults.update(kwargs)
        return ClusterConfig(**defaults)

    def test_violation_scales_up_and_recovers(self):
        """The CI gate's scenario: an overloaded single replica must
        violate the latency SLO, grow the fleet, and end recovered.
        The 0.5 s cooldown stops the recovery edge from immediately
        draining the fleet back into overload."""
        trace = small_trace(duration=2.0, rate=4000, seed=11)
        report = serve_cluster(trace, self.overload_config())
        assert report.slo_violations >= 1
        assert report.scale_ups >= 1
        assert report.slo_recoveries >= 1
        assert report.slo_in_violation is False
        assert report.replicas_peak > 1

    def test_recovery_drains_back_down(self):
        # A short cooldown lets the recovery edge drain a replica —
        # which re-overloads the fleet: the classic flapping loop,
        # reproduced deterministically.
        trace = small_trace(duration=2.0, rate=4000, seed=11)
        report = serve_cluster(trace, self.overload_config(cooldown_s=0.2))
        assert report.drains >= 1
        assert any(r.outcome == "drained" for r in report.replicas)
        # Drained replicas' queues were handed back, not dropped.
        drained = [r for r in report.replicas if r.outcome == "drained"]
        assert report.requeued >= sum(
            r.report.shed_by_cause.get("requeued", 0) for r in drained)

    def test_autoscale_actions_appear_as_spans(self):
        trace = small_trace(duration=2.0, rate=4000, seed=11)
        cluster = Cluster(self.overload_config(cooldown_s=0.2))
        cluster.enable_tracing()
        report = cluster.run(trace)
        names = [s.name for s in cluster.obs.tracer.walk()]
        assert names.count("autoscale.scale_up") == report.scale_ups
        assert names.count("autoscale.drain") >= 1

    def test_no_slo_leaves_report_unmonitored(self):
        report = serve_cluster(small_trace(), ClusterConfig(
            replicas=2, server=small_server()))
        assert report.slo_in_violation is None
        assert report.slo_violations == 0


class TestKills:
    def test_scheduled_kill_retires_replica(self):
        trace = small_trace(rate=2000)
        report = serve_cluster(trace, ClusterConfig(
            replicas=3, server=small_server(), kills=[(1, 0.25)]))
        victim = report.replicas[1]
        assert victim.outcome == "killed"
        assert victim.retired_s >= 0.25
        assert report.kills == 1
        assert report.replicas_final == 2

    def test_survivors_absorb_the_evacuated_queue(self):
        # A long max-wait keeps queues populated so the kill actually
        # catches requests in flight.
        trace = small_trace(rate=2000)
        with_kill = serve_cluster(trace, ClusterConfig(
            replicas=3, server=small_server(
                policy=BatchPolicy(max_batch=64, max_wait_s=0.01)),
            kills=[(1, 0.25)]))
        assert with_kill.requeued > 0
        # Router never sends new traffic to the dead replica.
        assert with_kill.replicas[1].report.duration_s <= \
            with_kill.duration_s

    def test_killing_the_whole_fleet_sheds_no_replica(self):
        trace = small_trace(rate=800)
        report = serve_cluster(trace, ClusterConfig(
            replicas=2, server=small_server(),
            kills=[(0, 0.1), (1, 0.1)]))
        assert report.replicas_final == 0
        assert report.no_replica_shed > 0

    def test_kill_of_retired_replica_is_a_noop(self):
        trace = small_trace(duration=0.2, rate=500)
        report = serve_cluster(trace, ClusterConfig(
            replicas=2, server=small_server(),
            kills=[(1, 0.05), (0, 10.0)]))   # 0's kill lands after the run
        assert report.kills == 1
        assert report.replicas[0].outcome == "ran"


class TestFaultPlanMatrix:
    @pytest.mark.parametrize("plan", [p for p in PLAN_NAMES if p != "none"])
    def test_every_named_plan_runs_deterministically(self, plan):
        trace = small_trace(duration=0.3, rate=800)
        config = ClusterConfig(replicas=2, server=small_server(),
                               default_fault_plan=named_plan(plan, 0.3))
        a = serve_cluster(trace, config).to_dict()
        b = serve_cluster(trace, config).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_per_replica_fault_seeds_differ(self):
        # Same plan on every replica, but independent fault streams:
        # the replicas must not fail in lockstep.
        trace = small_trace(duration=0.5, rate=1500)
        report = serve_cluster(trace, ClusterConfig(
            replicas=3, server=small_server(),
            default_fault_plan=named_plan("transient-top", 0.5)))
        faults = [r.report.faults_injected for r in report.replicas]
        assert len(set(faults)) > 1


class TestWindowSnapshot:
    def test_window_prunes_old_traffic(self):
        cluster = Cluster(ClusterConfig(replicas=1, server=small_server(),
                                        window_s=0.1))
        cluster._win_offered.extend([0.0, 0.05, 0.2])
        cluster._win_completions.extend([
            (0.0, 0.01, 0.001), (0.21, 0.02, 0.002)])
        cluster.clock.advance_to(0.25)
        snap = cluster._window_snapshot()
        assert snap["counters"]["serve_requests_offered_total"] == 1.0
        assert snap["counters"]["serve_requests_completed_total"] == 1.0
        assert snap["histograms"]["serve_latency_seconds"]["count"] == 1

    def test_snapshot_shape_matches_registry_snapshot(self):
        cluster = Cluster(ClusterConfig(replicas=1, server=small_server()))
        snap = cluster._window_snapshot()
        assert set(snap) == {"counters", "histograms"}
        assert "p99" in snap["histograms"]["serve_latency_seconds"]


class TestExports:
    def traced_run(self):
        cluster = Cluster(ClusterConfig(replicas=2, server=small_server()))
        cluster.enable_tracing()
        cluster.run(small_trace(duration=0.3, rate=800))
        return cluster

    def test_each_replica_gets_its_own_process_row(self):
        cluster = self.traced_run()
        doc = cluster_chrome_trace(cluster.obs.tracer,
                                   cluster.replica_tracers)
        procs = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("name") == "process_name"}
        assert procs[CLUSTER_PID] == "cluster"
        assert procs[REPLICA_PID_BASE] == "replica0"
        assert procs[REPLICA_PID_BASE + 1] == "replica1"

    def test_span_ids_never_collide_across_tracers(self):
        cluster = self.traced_run()
        lines = cluster_jsonl_lines(cluster.obs.tracer,
                                    cluster.replica_tracers)
        sids = [json.loads(l)["sid"] for l in lines
                if json.loads(l).get("type") == "span"]
        assert len(sids) == len(set(sids))
        # Replica spans live in their reserved blocks.
        assert any(REPLICA_SID_STRIDE <= s < 2 * REPLICA_SID_STRIDE
                   for s in sids)
        assert any(s >= 2 * REPLICA_SID_STRIDE for s in sids)

    def test_metrics_doc_carries_fleet_and_replica_sections(self):
        cluster = self.traced_run()
        doc = cluster_metrics_doc(
            cluster.obs.registry,
            [(r.name, r.server.obs.registry) for r in cluster.replicas])
        assert set(doc["replicas"]) == {"replica0", "replica1"}
        fleet_counters = doc["fleet"]["counters"]
        assert any(k.startswith("cluster_routed_total")
                   for k in fleet_counters)
        rep0 = doc["replicas"]["replica0"]["counters"]
        assert "serve_requests_completed_total" in rep0

    def test_exports_are_byte_identical_across_runs(self):
        docs = []
        for _ in range(2):
            cluster = self.traced_run()
            docs.append(json.dumps(
                cluster_chrome_trace(cluster.obs.tracer,
                                     cluster.replica_tracers),
                sort_keys=True))
        assert docs[0] == docs[1]
