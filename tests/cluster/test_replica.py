"""Replica lifecycle: clock protocol, drain/kill evacuation, and the
one-replica cluster's exact equivalence to a single Server run."""

import pytest

from repro.cluster import Cluster, ClusterConfig, Replica, serve_cluster
from repro.core import evalcache
from repro.faults.plan import named_plan
from repro.gpusim import memo
from repro.serve import (Arrival, BatchPolicy, Server, ServerConfig,
                         TrafficSpec, generate_trace)
from repro.serve.loadgen import MODEL_SHAPES
from repro.serve.request import shape_key

KEY = shape_key(MODEL_SHAPES["AlexNet"][1][1])


def arrivals(times):
    return [Arrival(rid=i, t_s=t, model="AlexNet", layer="conv2", key=KEY)
            for i, t in enumerate(times)]


def small_config(**kwargs):
    defaults = dict(policy=BatchPolicy(max_batch=8, max_wait_s=0.002),
                    queue_depth=64, timeout_s=0.25)
    defaults.update(kwargs)
    return ServerConfig(**defaults)


def req(rid, arrival=0.0):
    return Arrival(rid=rid, t_s=arrival, model="AlexNet", layer="conv2",
                   key=KEY)


class TestEquivalence:
    def test_one_replica_cluster_matches_server_run(self):
        """The load-bearing invariant: a fleet of one reproduces
        Server.run decision for decision, completion for completion."""
        config = small_config()
        trace = generate_trace(TrafficSpec(duration_s=0.5, rate_rps=1200,
                                           seed=42))
        solo = Server(config).run(trace)
        rep = serve_cluster(trace, ClusterConfig(replicas=1, server=config))
        assert rep.replicas[0].report.to_dict() == solo.to_dict()
        assert rep.completed == solo.completed
        assert rep.offered == len(trace)

    def test_equivalence_holds_under_bursty_traffic(self):
        config = small_config()
        trace = generate_trace(TrafficSpec(duration_s=0.5, rate_rps=1500,
                                           pattern="bursty", seed=9))
        solo = Server(config).run(trace)
        rep = serve_cluster(trace, ClusterConfig(replicas=1, server=config))
        assert rep.replicas[0].report.to_dict() == solo.to_dict()

    @pytest.mark.parametrize("plan", ["cache-chaos", "chaos"])
    def test_one_replica_registry_matches_server_run(self, plan):
        """Clock-driven faults (plan-cache corruptions) land in the
        replica's own registry, as they do in Server.run, however the
        fleet loop moves the replica's clock."""
        trace = generate_trace(TrafficSpec(duration_s=1.0, rate_rps=3000,
                                           seed=7))
        fault = named_plan(plan, duration_s=1.0)
        memo.clear_all()
        evalcache.reset_cache()
        server = Server(ServerConfig(), fault_plan=fault, fault_seed=11)
        solo = server.run(trace)
        memo.clear_all()
        evalcache.reset_cache()
        # Replica 0 draws fault seed ``seed + 7919``.
        cluster = Cluster(ClusterConfig(replicas=1, default_fault_plan=fault,
                                        seed=11 - 7919))
        report = cluster.run(trace)
        replica = cluster.replicas[0].server
        assert report.replicas[0].report.to_dict() == solo.to_dict()
        assert replica.obs.registry.snapshot() == \
            server.obs.registry.snapshot()


class TestClockProtocol:
    def test_busy_replica_refuses_work_until_fleet_catches_up(self):
        replica = Replica(0, small_config()).begin(0.0)
        replica.admit(req(0))
        replica.poll(0.0, drain=True)       # dispatches; clock runs ahead
        busy = replica.next_event_s(0.0)
        assert 0.0 < busy < float("inf")
        depth_before = replica.queue_depth
        mid = busy / 2                      # strictly inside the batch
        replica.admit(req(1, arrival=mid))
        replica.poll(mid, drain=True)       # still mid-batch: no release
        assert replica.queue_depth == depth_before + 1
        replica.poll(busy, drain=True)      # fleet caught up: batch out
        assert replica.queue_depth == 0

    def test_load_combines_queue_and_busy_seconds(self):
        replica = Replica(0, small_config()).begin(0.0)
        assert replica.load(0.0) == (0, 0.0)
        replica.admit(req(0))
        replica.poll(0.0, drain=True)
        depth, busy = replica.load(0.0)
        assert depth == 0 and busy > 0.0
        # Past the busy horizon the load decays to idle.
        assert replica.load(busy + 1.0) == (0, 0.0)

    def test_replica_ignores_fleet_slo_config(self):
        from repro.obs.slo import DEFAULT_RULES, SLOPolicy
        config = small_config(slo=SLOPolicy(rules=DEFAULT_RULES))
        replica = Replica(0, config)
        assert replica.server.config.slo is None


class TestDrain:
    def test_drain_hands_back_queue_and_stops_routing(self):
        replica = Replica(0, small_config()).begin(0.0)
        for i in range(3):
            replica.admit(req(i))
        evacuated = replica.start_drain(0.0)
        assert [r.rid for r in evacuated] == [0, 1, 2]
        assert replica.draining and not replica.routable
        assert replica.active                       # finishes in-flight work
        assert replica.queue_depth == 0

    def test_drained_requests_counted_as_requeued_not_shed(self):
        replica = Replica(0, small_config()).begin(0.0)
        for i in range(4):
            replica.admit(req(i))
        replica.start_drain(0.0)
        report = replica.retire(0.01, outcome="drained")
        assert report.shed_by_cause.get("requeued") == 4
        assert report.shed_rate == 0.0
        assert replica.outcome == "drained"

    def test_retire_is_idempotent(self):
        replica = Replica(0, small_config()).begin(0.0)
        first = replica.retire(0.5)
        assert replica.retire(9.9) is first
        assert replica.retired_s == 0.5


class TestKill:
    def test_kill_freezes_report_and_returns_queue(self):
        replica = Replica(0, small_config()).begin(0.0)
        replica.admit(req(0))
        replica.admit(req(1))
        evacuated = replica.kill(0.005)
        assert [r.rid for r in evacuated] == [0, 1]
        assert not replica.alive and not replica.active
        assert replica.outcome == "killed"
        assert replica.report is not None
        assert replica.report.shed_by_cause.get("requeued") == 2

    def test_kill_lands_at_batch_boundary(self):
        replica = Replica(0, small_config()).begin(0.0)
        replica.admit(req(0))
        replica.poll(0.0, drain=True)       # batch in flight
        busy = replica.next_event_s(0.0)
        replica.kill(busy / 2)              # killed mid-batch
        # The dispatched batch's completion stands; retirement lands
        # at the batch boundary, not before it.
        assert replica.retired_s == pytest.approx(busy)
        assert replica.report.completed == 1
