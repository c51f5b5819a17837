"""Serving stats: percentiles, accumulation, report rendering."""

import gc
import json
import tracemalloc

import pytest

from repro.cluster import Cluster, ClusterConfig, HealthConfig
from repro.faults import named_fleet_plan, named_plan
from repro.serve import (Arrival, BatchPolicy, Server, ServerConfig,
                         TrafficSpec, generate_trace)
from repro.serve.stats import ServingStats, percentile

KEY = (27, 256, 5, 1, 96, 2)


def request(rid, arrival):
    return Arrival(rid=rid, t_s=arrival, model="m", layer="l", key=KEY)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_single(self):
        assert percentile([3.0], 99) == 3.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        vals = [float(i) for i in range(1, 101)]
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 100.0
        assert percentile(vals, 95) == pytest.approx(95.05)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestReport:
    def make_report(self):
        stats = ServingStats()
        stats.offered = 5
        # One batch of three padded to four: latencies 4, 4 and 3 ms.
        stats.record_dispatch([request(0, 0.0), request(1, 0.0),
                               request(2, 0.001)],
                              start_s=0.001, finish_s=0.004, padded=4,
                              fill=3, implementation="cuDNN")
        cache_stats = {"capacity": 8, "entries": 2, "hits": 9, "misses": 1,
                       "evictions": 0, "hit_rate": 0.9}
        return stats.finalize(duration_s=2.0, plan_cache_stats=cache_stats,
                              peak_memory_bytes=256 * 2**20)

    def test_counts_and_throughput(self):
        rep = self.make_report()
        assert rep.offered == 5
        assert rep.completed == 3
        assert rep.throughput_rps == pytest.approx(1.5)
        assert rep.peak_memory_mb == pytest.approx(256.0)

    def test_latency_is_arrival_to_finish(self):
        rep = self.make_report()
        assert rep.latency_p50_ms == pytest.approx(4.0)

    def test_batch_accounting(self):
        rep = self.make_report()
        assert rep.mean_batch_fill == pytest.approx(3.0)
        assert rep.mean_batch_size == pytest.approx(4.0)
        assert rep.batch_histogram == {4: 1}
        assert rep.implementations == {"cuDNN": 3}

    def test_shed_rate(self):
        stats = ServingStats()
        stats.offered = 10
        stats.rejected = 1
        stats.shed = 2
        stats.oom_shed = 1
        rep = stats.finalize(1.0, {"capacity": 1, "entries": 0, "hits": 0,
                                   "misses": 0, "evictions": 0,
                                   "hit_rate": 0.0}, 0)
        assert rep.shed_rate == pytest.approx(0.4)

    def test_render_mentions_key_lines(self):
        text = self.make_report().render()
        for needle in ("throughput", "latency p50/p95/p99", "plan cache",
                       "batch histogram", "dispatch mix"):
            assert needle in text

    def test_to_dict_is_json_serializable(self):
        d = self.make_report().to_dict()
        restored = json.loads(json.dumps(d))
        assert restored["completed"] == 3
        assert restored["latency_ms"]["p50"] == pytest.approx(4.0)
        assert restored["plan_cache"]["hit_rate"] == pytest.approx(0.9)

    def test_empty_run_report(self):
        stats = ServingStats()
        rep = stats.finalize(0.0, {"capacity": 1, "entries": 0, "hits": 0,
                                   "misses": 0, "evictions": 0,
                                   "hit_rate": 0.0}, 0)
        assert rep.throughput_rps == 0.0
        assert rep.shed_rate == 0.0
        assert rep.mean_batch_fill == 0.0


class TestRetainedMemory:
    """A finished run keeps one record per dispatch and two floats per
    served request, and no object per request beyond the trace's own."""

    #: Bytes a finished server may hold per arrival.  Keeping a
    #: dict-backed record per request and per completion retained
    #: 712 B; copying each arrival into a second request tuple, 175 B;
    #: serving the trace's own records, about 82 B (CPython 3.11).
    BOUND_B = 150

    def test_finished_server_retains_little_per_arrival(self):
        trace = generate_trace(TrafficSpec(duration_s=2.0, rate_rps=6000.0,
                                           seed=7))
        Server(ServerConfig()).run(trace)  # warm every cache
        gc.collect()
        tracemalloc.start()
        try:
            server = Server(ServerConfig())
            server.run(trace)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / len(trace) < self.BOUND_B

    def test_request_is_an_immutable_record_without_a_dict(self):
        req = request(0, 0.0)
        with pytest.raises(AttributeError):
            req.t_s = 1.0
        assert not hasattr(req, "__dict__")


class TestServedRequestsAreTheTrace:
    """The trace's records are the requests: every request a run
    serves is an object of the trace it was given, never a copy."""

    @staticmethod
    def assert_served_from(trace, servers):
        ids = {id(arrival) for arrival in trace}
        served = [request for server in servers
                  for request, _, _ in server.stats.served()]
        assert served
        assert all(id(request) in ids for request in served)

    @pytest.mark.parametrize("plan", [None, "chaos"])
    def test_server_run(self, plan):
        trace = generate_trace(TrafficSpec(duration_s=0.5, rate_rps=4000.0,
                                           seed=7))
        server = Server(ServerConfig(),
                        fault_plan=named_plan(plan, 0.5) if plan else None,
                        fault_seed=7)
        server.run(trace)
        if plan:
            assert server.stats.faults_injected > 0
        self.assert_served_from(trace, [server])

    def test_cluster_with_hedging_and_a_kill(self):
        trace = generate_trace(TrafficSpec(duration_s=0.5, rate_rps=4000.0,
                                           seed=7))
        cluster = Cluster(ClusterConfig(
            replicas=4, policy="least-loaded",
            server=ServerConfig(policy=BatchPolicy(max_batch=8)),
            health=HealthConfig(hedge_after_s=0.02), kills=[(1, 0.2)],
            fleet_fault_plan=named_fleet_plan("fleet-chaos", duration_s=0.5,
                                              replicas=4)))
        report = cluster.run(trace)
        assert report.kills == 1 and report.requeued > 0
        assert report.health["hedges_issued"] > 0
        self.assert_served_from(trace, [r.server for r in cluster.replicas])
