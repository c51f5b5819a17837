"""Fast-path invariants: charging dispatch memory from the ranked
plan, the lazy head heap, bulk histogram observation, allocation
replay, and sampled tracing must all be invisible in the simulated
results — same seed, same bytes.  (The allocation replay is also
checked against the per-buffer oracle over random plans in
``tests/gpusim/test_allocator.py``.)"""

import hashlib
import json

import pytest

from repro.cluster import (AutoscalePolicy, Cluster, ClusterConfig,
                           HealthConfig, Replica)
from repro.core import evalcache
from repro.gpusim import memo
from repro.gpusim.allocator import DeviceAllocator, replay
from repro.gpusim.device import TITAN_X
from repro.errors import DeviceOOMError
from repro.faults import named_fleet_plan
from repro.faults.plan import named_plan
from repro.obs.export import chrome_trace, cluster_chrome_trace
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.slo import SLOPolicy, SLORule
from repro.obs.timeseries import TelemetryConfig
from repro.obs.tracer import SimTracer, TraceSampler
from repro.serve import (Arrival, BatchPolicy, Server, ServerConfig,
                         TrafficSpec, generate_trace)
from repro.serve.loadgen import MODEL_SHAPES
from repro.serve.queue import AdmissionQueue
from repro.serve.request import shape_key

from ..gpusim.allocator_oracle import episode

KEY = shape_key(MODEL_SHAPES["AlexNet"][1][1])
KEY2 = shape_key(MODEL_SHAPES["AlexNet"][0][1])

TRACE = generate_trace(TrafficSpec(duration_s=1.0, rate_rps=4000.0, seed=7))
FLEET_TRACE = generate_trace(TrafficSpec(duration_s=1.0, rate_rps=6000.0,
                                         seed=7))
MATRIX_TRACE = generate_trace(TrafficSpec(duration_s=0.5, rate_rps=6000.0,
                                          seed=7))
OVERLOAD_TRACE = generate_trace(TrafficSpec(duration_s=1.0,
                                            rate_rps=4000.0, seed=11))

#: Trace sampling rates of the server matrix (0 = untraced).
SAMPLES = (0, 1, 4)

#: Same-seed digests (first 16 hex digits of the sha256 of the
#: sorted-key JSON) recorded with the scheduler that still dispatched
#: through a second lane allocating and freeing every buffer — the
#: reference every faster dispatch path must reproduce.  Per (fault plan,
#: max_batch): the report, then (registry snapshot, Chrome trace) at
#: each of :data:`SAMPLES`.  Fault plans are scaled to the 1 s trace
#: and every run starts from cold caches (see :func:`cold_caches`).
SERVER_DIGESTS = {
    ("none", 64): ("aff84741643a506a",
                   ("0f13cb08212ade66", None),
                   ("8f682a2577c5cb79", "341fc1d16327b91b"),
                   ("b9f0b20b8139f93d", "5ad4be97ecf19364")),
    ("none", 1): ("f00e51bb538ada84",
                  ("ef37b546e0625ca8", None),
                  ("4bf6d6e9cb6aca34", "ab7dcf9638d273ee"),
                  ("b3f0ca52d73fdc42", "903673cc75fc1b86")),
    ("straggler", 64): ("6eff4e6cc0becba4",
                        ("91cf3a7ed5df7f6a", None),
                        ("7b2bc966044f1d53", "f7cf20ea33c77ccd"),
                        ("ebeb322110b1c418", "789a80bb77982853")),
    ("straggler", 1): ("98c35c7185f47154",
                       ("95745fa926144fcb", None),
                       ("7ce57fedaef86917", "f91a7a546edd7f84"),
                       ("65c072a7299ad363", "0697d94dabd4c491")),
    ("transient-top", 64): ("a0b8af82053c406a",
                            ("ae7dd420b3a48fef", None),
                            ("14dadfd5c0610981", "b4818ab3b17c9431"),
                            ("fba61396f5ab12b5", "2217c39bd940f3f8")),
    ("transient-top", 1): ("2824c33c6425d8f7",
                           ("039e88efc8f2fd03", None),
                           ("400ebe94b8359fcc", "5b082fdce377465b"),
                           ("fda2289a8796c1c5", "6674b4cfcd3a7924")),
    ("memory-pressure", 64): ("a035c5911b221212",
                              ("41d94f303a8fee1c", None),
                              ("aca0f73fb8eb9cbd", "95076b2dba0ebf8b"),
                              ("c6650350b990c5af", "de8d57aac6f10ed1")),
    ("memory-pressure", 1): ("1a3770bd84f2a40e",
                             ("b366b46db6a029a3", None),
                             ("b925f5c0e910c016", "876ed6f3c228944f"),
                             ("15e09bf7dae1d140", "898365bcf287bff1")),
    ("cache-chaos", 64): ("3bb61a11e7209360",
                          ("9aca56a626beaf5b", None),
                          ("858a9b67ee12d5b5", "74d522477b63df65"),
                          ("d92cc72f51540d5f", "65a2548ac76df582")),
    ("cache-chaos", 1): ("4618119a4a241541",
                         ("b7891952ea37a9d1", None),
                         ("cd5fe6d56f1bea62", "f3fcdf94302b5517"),
                         ("0e8c926b9fc4245d", "8571af480a960fb9")),
    ("chaos", 64): ("20c0526f5b85db3d",
                    ("be337f03f6d3eff3", None),
                    ("2ae10b2db55ebf18", "3460300733f2e1e3"),
                    ("320ef29ffd74022d", "f3bb96adfe3dfe59")),
    ("chaos", 1): ("c8ce59f4545dd9ad",
                   ("89abd752036d2ff1", None),
                   ("ff0e928920e798b2", "9ba05b783827a9a6"),
                   ("b11f951e3226815b", "d75a185c461e798f")),
}

#: Four-replica fleet-chaos run, per trace sample rate: (cluster
#: report, merged Chrome trace).
FLEET_DIGESTS = {
    0: ("2298817f15df699a", None),
    1: ("2298817f15df699a", "bd8579ae4736f511"),
    10: ("2298817f15df699a", "257db4a1fc19b702"),
}


#: Fleet configurations beyond :data:`FLEET_DIGESTS`, each pinned as
#: (cluster report, fleet registry snapshot, merged Chrome trace at
#: sample 1), recorded with the loop that polled every replica at
#: every stop.  See :func:`matrix_case` for the configurations.
FLEET_MATRIX = {
    "fleet-chaos/round-robin": ("bdec3dfa342d9a05", "8a804715ded70759",
                                "f4ecee5084bcf7e1"),
    "fleet-chaos/least-loaded": ("54930811fa1a5bdc", "3638518336ec79af",
                                 "d1e9dc833514e941"),
    "fleet-chaos/p2c": ("dd4728528e8be087", "24d86607d8fc248e",
                        "7a65f777a5170b59"),
    "fleet-chaos/shape-affinity": ("874a7ada294d2d0e", "af3605812b101a76",
                                   "89289f2a085a803b"),
    "fleet-chaos/device-affinity": ("73f1263f42626945", "a122ef65290b161d",
                                    "2737d579196f80df"),
    "none/least-loaded": ("61e5a5f17e23fdc6", "5ea0ac92b25c68b1",
                          "5b62dba4ef72edcb"),
    "crash/least-loaded": ("eb28d5c4a42299b2", "e556f7a87969135d",
                           "432414f131abcd81"),
    "degrade/least-loaded": ("3867c388f78aaa30", "d80111a3efcf1386",
                             "321a9330b76455e3"),
    "flapping/least-loaded": ("3d4b034b081c5a68", "ce369e66f6de7a70",
                              "2df9a5d6fb0e6f3d"),
    "domain-outage/least-loaded": ("2fceb67a066aca49", "b7b6c84070f3275d",
                                   "46bf7ae790be4f9a"),
    "autoscale": ("4fb4929cc3c6168d", "ad8573bfa12698a7",
                  "235dc43737fdf98c"),
    "kills": ("176cd1f55a9abe65", "b9e94e4bf0cc39ee", "177ee5adb7e5ff40"),
    "straggler": ("d284696ffca318ce", "47851101420d3bd2",
                  "527d12bdf4e05541"),
}


def matrix_case(name):
    """``(config, trace)`` of one :data:`FLEET_MATRIX` row."""
    if name == "autoscale":
        # test_fleet's drain-back-down scenario on a 1 s trace: one
        # scale-up, then a drain once the SLO recovers.
        slo = SLOPolicy(rules=(SLORule(name="p99", kind="latency_p99",
                                       threshold=0.03),), window_s=0.05)
        return ClusterConfig(
            replicas=1, policy="least-loaded", slo=slo, window_s=0.25,
            autoscale=AutoscalePolicy(min_replicas=1, max_replicas=4,
                                      cooldown_s=0.2)), OVERLOAD_TRACE
    if name == "kills":
        # Slot 1 dies, restarts, and its replacement is killed again.
        return ClusterConfig(
            replicas=3, policy="least-loaded",
            health=HealthConfig(restart_delay_s=0.05, restart_jitter_s=0.0),
            kills=[(1, 0.1), (1, 0.3)]), MATRIX_TRACE
    if name == "straggler":
        return ClusterConfig(
            replicas=3, policy="p2c",
            default_fault_plan=named_plan("straggler", 0.5)), MATRIX_TRACE
    plan, policy = name.split("/")
    devices = (("k40c", "k40c", "maxwell", "maxwell")
               if policy == "device-affinity" else ())
    return ClusterConfig(
        replicas=4, policy=policy, devices=devices,
        health=HealthConfig(hedge_after_s=0.02),
        fleet_fault_plan=named_fleet_plan(plan, duration_s=0.5, replicas=4),
        telemetry=TelemetryConfig(window_s=0.25)), MATRIX_TRACE


def cold_caches() -> None:
    """Drop the process-wide gpusim memo and evaluation cache: their
    hit/miss traffic lands in the run's registry, so its digest is only
    reproducible from a cold start."""
    memo.clear_all()
    evalcache.reset_cache()


def digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def report_bytes(fault_plan=None, max_batch=64, trace_sample=0):
    policy = (BatchPolicy() if max_batch > 1
              else BatchPolicy(max_batch=1, max_wait_s=0.0))
    server = Server(ServerConfig(policy=policy), fault_plan=fault_plan,
                    fault_seed=11)
    if trace_sample:
        server.enable_tracing(sample=trace_sample)
    report = server.run(TRACE)
    return json.dumps(report.to_dict(), sort_keys=True)


def server_digests(plan, max_batch):
    """The :data:`SERVER_DIGESTS` row of one fresh run per sample."""
    policy = (BatchPolicy() if max_batch > 1
              else BatchPolicy(max_batch=1, max_wait_s=0.0))
    fault = None if plan == "none" else named_plan(plan, duration_s=1.0)
    reports, cells = set(), []
    for sample in SAMPLES:
        cold_caches()
        server = Server(ServerConfig(policy=policy), fault_plan=fault,
                        fault_seed=11)
        tracer = server.enable_tracing(sample=sample) if sample else None
        reports.add(digest(server.run(TRACE).to_dict()))
        registry = server.obs.registry
        cells.append((digest(registry.snapshot()),
                      None if tracer is None
                      else digest(chrome_trace(tracer, registry))))
    # Tracing only observes the lane: one report across every rate.
    assert len(reports) == 1
    return (reports.pop(),) + tuple(cells)


def fleet_chaos_digests(sample):
    """The :data:`FLEET_DIGESTS` row of one fresh run."""
    cold_caches()
    cluster = Cluster(ClusterConfig(
        replicas=4, policy="least-loaded",
        health=HealthConfig(hedge_after_s=0.02),
        fleet_fault_plan=named_fleet_plan("fleet-chaos", duration_s=1.0,
                                          replicas=4),
        telemetry=TelemetryConfig(window_s=0.25)))
    tracer = cluster.enable_tracing(sample=sample) if sample else None
    report = digest(cluster.run(FLEET_TRACE).to_dict())
    trace = None if tracer is None else digest(cluster_chrome_trace(
        tracer, cluster.replica_tracers, cluster.obs.registry))
    return report, trace


class TestMemoByteIdentity:
    def test_plain_run_identical(self):
        assert server_digests("none", 64) == SERVER_DIGESTS[("none", 64)]

    def test_batch1_run_identical(self):
        assert server_digests("none", 1) == SERVER_DIGESTS[("none", 1)]

    @pytest.mark.parametrize("plan", ["straggler", "transient-top",
                                      "memory-pressure", "cache-chaos",
                                      "chaos"])
    def test_fault_plans_identical(self, plan):
        # The fault ladder replays byte-exactly, batched and at
        # batch 1, including the memory-pressure walks.
        for max_batch in (64, 1):
            assert (server_digests(plan, max_batch)
                    == SERVER_DIGESTS[(plan, max_batch)])

    @pytest.mark.parametrize("sample", sorted(FLEET_DIGESTS))
    def test_fleet_chaos_identical(self, sample):
        assert fleet_chaos_digests(sample) == FLEET_DIGESTS[sample]

    @pytest.mark.parametrize("case", sorted(FLEET_MATRIX))
    def test_fleet_matrix_identical(self, case):
        cold_caches()
        config, trace = matrix_case(case)
        cluster = Cluster(config)
        tracer = cluster.enable_tracing(sample=1)
        report = cluster.run(trace)
        registry = cluster.obs.registry
        assert (digest(report.to_dict()), digest(registry.snapshot()),
                digest(cluster_chrome_trace(tracer, cluster.replica_tracers,
                                            registry))) == FLEET_MATRIX[case]

    def test_fleet_chaos_polls_only_due_replicas(self, monkeypatch):
        # At most two polls per routed arrival on the pinned fleet-chaos
        # run; polling every replica at every stop made about nine.
        polls = []
        poll = Replica.poll

        def counted(replica, now_s, drain=False):
            polls.append(now_s)
            return poll(replica, now_s, drain=drain)

        monkeypatch.setattr(Replica, "poll", counted)
        cluster = Cluster(ClusterConfig(
            replicas=4, policy="least-loaded",
            health=HealthConfig(hedge_after_s=0.02),
            fleet_fault_plan=named_fleet_plan("fleet-chaos", duration_s=1.0,
                                              replicas=4),
            telemetry=TelemetryConfig(window_s=0.25)))
        cluster.run(FLEET_TRACE)
        routed = sum(cluster.router.routed.values())
        assert routed > 0
        assert len(polls) <= 2 * routed


class TestHeadHeap:
    def offer(self, queue, rid, key, t_s):
        return queue.offer(Arrival(rid, t_s, "m", "l", key))

    def scan_oldest(self, queue):
        """The O(lanes) reference the heap replaced."""
        best = None
        for key, lane in queue._lanes.items():
            if lane and (best is None or lane[0].t_s < best[1].t_s):
                best = (key, lane[0])
        return best

    def test_matches_linear_scan_through_churn(self):
        queue = AdmissionQueue(max_depth=512)
        rid = 0
        for step in range(200):
            key = KEY if step % 3 else KEY2
            self.offer(queue, rid, key, 0.001 * step)
            rid += 1
            if step % 5 == 4:
                head = queue.oldest_lane()
                assert head == self.scan_oldest(queue)
                queue.take(head[0], 2)
            assert queue.oldest_lane() == self.scan_oldest(queue)

    def test_tie_breaks_by_lane_creation_order(self):
        queue = AdmissionQueue()
        self.offer(queue, 0, KEY, 1.0)
        self.offer(queue, 1, KEY2, 1.0)  # same arrival, later lane
        assert queue.oldest_lane()[0] == KEY

    def test_shed_rebuilds_heap(self):
        queue = AdmissionQueue(timeout_s=1.5)
        self.offer(queue, 0, KEY, 0.0)
        self.offer(queue, 1, KEY, 5.0)
        self.offer(queue, 2, KEY2, 1.0)
        dropped = queue.shed_expired(2.0)
        assert [r.rid for r in dropped] == [0]
        assert queue.oldest_lane() == self.scan_oldest(queue)
        assert queue.oldest_lane()[1].rid == 2

    def test_out_of_order_offer_keeps_min_deadline(self):
        queue = AdmissionQueue(timeout_s=0.5)
        self.offer(queue, 1, KEY, 0.9)
        # An older arrival requeued behind a newer one (a cluster
        # requeue): its earlier deadline sits behind a later one, so
        # the lane goes unsorted but still sheds.
        self.offer(queue, 0, KEY, 0.1)
        dropped = queue.shed_expired(1.0)
        assert [r.rid for r in dropped] == [0]
        assert queue.oldest_lane()[1].rid == 1

    def test_drain_clears_heap(self):
        queue = AdmissionQueue()
        self.offer(queue, 0, KEY, 1.0)
        queue.drain()
        assert queue.oldest_lane() is None
        assert queue._head_heap == []


class TestObserveMany:
    def test_equivalent_to_loop(self):
        reg = MetricsRegistry()
        one, many = reg.histogram("one"), reg.histogram("many")
        values = [0.5, 1.25, 3.0]
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert one.observations == many.observations
        assert one.snapshot_value() == many.snapshot_value()

    def test_rejects_non_finite_and_stays_clean(self):
        hist = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            hist.observe_many([1.0, float("nan"), 2.0])
        # All-or-nothing: a rejected batch must not half-apply.
        assert hist.observations == []

    def test_null_registry_noop(self):
        reg = NullRegistry()
        hist = reg.histogram("h")
        hist.observe_many([1.0, float("inf")])  # must not raise or record
        assert hist.observations == []
        assert len(reg) == 0


class TestReplayTransient:
    SIZES = [10 << 20, 900 << 20, 30 << 20]

    @staticmethod
    def plan(sizes):
        return [("t", s) for s in sizes]

    def test_same_peak_as_real_loop(self):
        plan = self.plan(self.SIZES)
        fast = DeviceAllocator(TITAN_X)
        peak = fast.replay_transient(plan, replay(plan, 0, float("inf")))
        real_peak, real_in_use, real_err = episode(
            plan, TITAN_X.global_memory_bytes, fast.baseline)
        assert real_err is None
        assert fast.peak == peak == real_peak
        assert fast.baseline == real_in_use

    def test_same_oom_at_same_buffer(self):
        plan = self.plan([8 << 30, 6 << 30])  # second exceeds the 12 GB card
        fast = DeviceAllocator(TITAN_X)
        with pytest.raises(DeviceOOMError) as fast_err:
            fast.replay_transient(plan, replay(plan, 0, float("inf")))
        real_peak, _, real_err = episode(
            plan, TITAN_X.global_memory_bytes, fast.baseline)
        assert type(real_err) is DeviceOOMError
        assert fast_err.value.requested == real_err.requested
        assert fast_err.value.in_use == real_err.in_use
        # The partially-allocated prefix is charged to the peak either
        # way (the real loop's caller frees the prefix afterwards).
        assert fast.peak == real_peak


class TestTraceSampler:
    def run_traced(self, sample):
        server = Server(ServerConfig())
        tracer = server.enable_tracing(sample=sample)
        report = server.run(TRACE)
        return tracer, json.dumps(report.to_dict(), sort_keys=True)

    def test_sample_1_is_plain_tracer(self):
        tracer, _ = self.run_traced(1)
        assert type(tracer) is SimTracer

    def test_sampling_thins_spans_keeps_exact_report(self):
        full, full_report = self.run_traced(1)
        sampled, sampled_report = self.run_traced(4)
        assert isinstance(sampled, TraceSampler)
        # Exact unit accounting, thinned span forest.
        assert sampled.units_total == len(full.find("serve.batch"))
        kept = len(sampled.find("serve.batch"))
        assert kept == sampled.units_kept
        assert kept == (sampled.units_total + 3) // 4
        assert sampled.span_count() < full.span_count()
        # Sampling is host-side only: the report bytes do not move.
        assert sampled_report == full_report

    def test_untraced_report_matches_traced(self):
        # Tracing (full or sampled) must not perturb simulated results.
        assert report_bytes() == self.run_traced(1)[1]
        assert report_bytes() == report_bytes(trace_sample=4)

    def test_sample_validation(self):
        server = Server(ServerConfig())
        with pytest.raises(ValueError):
            server.enable_tracing(sample=0)
