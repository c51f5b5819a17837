"""Scheduler: virtual clock, determinism, batching wins, memory."""

import math
from dataclasses import replace

import pytest

from repro.core.advisor import Advisor
from repro.core.evalcache import EvalCache
from repro.frameworks.calibration import CONTEXT_BYTES
from repro.frameworks.registry import (resolve_implementation,
                                       shared_implementations)
from repro.gpusim.allocator import replay
from repro.gpusim.device import DEVICES, K40C
from repro.serve import (Arrival, BatchPolicy, Server, ServerConfig,
                         TrafficSpec, generate_trace)
from repro.serve.loadgen import MODEL_SHAPES
from repro.serve.request import batched_config, shape_key
from repro.serve.scheduler import FORWARD_FRACTION

#: AlexNet conv2 — strong batching amortization, supported everywhere.
KEY = shape_key(MODEL_SHAPES["AlexNet"][1][1])


def arrivals(times, key=KEY):
    return [Arrival(rid=i, t_s=t, model="AlexNet", layer="conv2", key=key)
            for i, t in enumerate(times)]


def small_config(**kwargs):
    defaults = dict(policy=BatchPolicy(max_batch=8, max_wait_s=0.002),
                    queue_depth=64, timeout_s=0.25)
    defaults.update(kwargs)
    return ServerConfig(**defaults)


class TestClock:
    def test_completions_respect_causality(self):
        rep_server = Server(small_config())
        trace = arrivals([0.001 * i for i in range(20)])
        stats = rep_server.run(trace)
        assert stats.completed == 20
        # The clock never rewinds: makespan covers the last arrival.
        assert rep_server.clock.now_s >= trace[-1].t_s
        assert stats.duration_s == rep_server.clock.now_s

    def test_latency_includes_queueing_and_service(self):
        # While the second arrival is still pending the first request
        # waits out the full max_wait (2 ms) before release; its
        # latency must include that queueing delay.
        stats = Server(small_config()).run(arrivals([0.0, 0.01]))
        assert stats.latency_p99_ms > 2.0

    def test_lone_request_released_in_drain_mode(self):
        stats = Server(small_config()).run(arrivals([0.0]))
        # No pending arrivals -> no max_wait hold: service only.
        assert stats.latency_p50_ms < 2.0

    def test_empty_trace(self):
        stats = Server(small_config()).run([])
        assert stats.completed == 0
        assert stats.duration_s == 0.0


class TestDeterminism:
    def test_same_trace_same_report(self):
        spec = TrafficSpec(duration_s=1.0, rate_rps=800, seed=13)
        trace = generate_trace(spec)
        a = Server(small_config()).run(trace).to_dict()
        b = Server(small_config()).run(trace).to_dict()
        assert a == b

    def test_end_to_end_seeded_determinism(self):
        spec = TrafficSpec(duration_s=1.0, rate_rps=800, seed=21)
        a = Server(small_config()).run(generate_trace(spec)).to_dict()
        b = Server(small_config()).run(generate_trace(spec)).to_dict()
        assert a == b


class TestBatchingWins:
    @pytest.fixture(scope="class")
    def saturating_reports(self):
        # Long enough that the cold-start plan misses (one per
        # (shape, bucket) key) are amortized into steady state.
        trace = generate_trace(TrafficSpec(duration_s=6.0, rate_rps=6000,
                                           seed=7))
        batched = Server(ServerConfig()).run(trace)
        single = Server(ServerConfig(policy=BatchPolicy(
            max_batch=1, max_wait_s=0.0))).run(trace)
        return batched, single

    def test_throughput_strictly_higher(self, saturating_reports):
        batched, single = saturating_reports
        assert batched.throughput_rps > single.throughput_rps

    def test_batched_sheds_less(self, saturating_reports):
        batched, single = saturating_reports
        assert batched.shed_rate < single.shed_rate

    def test_batches_actually_form(self, saturating_reports):
        batched, _ = saturating_reports
        assert batched.mean_batch_fill > 4
        assert max(batched.batch_histogram) > 1

    def test_plan_cache_steady_state(self, saturating_reports):
        batched, _ = saturating_reports
        assert batched.plan_cache["hit_rate"] > 0.9

    def test_winner_shifts_with_batching(self, saturating_reports):
        batched, single = saturating_reports
        # The Fig. 3a story: FFT wins at large batch, never at batch 1.
        assert "fbfft" in batched.implementations
        assert "fbfft" not in single.implementations


class TestLoadControl:
    def test_tiny_queue_rejects(self):
        config = small_config(queue_depth=2)
        stats = Server(config).run(arrivals([0.0] * 50))
        assert stats.rejected > 0
        assert stats.completed + stats.rejected + stats.shed == 50

    def test_tight_timeout_sheds(self):
        # 50 simultaneous arrivals, batches of 2, sub-millisecond
        # timeout: most requests expire before service starts.
        config = small_config(
            policy=BatchPolicy(max_batch=2, max_wait_s=0.0),
            timeout_s=0.0005, queue_depth=64)
        stats = Server(config).run(arrivals([0.0] * 50))
        assert stats.shed > 0

    def test_accounting_balances(self):
        trace = generate_trace(TrafficSpec(duration_s=0.5, rate_rps=2000,
                                           seed=3))
        stats = Server(small_config(queue_depth=16)).run(trace)
        assert (stats.completed + stats.rejected + stats.shed
                + stats.oom_shed == stats.offered == len(trace))


class TestMemory:
    def test_oom_forces_split(self):
        server = Server(ServerConfig(policy=BatchPolicy(max_batch=64,
                                                        max_wait_s=0.0)))
        # Occupy most of the 12 GB device so a batch-64 plan cannot
        # allocate, but batch 1 still can.
        server._allocator.baseline += int(11.3 * 2**30)
        stats = server.run(arrivals([0.0] * 64))
        assert stats.oom_splits > 0
        assert stats.completed == 64

    def test_infeasible_budget_sheds(self):
        # A device with 1 MB beside the CUDA context fits no plan.
        tiny = replace(K40C, global_memory_bytes=CONTEXT_BYTES + 2**20)
        stats = Server(small_config(device=tiny)).run(arrivals([0.0] * 4))
        assert stats.completed == 0
        assert stats.oom_shed == 4
        assert stats.shed_by_cause == {"infeasible": 4}

    def test_peak_memory_reported(self):
        trace = generate_trace(TrafficSpec(duration_s=0.2, rate_rps=2000,
                                           seed=3))
        server = Server(small_config())
        stats = server.run(trace)
        assert stats.peak_memory_mb > 0
        # Fault-free, every cached ranking was dispatched at rank 0, and
        # the reported (Fig. 5) peak is the largest of their peaks.
        dispatched = [plans[0] for plans in server.plan_cache._entries.values()
                      if plans]
        assert len(dispatched) > 1
        assert stats.peak_memory_mb * 2**20 == max(
            plan.peak_memory_bytes for plan in dispatched)

    def test_ranked_peak_is_the_memory_plan_footprint(self):
        """Dispatch charges ``peak_memory_bytes - CONTEXT_BYTES`` without
        building the memory plan; for every plan a serving plan cache
        can hold, that is the plan's footprint from zero."""
        keys = sorted({shape_key(config) for layers in MODEL_SHAPES.values()
                       for _, config in layers})
        advisor = Advisor(implementations=shared_implementations(),
                          cache=EvalCache())
        checked = 0
        for device in DEVICES.values():
            for key in keys:
                for batch in (1, 2, 4, 8, 16, 32, 64):
                    config = batched_config(key, batch)
                    for plan in advisor.plan_ranked(config, device=device):
                        impl = resolve_implementation(plan.implementation)
                        assert (plan.peak_memory_bytes - CONTEXT_BYTES
                                == replay(impl.memory_plan(config), 0,
                                          math.inf)), (device.name, key,
                                                       batch, plan)
                        checked += 1
        assert checked > len(DEVICES) * len(keys) * 7


class TestServiceTime:
    def test_forward_only_scales_plan_time(self):
        # Inference is charged the forward share of the ranked
        # training-iteration time.
        server = Server(small_config())
        server.run(arrivals([0.0]))
        (plans,) = server.plan_cache._entries.values()
        assert server.clock.now_s == plans[0].time_s * FORWARD_FRACTION
