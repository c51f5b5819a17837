"""Serving laws over the dispatch records, on random traces and every
named fault plan: each arrival is either served or shed by exactly one
cause, every dispatch record is one released batch, and the latency,
queue-wait and telemetry streams are the records read back in order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import PLAN_NAMES, named_plan
from repro.obs.timeseries import TelemetryConfig
from repro.serve import (BatchPolicy, Server, ServerConfig, TrafficSpec,
                         generate_trace)


#: Poisson or bursty traffic of at most half a simulated second.
TRAFFIC = st.builds(
    TrafficSpec, duration_s=st.sampled_from([0.2, 0.5]),
    rate_rps=st.sampled_from([1500.0, 6000.0]),
    pattern=st.sampled_from(["poisson", "bursty"]),
    seed=st.integers(0, 2 ** 16), burst_period_s=st.just(0.1))


@pytest.mark.parametrize("max_batch", [1, 64])
@pytest.mark.parametrize("plan", PLAN_NAMES)
@settings(max_examples=2, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(traffic=TRAFFIC, fault_seed=st.integers(0, 2 ** 16))
def test_dispatch_records_account_for_every_arrival(plan, max_batch, traffic,
                                                    fault_seed):
    trace = generate_trace(traffic)
    server = Server(ServerConfig(policy=BatchPolicy(max_batch=max_batch),
                                 telemetry=TelemetryConfig(window_s=0.05)),
                    fault_plan=named_plan(plan, traffic.duration_s),
                    fault_seed=fault_seed)
    report = server.run(trace)
    stats = server.stats
    served = list(stats.served())

    assert report.offered == len(trace) == (
        report.completed + sum(report.shed_by_cause.values()))
    assert stats.dispatch_count == sum(report.batch_histogram.values())
    assert len(served) == report.completed

    registry = server.obs.registry
    assert registry.histogram("serve_latency_seconds").observations == [
        finish_s - request.t_s for request, _, finish_s in served]
    assert registry.histogram("serve_queue_wait_seconds").observations == [
        start_s - request.t_s for request, start_s, _ in served]
    assert server.telemetry.completions_observed == report.completed
