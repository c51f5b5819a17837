"""The fleet loop's due rule: polling only the replicas with work due
must be indistinguishable from polling every live replica at every
stop and recomputing each replica's next event from its queue — same
report, same registries, same Chrome trace, byte for byte.
"""

import hashlib
import json
from math import inf

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (POLICIES, Cluster, ClusterConfig, HealthConfig,
                           Replica)
from repro.core import evalcache
from repro.faults import FLEET_PLAN_NAMES, named_fleet_plan
from repro.faults.plan import PLAN_NAMES, named_plan
from repro.gpusim import memo
from repro.obs.export import cluster_chrome_trace
from repro.obs.timeseries import TelemetryConfig
from repro.serve import (Arrival, BatchPolicy, ServerConfig, TrafficSpec,
                         generate_trace)
from repro.serve.loadgen import MODEL_SHAPES
from repro.serve.request import shape_key

DURATION_S = 0.3


@st.composite
def fleet_runs(draw):
    """A short, often overloaded fleet run: ``(config, trace)``."""
    replicas = draw(st.integers(1, 5))
    fleet_plan = (draw(st.sampled_from(FLEET_PLAN_NAMES))
                  if replicas >= 2 else "none")
    kills = draw(st.lists(
        st.tuples(st.integers(0, replicas - 1),
                  st.integers(1, 25).map(lambda k: k / 100)),
        max_size=3))
    hedge = draw(st.sampled_from([None, 0.005, 0.02]))
    health = (HealthConfig(hedge_after_s=hedge, restart_delay_s=0.03)
              if fleet_plan != "none" or hedge or draw(st.booleans())
              else None)
    server_plan = draw(st.sampled_from(PLAN_NAMES))
    policy = BatchPolicy(max_batch=draw(st.sampled_from([1, 4, 16, 64])),
                         max_wait_s=draw(st.sampled_from([0.0, 0.001, 0.004,
                                                          0.02])))
    # A timeout shorter than the max-wait lets requests expire while
    # nothing else is due, so stops that only shed are exercised too.
    timeout_s = draw(st.sampled_from([0.005, 0.05, 0.25]))
    config = ClusterConfig(
        replicas=replicas,
        policy=draw(st.sampled_from(POLICIES)),
        server=ServerConfig(policy=policy, queue_depth=64,
                            timeout_s=timeout_s),
        seed=draw(st.integers(0, 2 ** 16)),
        kills=kills,
        health=health,
        fleet_fault_plan=(named_fleet_plan(fleet_plan, DURATION_S, replicas)
                          if fleet_plan != "none" else None),
        default_fault_plan=named_plan(server_plan, DURATION_S),
        telemetry=TelemetryConfig(window_s=0.05))
    trace = generate_trace(TrafficSpec(
        duration_s=DURATION_S, seed=draw(st.integers(0, 2 ** 16)),
        rate_rps=draw(st.sampled_from([1500.0, 4000.0, 8000.0]))))
    return config, trace


def run_bytes(config, trace):
    """sha256 of everything a fleet run exports, in a fixed order."""
    memo.clear_all()
    evalcache.reset_cache()
    cluster = Cluster(config)
    tracer = cluster.enable_tracing(sample=1)
    report = cluster.run(trace)
    registry = cluster.obs.registry
    docs = (report.to_dict(), registry.snapshot(),
            [r.server.obs.registry.snapshot() for r in cluster.replicas],
            cluster.telemetry.rollups.windows,
            cluster_chrome_trace(tracer, cluster.replica_tracers, registry))
    return [hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
            .hexdigest() for doc in docs]


def poll_everyone(replica, now_s, drain=False):
    """Declare every live replica due: the loop then polls all of them
    at every stop, and Replica.poll's own guards skip the busy and the
    down ones."""
    return True


def next_event_from_queue(replica, now_s):
    """A replica's horizon term read afresh at every stop: its clock
    while busy, else (unless down) the batcher's max-wait release."""
    server = replica.server
    if server.clock.now_s > now_s:
        return server.clock.now_s
    return inf if replica.down else server.batcher.release_at(server.queue)


def reference_bytes(config, trace):
    """:func:`run_bytes` with nothing cached between stops."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Replica, "catch_up", poll_everyone)
        mp.setattr(Replica, "next_event_s", next_event_from_queue)
        return run_bytes(config, trace)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(fleet_runs())
def test_polling_only_due_replicas_changes_nothing(run):
    config, trace = run
    assert run_bytes(config, trace) == reference_bytes(config, trace)


#: Round-robin sends arrivals to replicas 0, 1, 0, 1, ...  In both
#: plans a hedge resolves while the losing replica is idle, its copy
#: heads the loser's oldest lane, and a full lane waits behind it; the
#: last two arrivals keep the fleet out of drain mode meanwhile.
CANCEL_IN_FRONT_OF_FULL_LANE = {
    # The copy fills replica 1's conv2 lane, which is released at
    # once: the hedge wins and the primary, replica 0, loses.
    "hedge_wins": [(0.000, "conv2"), (0.001, "conv2"), (0.002, "conv3"),
                   (0.003, "conv4"), (0.004, "conv3"),
                   (0.100, "conv4"), (0.100, "conv4")],
    # Replica 0 fills the primary's lane first: the copy on replica 1
    # loses.
    "hedge_cancels": [(0.000, "conv2"), (0.001, "conv3"), (0.002, "conv4"),
                      (0.006, "conv3"), (0.007, "conv2"),
                      (0.100, "conv4"), (0.100, "conv4")],
}


@pytest.mark.parametrize("outcome", sorted(CANCEL_IN_FRONT_OF_FULL_LANE))
def test_cancelled_copy_in_front_of_a_full_lane(outcome):
    """The cancel leaves a full lane oldest on an idle replica, which
    the loop must poll at the next stop while the horizon keeps that
    lane's max-wait release."""
    layers = dict(MODEL_SHAPES["AlexNet"])
    trace = [Arrival(rid=rid, t_s=t, model="AlexNet", layer=layer,
                     key=shape_key(layers[layer]))
             for rid, (t, layer)
             in enumerate(CANCEL_IN_FRONT_OF_FULL_LANE[outcome])]
    config = ClusterConfig(
        replicas=2, policy="round-robin",
        server=ServerConfig(policy=BatchPolicy(max_batch=2, max_wait_s=0.02),
                            queue_depth=64, timeout_s=0.25),
        health=HealthConfig(probe_interval_s=0.005, hedge_after_s=0.0045),
        telemetry=TelemetryConfig(window_s=0.05))
    assert run_bytes(config, trace) == reference_bytes(config, trace)
    report = Cluster(config).run(trace)
    assert report.health[outcome] >= 1
    assert report.completed == len(trace)


def test_idle_clock_moves_fire_faults_in_the_replica_session():
    """Plan-cache corruptions fire on the clock: one that falls due
    while an idle replica's clock only moves must still count in that
    replica's registry and trace, as a poll would count it."""
    config = ClusterConfig(
        replicas=3, policy="least-loaded", seed=5,
        default_fault_plan=named_plan("cache-chaos", 0.5),
        telemetry=TelemetryConfig(window_s=0.05))
    trace = generate_trace(TrafficSpec(duration_s=0.5, rate_rps=1500,
                                       seed=3))
    assert run_bytes(config, trace) == reference_bytes(config, trace)
