"""Routing policies: determinism, balance, affinity, failover."""

import pytest

from repro.cluster.router import (POLICIES, LeastLoaded, PowerOfTwo,
                                  RoundRobin, Router, ShapeAffinity,
                                  make_policy)
from repro.obs.context import Observability
from repro.serve.loadgen import Arrival

KEY_A = (27, 256, 5, 1, 96, 2)
KEY_B = (13, 384, 3, 1, 256, 1)


class FakeReplica:
    """Just enough surface for the policies: index, load, routable."""

    def __init__(self, index, depth=0, busy=0.0, routable=True):
        self.index = index
        self._depth = depth
        self._busy = busy
        self.routable = routable

    def load(self, now_s):
        return (self._depth, self._busy)


def req(rid, key=KEY_A):
    return Arrival(rid=rid, t_s=0.0, model="m", layer="l", key=key)


def fleet(n=4, **kwargs):
    return [FakeReplica(i, **kwargs) for i in range(n)]


class TestMakePolicy:
    def test_every_name_constructs(self):
        for name in POLICIES:
            assert make_policy(name, seed=7).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_policy("random", seed=7)


class TestRoundRobin:
    def test_rotates_in_index_order(self):
        policy = RoundRobin()
        replicas = fleet(3)
        picks = [policy.choose(replicas, req(i), 0.0).index
                 for i in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_cursor_survives_fleet_resize(self):
        policy = RoundRobin()
        replicas = fleet(4)
        policy.choose(replicas, req(0), 0.0)
        policy.choose(replicas, req(1), 0.0)
        # A replica drains: the cursor keeps advancing over the
        # smaller eligible set without resetting.
        assert policy.choose(replicas[:2], req(2), 0.0).index == 0


class TestLeastLoaded:
    def test_prefers_smallest_queue(self):
        replicas = [FakeReplica(0, depth=3), FakeReplica(1, depth=1),
                    FakeReplica(2, depth=2)]
        assert LeastLoaded().choose(replicas, req(0), 0.0).index == 1

    def test_busy_seconds_break_queue_ties(self):
        replicas = [FakeReplica(0, depth=1, busy=0.004),
                    FakeReplica(1, depth=1, busy=0.001)]
        assert LeastLoaded().choose(replicas, req(0), 0.0).index == 1

    def test_full_tie_goes_to_lowest_index(self):
        assert LeastLoaded().choose(fleet(4), req(0), 0.0).index == 0


class TestPowerOfTwo:
    def test_same_seed_same_draws(self):
        replicas = fleet(5)
        a = [PowerOfTwo(3).choose(replicas, req(i), 0.0).index
             for i in range(50)]
        b = [PowerOfTwo(3).choose(replicas, req(i), 0.0).index
             for i in range(50)]
        assert a == b

    def test_draws_are_distinct_pairs(self):
        # With two replicas every draw compares both, so the loaded
        # one is never chosen.
        replicas = [FakeReplica(0, depth=9), FakeReplica(1)]
        policy = PowerOfTwo(11)
        assert all(policy.choose(replicas, req(i), 0.0).index == 1
                   for i in range(20))

    def test_single_replica_consumes_no_randomness(self):
        policy = PowerOfTwo(5)
        one = [FakeReplica(0)]
        for i in range(3):
            policy.choose(one, req(i), 0.0)
        # The stream is untouched: the next two-replica draw matches a
        # fresh policy's first draw.
        fresh = PowerOfTwo(5)
        replicas = fleet(4)
        assert (policy.choose(replicas, req(9), 0.0).index
                == fresh.choose(replicas, req(9), 0.0).index)

    def test_idle_fleet_ties_break_to_lower_index(self):
        # All replicas idle: every pair is a tie, so the higher index
        # of a pair never wins — the highest replica is unreachable
        # until load differentiates the fleet.  Deterministic by design.
        replicas = fleet(4)
        policy = PowerOfTwo(23)
        picks = {policy.choose(replicas, req(i), 0.0).index
                 for i in range(80)}
        assert picks == {0, 1, 2}

    def test_load_skew_reaches_the_highest_index(self):
        # Reverse the skew: replica 3 is the least loaded and wins
        # every pair it is drawn into.
        replicas = [FakeReplica(i, depth=3 - i) for i in range(4)]
        policy = PowerOfTwo(23)
        picks = {policy.choose(replicas, req(i), 0.0).index
                 for i in range(80)}
        assert 3 in picks and 0 not in picks


class TestShapeAffinity:
    def test_pins_shape_to_first_replica(self):
        policy = ShapeAffinity()
        replicas = fleet(3)
        first = policy.choose(replicas, req(0, KEY_A), 0.0)
        # Later the pinned replica is the busiest — the pin still wins.
        replicas[first.index]._depth = 50
        assert policy.choose(replicas, req(1, KEY_A), 0.0) is first

    def test_different_shapes_spread_by_load(self):
        policy = ShapeAffinity()
        replicas = fleet(2)
        a = policy.choose(replicas, req(0, KEY_A), 0.0)
        replicas[a.index]._depth = 1
        b = policy.choose(replicas, req(1, KEY_B), 0.0)
        assert a.index != b.index
        assert policy.pins == {KEY_A: a.index, KEY_B: b.index}

    def test_pin_moves_when_replica_leaves(self):
        policy = ShapeAffinity()
        replicas = fleet(3)
        policy.pins[KEY_A] = 2
        survivor = policy.choose(replicas[:2], req(0, KEY_A), 0.0)
        assert survivor.index in (0, 1)
        assert policy.pins[KEY_A] == survivor.index


class TestRouter:
    def test_skips_unroutable_replicas(self):
        obs = Observability()
        replicas = fleet(3)
        replicas[0].routable = False
        router = Router(RoundRobin(), obs)
        picks = {router.route(req(i), replicas, 0.0).index
                 for i in range(6)}
        assert picks == {1, 2}
        assert router.routed == {1: 3, 2: 3}

    def test_empty_fleet_returns_none_and_counts(self):
        obs = Observability()
        router = Router(RoundRobin(), obs)
        assert router.route(req(0), fleet(2, routable=False), 0.0) is None
        assert router.no_replica == 1
        snap = obs.registry.snapshot()
        assert snap["counters"]["cluster_no_replica_total"] == 1.0

    def test_decision_ledger_records_rid_and_index(self):
        router = Router(RoundRobin(), Observability(),
                        record_decisions=True)
        replicas = fleet(2)
        for i in range(4):
            router.route(req(i), replicas, 0.0)
        assert router.decisions == [(0, 0), (1, 1), (2, 0), (3, 1)]

    def test_routed_counter_is_labelled_per_replica(self):
        obs = Observability()
        router = Router(RoundRobin(), obs)
        replicas = fleet(2)
        for i in range(3):
            router.route(req(i), replicas, 0.0)
        counters = obs.registry.snapshot()["counters"]
        assert counters['cluster_routed_total{replica="0"}'] == 2.0
        assert counters['cluster_routed_total{replica="1"}'] == 1.0
