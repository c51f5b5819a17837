"""Admission queue: bounded depth, FIFO lanes, timeout shedding."""

import pytest

from repro.errors import ServerClosedError
from repro.serve.loadgen import Arrival
from repro.serve.queue import AdmissionQueue

KEY_A = (27, 256, 5, 1, 96, 2)
KEY_B = (13, 384, 3, 1, 256, 1)


def req(rid, key=KEY_A, arrival=0.0):
    return Arrival(rid=rid, t_s=arrival, model="m", layer="l", key=key)


class TestAdmission:
    def test_offer_admits(self):
        q = AdmissionQueue(max_depth=4)
        assert q.offer(req(1))
        assert len(q) == 1
        assert q.admitted == 1

    def test_bounded_depth_rejects(self):
        q = AdmissionQueue(max_depth=2)
        assert q.offer(req(1))
        assert q.offer(req(2))
        assert not q.offer(req(3))
        assert len(q) == 2
        assert q.rejected == 1

    def test_depth_bound_is_global_across_lanes(self):
        q = AdmissionQueue(max_depth=2)
        q.offer(req(1, key=KEY_A))
        q.offer(req(2, key=KEY_B))
        assert not q.offer(req(3, key=KEY_A))

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=0)


class TestLanes:
    def test_take_is_fifo(self):
        q = AdmissionQueue()
        for i in range(5):
            q.offer(req(i, arrival=i * 0.001))
        taken = q.take(KEY_A, 3)
        assert [r.rid for r in taken] == [0, 1, 2]
        assert len(q) == 2

    def test_take_respects_lane(self):
        q = AdmissionQueue()
        q.offer(req(1, key=KEY_A))
        q.offer(req(2, key=KEY_B))
        assert [r.rid for r in q.take(KEY_B, 10)] == [2]
        assert len(q) == 1

    def test_take_empty_lane(self):
        q = AdmissionQueue()
        assert q.take(KEY_A, 4) == []

    def test_oldest_lane_picks_longest_waiting_head(self):
        q = AdmissionQueue()
        q.offer(req(1, key=KEY_A, arrival=0.010))
        q.offer(req(2, key=KEY_B, arrival=0.002))
        key, head = q.oldest_lane()
        assert key == KEY_B and head.rid == 2

    def test_oldest_lane_tie_breaks_by_insertion(self):
        q = AdmissionQueue()
        q.offer(req(1, key=KEY_A, arrival=0.5))
        q.offer(req(2, key=KEY_B, arrival=0.5))
        key, _ = q.oldest_lane()
        assert key == KEY_A


class TestShedding:
    def test_shed_expired_drops_only_expired(self):
        q = AdmissionQueue(timeout_s=0.050)
        q.offer(req(1, arrival=0.0))
        q.offer(req(2, arrival=0.040))
        dropped = q.shed_expired(0.060)
        assert [r.rid for r in dropped] == [1]
        assert len(q) == 1
        assert q.shed == 1

    def test_shed_nothing_before_deadline(self):
        q = AdmissionQueue(timeout_s=0.1)
        q.offer(req(1, arrival=0.0))
        assert q.shed_expired(0.1) == []  # deadline is exclusive

    def test_shed_spans_lanes(self):
        q = AdmissionQueue(timeout_s=0.01)
        q.offer(req(1, key=KEY_A))
        q.offer(req(2, key=KEY_B))
        assert len(q.shed_expired(1.0)) == 2
        assert len(q) == 0


class TestShutdown:
    def test_drain_returns_everything_in_lane_order(self):
        q = AdmissionQueue()
        q.offer(req(1, key=KEY_A))
        q.offer(req(2, key=KEY_B))
        q.offer(req(3, key=KEY_A))
        drained = q.drain()
        assert [r.rid for r in drained] == [1, 3, 2]
        assert len(q) == 0
        assert q.closed_out == 3

    def test_drain_leaves_the_queue_open(self):
        q = AdmissionQueue()
        q.offer(req(1))
        q.drain()
        assert not q.is_closed
        assert q.offer(req(2))

    def test_close_drains_and_refuses_further_offers(self):
        q = AdmissionQueue()
        q.offer(req(1))
        drained = q.close()
        assert [r.rid for r in drained] == [1]
        assert q.is_closed
        with pytest.raises(ServerClosedError):
            q.offer(req(2))
        assert q.closed_out == 1

    def test_close_twice_is_a_noop(self):
        q = AdmissionQueue()
        q.offer(req(1))
        assert len(q.close()) == 1
        assert q.close() == []
        assert q.closed_out == 1

    def test_nothing_is_silently_dropped(self):
        q = AdmissionQueue(max_depth=8)
        for i in range(5):
            q.offer(req(i))
        drained = q.close()
        assert q.admitted == len(drained) + len(q)


class TestRequeueDrain:
    """drain(for_requeue=True): a cluster replica handing its queue
    back to the router, not shutting down."""

    def test_requeue_drain_returns_everything(self):
        q = AdmissionQueue()
        q.offer(req(1, key=KEY_A))
        q.offer(req(2, key=KEY_B))
        q.offer(req(3, key=KEY_A))
        assert [r.rid for r in q.drain(for_requeue=True)] == [1, 3, 2]
        assert len(q) == 0

    def test_requeue_drain_stays_out_of_closed_accounting(self):
        q = AdmissionQueue()
        for i in range(4):
            q.offer(req(i))
        q.drain(for_requeue=True)
        # Not a shutdown: nothing was 'closed out' and the queue
        # still accepts traffic.
        assert q.closed_out == 0
        assert not q.is_closed
        assert q.offer(req(9))

    def test_shutdown_drain_still_counts_closed_out(self):
        q = AdmissionQueue()
        q.offer(req(1))
        q.drain()
        assert q.closed_out == 1

    def test_requeued_requests_keep_their_identity(self):
        q = AdmissionQueue()
        original = req(7, arrival=0.003)
        q.offer(original)
        assert q.drain(for_requeue=True) == [original]
