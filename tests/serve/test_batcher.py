"""Dynamic batcher: max-batch / max-wait policy and bucket padding."""

import pytest

from repro.serve.batcher import Batch, BatchPolicy, DynamicBatcher, next_pow2
from repro.serve.loadgen import Arrival
from repro.serve.queue import AdmissionQueue

KEY_A = (27, 256, 5, 1, 96, 2)
KEY_B = (13, 384, 3, 1, 256, 1)


def req(rid, key=KEY_A, arrival=0.0):
    return Arrival(rid=rid, t_s=arrival, model="m", layer="l", key=key)


def filled_queue(n, key=KEY_A, arrival=0.0):
    q = AdmissionQueue(max_depth=1024)
    for i in range(n):
        q.offer(req(i, key=key, arrival=arrival))
    return q


class TestNextPow2:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16), (33, 64)])
    def test_values(self, n, expected):
        assert next_pow2(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            next_pow2(0)


class TestPolicy:
    def test_padded_buckets(self):
        p = BatchPolicy(max_batch=32, bucket=True)
        assert p.padded(5) == 8
        assert p.padded(32) == 32

    def test_padded_clips_to_max_batch(self):
        p = BatchPolicy(max_batch=24, bucket=True)
        assert p.padded(20) == 24

    def test_no_bucket_passthrough(self):
        p = BatchPolicy(max_batch=32, bucket=False)
        assert p.padded(5) == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1)


class TestRelease:
    def test_empty_queue_yields_none(self):
        b = DynamicBatcher(BatchPolicy())
        assert b.next_batch(AdmissionQueue(), now_s=0.0) is None

    def test_holds_until_wait_expires(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_s=0.005))
        q = filled_queue(3, arrival=0.0)
        assert b.next_batch(q, now_s=0.001) is None
        batch = b.next_batch(q, now_s=0.005)
        assert batch is not None and batch.fill == 3

    def test_releases_when_full(self):
        b = DynamicBatcher(BatchPolicy(max_batch=4, max_wait_s=10.0))
        q = filled_queue(4)
        batch = b.next_batch(q, now_s=0.0)
        assert batch is not None
        assert batch.fill == 4 and batch.batch == 4

    def test_caps_at_max_batch(self):
        b = DynamicBatcher(BatchPolicy(max_batch=4, max_wait_s=10.0))
        q = filled_queue(10)
        batch = b.next_batch(q, now_s=0.0)
        assert batch.fill == 4
        assert len(q) == 6

    def test_drain_releases_immediately(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_s=10.0))
        q = filled_queue(2)
        assert b.next_batch(q, now_s=0.0) is None
        batch = b.next_batch(q, now_s=0.0, drain=True)
        assert batch is not None and batch.fill == 2

    def test_padding_and_counter(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_s=0.0))
        q = filled_queue(5)
        batch = b.next_batch(q, now_s=1.0)
        assert batch.fill == 5 and batch.batch == 8
        assert batch.fill_fraction == pytest.approx(5 / 8)
        assert b.padded_slots == 3

    def test_oldest_lane_served_first(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_s=0.0))
        q = AdmissionQueue()
        q.offer(req(1, key=KEY_A, arrival=0.5))
        q.offer(req(2, key=KEY_B, arrival=0.1))
        batch = b.next_batch(q, now_s=1.0)
        assert batch.key == KEY_B

    def test_batch_config_uses_padded_size(self):
        b = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_s=0.0))
        batch = b.next_batch(filled_queue(3), now_s=1.0)
        assert batch.config().batch == 4

    def test_release_at_tracks_oldest_head(self):
        policy = BatchPolicy(max_batch=8, max_wait_s=0.004)
        b = DynamicBatcher(policy)
        q = filled_queue(1, arrival=0.010)
        assert b.release_at(q) == pytest.approx(0.014)
        assert b.release_at(AdmissionQueue()) == float("inf")

    def test_oldest_full_reads_only_the_oldest_lane(self):
        """A full lane waiting behind the oldest lane is not released
        (next_batch serves only the oldest lane), so it counts only
        once it becomes the oldest."""
        b = DynamicBatcher(BatchPolicy(max_batch=2, max_wait_s=0.004))
        q = AdmissionQueue()
        assert not b.oldest_full(q)
        q.offer(req(0, key=KEY_A, arrival=0.0))
        q.offer(req(1, key=KEY_B, arrival=0.001))
        q.offer(req(2, key=KEY_B, arrival=0.002))
        assert not b.oldest_full(q)
        assert b.next_batch(q, now_s=0.003) is None
        q.remove(KEY_A, 0)
        assert b.oldest_full(q)
        assert b.next_batch(q, now_s=0.003).key == KEY_B

    def test_release_time_is_reachable(self):
        """advance_to(release_at()) must satisfy the release guard —
        the exact float comparison the scheduler relies on."""
        policy = BatchPolicy(max_batch=8, max_wait_s=0.002)
        b = DynamicBatcher(policy)
        q = filled_queue(1, arrival=0.026088123456)
        release = b.release_at(q)
        assert b.next_batch(q, now_s=release) is not None
