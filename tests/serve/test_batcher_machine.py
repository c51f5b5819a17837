"""State-machine test of the dynamic batcher against a plain model.

Random sequences of arrivals (in order, and late as a cluster requeue
offers them), clock advances and ``next_batch`` calls, with and
without ``drain``, run against a :class:`DynamicBatcher` over an
:class:`AdmissionQueue` and against a dict of FIFO lists.  Each
example draws its own policy.  After every step the batcher must
agree with the model on whether a batch is released, what it holds,
``release_at`` and ``oldest_full``.
"""

from math import inf

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.loadgen import MODEL_SHAPES, Arrival
from repro.serve.queue import AdmissionQueue
from repro.serve.request import shape_key

KEYS = tuple(shape_key(config) for _, config in MODEL_SHAPES["AlexNet"][:2])
MAX_DEPTH = 8
#: Gaps between steps; 0.0 makes ties, 0.2 outlasts every max wait.
GAPS = st.sampled_from([0.0, 0.03, 0.05, 0.1, 0.2])


class DynamicBatcherMachine(RuleBasedStateMachine):
    @initialize(max_batch=st.integers(1, 4),
                max_wait_s=st.sampled_from([0.0, 0.05, 0.1]),
                bucket=st.booleans())
    def start(self, max_batch, max_wait_s, bucket):
        self.policy = BatchPolicy(max_batch, max_wait_s, bucket)
        self.batcher = DynamicBatcher(self.policy)
        # No timeout: shedding is the queue machine's business.
        self.queue = AdmissionQueue(MAX_DEPTH, timeout_s=inf)
        #: key -> queued arrivals, FIFO; keys in lane creation order.
        self.lanes = {}
        self.now = 0.0
        self.next_rid = 0
        self.released = self.padded_slots = 0

    def offer(self, key, t_s):
        arrival = Arrival(self.next_rid, t_s, "AlexNet", "conv", key)
        self.next_rid += 1
        depth = sum(map(len, self.lanes.values()))
        assert self.queue.offer(arrival) == (depth < MAX_DEPTH)
        if depth < MAX_DEPTH:
            self.lanes.setdefault(key, []).append(arrival)

    def oldest(self):
        """``(head t_s, lane order, key)`` of the oldest head, or None."""
        heads = [(lane[0].t_s, order, key)
                 for order, (key, lane) in enumerate(self.lanes.items())
                 if lane]
        return min(heads) if heads else None

    @rule(key=st.sampled_from(KEYS), gap=GAPS)
    def arrive(self, key, gap):
        self.now += gap
        self.offer(key, self.now)

    @rule(key=st.sampled_from(KEYS), age=GAPS)
    def arrive_late(self, key, age):
        """A requeued request: it arrived ``age`` ago, so it may be
        older than its lane's tail."""
        self.offer(key, max(0.0, self.now - age))

    @rule(gap=GAPS)
    def advance(self, gap):
        self.now += gap

    @rule()
    def advance_to_release(self):
        """Jump to the batcher's own release time, as the scheduler's
        clock does."""
        release = self.batcher.release_at(self.queue)
        if release != inf:
            self.now = max(self.now, release)

    @rule(drain=st.booleans())
    def next_batch(self, drain):
        batch = self.batcher.next_batch(self.queue, self.now, drain=drain)
        head = self.oldest()
        max_batch = self.policy.max_batch
        released = head is not None and (
            drain or len(self.lanes[head[2]]) >= max_batch
            or self.now >= head[0] + self.policy.max_wait_s)
        assert (batch is not None) == released
        if batch is None:
            return
        lane = self.lanes[head[2]]
        assert batch.key == head[2]
        assert batch.requests == tuple(lane[:max_batch])
        assert 1 <= batch.fill <= max_batch
        assert batch.batch == self.policy.padded(batch.fill)
        del lane[:max_batch]
        self.released += 1
        self.padded_slots += batch.batch - batch.fill

    @invariant()
    def release_at_and_oldest_full_agree(self):
        head = self.oldest()
        want = inf if head is None else head[0] + self.policy.max_wait_s
        assert self.batcher.release_at(self.queue) == want
        full = head is not None and \
            len(self.lanes[head[2]]) >= self.policy.max_batch
        assert self.batcher.oldest_full(self.queue) == full

    @invariant()
    def counts_agree(self):
        assert len(self.queue) == sum(map(len, self.lanes.values()))
        assert (self.batcher.released, self.batcher.padded_slots) == \
            (self.released, self.padded_slots)


TestDynamicBatcherMachine = DynamicBatcherMachine.TestCase
TestDynamicBatcherMachine.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None,
    derandomize=True)
