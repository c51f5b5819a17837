"""State-machine test of the admission queue against a plain-list model.

Random sequences of ``offer``, ``take``, ``remove``, ``shed_expired``
and ``drain(for_requeue=True)`` run against both the queue and a dict
of FIFO lists.  Arrivals come in order and, after a requeue drain,
out of order, so the queue's lazy state gets exercised: the stale-low
``_min_deadline``, stale head-heap entries and unsorted lanes.  After
every step the queue must agree with the model.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.serve.loadgen import MODEL_SHAPES, Arrival
from repro.serve.queue import AdmissionQueue
from repro.serve.request import shape_key

KEYS = tuple(shape_key(config) for _, config in MODEL_SHAPES["AlexNet"][:2])
TIMEOUT_S = 0.25
MAX_DEPTH = 6
#: Gaps between arrivals; 0.0 makes ties, 0.3 outlasts the timeout.
GAPS = st.sampled_from([0.0, 0.05, 0.1, 0.3])


class AdmissionQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.queue = AdmissionQueue(MAX_DEPTH, TIMEOUT_S)
        #: key -> queued arrivals, FIFO; keys in lane creation order.
        self.lanes = {}
        self.admitted = self.rejected = 0
        self.now = 0.0
        self.next_rid = 0
        #: Arrivals a requeue drain handed back, to be offered again.
        self.requeued = []

    def queued(self):
        return [a for lane in self.lanes.values() for a in lane]

    def offer(self, arrival):
        admitted = self.queue.offer(arrival)
        assert admitted == (len(self.queued()) < MAX_DEPTH)
        if admitted:
            self.admitted += 1
            self.lanes.setdefault(arrival.key, []).append(arrival)
        else:
            self.rejected += 1

    @rule(key=st.sampled_from(KEYS), gap=GAPS)
    def arrive(self, key, gap):
        self.now += gap
        self.offer(Arrival(self.next_rid, self.now, "AlexNet", "conv", key))
        self.next_rid += 1

    @precondition(lambda self: self.requeued)
    @rule(data=st.data())
    def requeue(self, data):
        """A drained request comes back, in any order: it may be older
        than its lane's tail."""
        i = data.draw(st.integers(0, len(self.requeued) - 1))
        self.offer(self.requeued.pop(i))

    @precondition(lambda self: self.queued())
    @rule(n=st.integers(1, 3), data=st.data())
    def take(self, n, data):
        key = data.draw(st.sampled_from([k for k, lane in self.lanes.items()
                                         if lane]))
        lane = self.lanes[key]
        assert self.queue.take(key, n) == lane[:n]
        del lane[:n]

    @precondition(lambda self: self.queued())
    @rule(data=st.data())
    def remove(self, data):
        """Cancel one queued request (a hedge's losing copy), or one
        that is not queued."""
        target = data.draw(st.sampled_from(self.queued() + [None]))
        if target is None:
            assert self.queue.remove(KEYS[0], self.next_rid) is None
            return
        assert self.queue.remove(target.key, target.rid) == target
        self.lanes[target.key].remove(target)

    @rule(data=st.data())
    def shed_expired(self, data):
        """Shed at a time no earlier than the last one: at a queued
        deadline, just past one, or a step on."""
        deadlines = [a.t_s + TIMEOUT_S for a in self.queued()]
        times = {self.now, self.now + 0.3}
        times.update(t for d in deadlines for t in (d, d + 0.01))
        self.now = data.draw(st.sampled_from(
            sorted(t for t in times if t >= self.now)))
        expired = [a for a in self.queued()
                   if self.now > a.t_s + TIMEOUT_S]
        assert self.queue.shed_expired(self.now) == expired
        for lane in self.lanes.values():
            lane[:] = [a for a in lane if a not in expired]

    @rule()
    def drain_for_requeue(self):
        drained = self.queued()
        assert self.queue.drain(for_requeue=True) == drained
        for lane in self.lanes.values():
            lane.clear()
        self.requeued.extend(drained)

    @invariant()
    def depth_and_counts_match(self):
        assert len(self.queue) == len(self.queued())
        assert (self.queue.admitted, self.queue.rejected) == \
            (self.admitted, self.rejected)

    @invariant()
    def oldest_lane_is_the_oldest_head(self):
        heads = [(lane[0].t_s, order, key, lane[0])
                 for order, (key, lane) in enumerate(self.lanes.items())
                 if lane]
        want = min(heads)[2:] if heads else None
        assert self.queue.oldest_lane() == want

    @invariant()
    def every_lane_stays_fifo(self):
        lanes = {key: list(lane) for key, lane in self.queue._lanes.items()
                 if lane}
        assert lanes == {key: lane for key, lane in self.lanes.items()
                         if lane}


TestAdmissionQueueMachine = AdmissionQueueMachine.TestCase
TestAdmissionQueueMachine.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None,
    derandomize=True)
