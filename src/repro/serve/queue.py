"""Bounded admission queue with timeout-based shedding.

Requests are kept in per-shape FIFO lanes (the batcher drains one lane
per batch) under a single global depth bound.  Two load-control
mechanisms, both counted:

* **admission rejection** — a request arriving at a full queue is
  refused outright (the client sees an immediate "server busy");
* **shedding** — an admitted request whose queueing delay exceeds the
  queue's one timeout is dropped before service (serving it late
  would be wasted work; real serving stacks shed exactly like this).
  The server passes its ``ServerConfig.timeout_s``; a request's
  deadline is its arrival time ``t_s`` plus that timeout.

Shutdown is explicit: :meth:`AdmissionQueue.drain` hands every
outstanding request back to the caller (to be completed with a
``ServerClosed`` rejection — never silently dropped) and
:meth:`AdmissionQueue.close` additionally refuses all further traffic
with :class:`~repro.errors.ServerClosedError`.  A cluster replica
being *drained* (not shut down) calls ``drain(for_requeue=True)``
instead: the requests go back to the router for re-routing rather
than being rejected, so they are kept out of the shed accounting.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ServerClosedError
from .loadgen import Arrival
from .request import ShapeKey


class AdmissionQueue:
    """FIFO-per-shape queue with one global depth bound.

    :meth:`shed_expired` is amortized O(1): the queue maintains a lazy
    lower bound on the earliest queued deadline (``_min_deadline``), so
    the per-iteration scheduler call returns immediately unless some
    deadline has actually passed.  Removals (``take``/``drain``) leave
    the bound stale-*low*, which is safe — at worst one wasted scan.
    Lanes are deadline-sorted in the common case (arrival order),
    letting the scan pop expired heads in O(dropped); a lane only
    falls back to a full partition after an out-of-order insert (a
    cluster requeue of an older request).
    """

    def __init__(self, max_depth: int = 256, timeout_s: float = 0.25):
        if max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        self.max_depth = max_depth
        #: Maximum queueing delay before a request is shed.
        self.timeout_s = timeout_s
        # Ordered so iteration order (and thus tie-breaking between
        # equally old lanes) is deterministic: insertion order.
        self._lanes: "OrderedDict[ShapeKey, Deque[Arrival]]" = OrderedDict()
        self._depth = 0
        self._closed = False
        #: Lower bound on the earliest deadline of any queued request
        #: (stale-low after removals; +inf when provably empty).
        self._min_deadline = float("inf")
        #: Lanes whose deadline order was broken by an out-of-order
        #: insert; they shed by partition instead of head-popping.
        self._unsorted: set = set()
        #: Lazy min-heap of ``(head_t_s, lane_seq, key)`` entries,
        #: one pushed per head change.  Stale entries (the lane moved on)
        #: are discarded when they surface at the top, making
        #: :meth:`oldest_lane` amortized O(1) instead of an O(lanes)
        #: scan per batcher release.
        self._head_heap: List[Tuple[float, int, ShapeKey]] = []
        #: Lane creation order — the tie-break the heap shares with the
        #: OrderedDict scan it replaces (keys are never deleted, so
        #: creation order *is* iteration order).
        self._lane_seq: Dict[ShapeKey, int] = {}
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        #: Requests returned by drain()/close() — completed with a
        #: ServerClosed rejection by the caller, counted here.
        self.closed_out = 0

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self._depth

    @property
    def is_closed(self) -> bool:
        return self._closed

    def lane_sizes(self) -> Dict[ShapeKey, int]:
        return {k: len(d) for k, d in self._lanes.items() if d}

    def lane_len(self, key: ShapeKey) -> int:
        """Depth of one lane (0 for an unknown key) — the batcher's
        per-release query, without materialising :meth:`lane_sizes`."""
        lane = self._lanes.get(key)
        return len(lane) if lane is not None else 0

    def oldest_lane(self) -> Optional[Tuple[ShapeKey, Arrival]]:
        """The lane whose head request has waited longest, as
        ``(key, head)``; ``None`` when empty.  Ties break by lane
        insertion order, keeping the selection deterministic.

        Served from the lazy head heap: the top entry is returned if it
        still describes its lane's current head, else discarded.  An
        entry whose arrival matches the current head is equivalent to a
        fresh one — selection depends only on (arrival, lane order) —
        so equal-arrival staleness cannot change the answer.
        """
        heap = self._head_heap
        lanes = self._lanes
        while heap:
            arrival, _seq, key = heap[0]
            lane = lanes.get(key)
            if lane and lane[0].t_s == arrival:
                return (key, lane[0])
            heapq.heappop(heap)
        return None

    def oldest_arrival(self) -> Optional[float]:
        head = self.oldest_lane()
        return None if head is None else head[1].t_s

    # -- mutation ----------------------------------------------------------

    def offer(self, request: Arrival) -> bool:
        """Admit ``request`` unless the queue is full.

        Raises :class:`ServerClosedError` after :meth:`close` — a
        closed server must refuse loudly, not enqueue into the void.
        """
        if self._closed:
            raise ServerClosedError(
                f"queue is closed; request {request.rid} refused")
        if self._depth >= self.max_depth:
            self.rejected += 1
            return False
        lane = self._lanes.get(request.key)
        if lane is None:
            lane = self._lanes[request.key] = deque()
            self._lane_seq[request.key] = len(self._lane_seq)
        timeout_s = self.timeout_s
        deadline = request.t_s + timeout_s
        if lane:
            if deadline < lane[-1].t_s + timeout_s:
                self._unsorted.add(request.key)
        else:
            # Appending to an empty lane creates a new head.
            heapq.heappush(self._head_heap,
                           (request.t_s,
                            self._lane_seq[request.key], request.key))
        lane.append(request)
        if deadline < self._min_deadline:
            self._min_deadline = deadline
        self._depth += 1
        self.admitted += 1
        return True

    def take(self, key: ShapeKey, n: int) -> List[Arrival]:
        """Remove and return up to ``n`` requests from one lane."""
        lane = self._lanes.get(key)
        if lane is None:
            return []
        if len(lane) <= n:
            out = list(lane)
            lane.clear()
        elif n == 1:
            # batch=1 serving: one pop, no listcomp machinery.
            out = [lane.popleft()]
            heapq.heappush(self._head_heap,
                           (lane[0].t_s, self._lane_seq[key], key))
        else:
            popleft = lane.popleft
            out = [popleft() for _ in range(n)]
            # The lane has a new head; the old entry goes stale.
            heapq.heappush(self._head_heap,
                           (lane[0].t_s, self._lane_seq[key], key))
        self._depth -= len(out)
        return out

    def remove(self, key: ShapeKey, rid: int) -> Optional[Arrival]:
        """Remove one specific queued request by id (``None`` when it
        is not queued here).

        The hedging path: when one copy of a hedged request completes,
        the losing copy is cancelled out of its queue instead of being
        served twice.  O(lane) — lanes are short and cancellations
        rare.  The deadline bound is left stale-low (safe: at worst
        one wasted :meth:`shed_expired` scan) and a removed head
        pushes the lane's new head onto the lazy heap, exactly like
        :meth:`take`.
        """
        lane = self._lanes.get(key)
        if not lane:
            return None
        for i, request in enumerate(lane):
            if request.rid == rid:
                del lane[i]
                self._depth -= 1
                if i == 0 and lane:
                    heapq.heappush(self._head_heap,
                                   (lane[0].t_s,
                                    self._lane_seq[key], key))
                return request
        return None

    def drain(self, for_requeue: bool = False) -> List[Arrival]:
        """Remove and return every outstanding request, in lane order.

        Two callers with different accounting:

        * **shutdown** (the default) — the caller owns completing each
          request with a ``ServerClosed`` rejection (the scheduler
          records them under the ``closed`` shed cause); the requests
          are counted in :attr:`closed_out` so nothing disappears from
          the accounting;
        * **requeue** (``for_requeue=True``) — a cluster replica being
          drained hands its in-flight requests back to the router for
          re-routing; the requests are *not* shed, so they stay out of
          :attr:`closed_out` (the replica's report records them under
          the ``requeued`` cause instead, and they complete elsewhere).
        """
        out: List[Arrival] = []
        for lane in self._lanes.values():
            out.extend(lane)
            lane.clear()
        self._depth = 0
        self._min_deadline = float("inf")
        self._unsorted.clear()
        self._head_heap.clear()
        if not for_requeue:
            self.closed_out += len(out)
        return out

    def close(self) -> List[Arrival]:
        """Drain the queue and refuse all further offers.

        Returns the outstanding requests exactly as :meth:`drain`
        does; calling :meth:`close` twice is a no-op returning ``[]``.
        """
        drained = self.drain() if not self._closed else []
        self._closed = True
        return drained

    def shed_expired(self, now_s: float) -> List[Arrival]:
        """Drop every admitted request whose deadline has passed.

        Amortized O(1): returns immediately unless ``now_s`` has moved
        past the tracked minimum deadline.  When it has, sorted lanes
        pop expired heads in O(dropped); only lanes marked unsorted by
        an out-of-order insert pay a full partition.
        """
        if now_s <= self._min_deadline:
            return []
        dropped: List[Arrival] = []
        min_deadline = float("inf")
        timeout_s = self.timeout_s
        unsorted = self._unsorted
        for key, lane in self._lanes.items():
            if not lane:
                continue
            if key in unsorted:
                kept = deque(r for r in lane
                             if not now_s > r.t_s + timeout_s)
                if len(kept) != len(lane):
                    dropped.extend(r for r in lane
                                   if now_s > r.t_s + timeout_s)
                    lane.clear()
                    lane.extend(kept)
                if lane:
                    lane_min = min(r.t_s + timeout_s for r in lane)
                    if lane_min < min_deadline:
                        min_deadline = lane_min
                else:
                    unsorted.discard(key)
            else:
                while lane:
                    deadline = lane[0].t_s + timeout_s
                    if now_s > deadline:
                        dropped.append(lane.popleft())
                    else:
                        if deadline < min_deadline:
                            min_deadline = deadline
                        break
        self._min_deadline = min_deadline
        if dropped:
            # A shedding pass already visited every lane; rebuilding the
            # head heap here both repairs the changed heads and sweeps
            # out accumulated stale entries.
            seq = self._lane_seq
            self._head_heap = [(lane[0].t_s, seq[k], k)
                               for k, lane in self._lanes.items() if lane]
            heapq.heapify(self._head_heap)
        self._depth -= len(dropped)
        self.shed += len(dropped)
        return dropped
