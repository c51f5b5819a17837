"""Dynamic batching policy.

The server's throughput lever: coalesce same-shape requests into one
convolution at a larger batch, where every implementation's per-sample
cost drops (Fig. 3a) and the *winner changes* — unrolling at batch 1,
cuDNN mid-range, fbfft at large batches.  Policy is the classic
max-batch / max-wait pair:

* release a lane as soon as ``max_batch`` requests are waiting;
* otherwise release once its head request has waited ``max_wait_s``
  (latency guard);
* in drain mode (no arrivals left) release immediately.

Released batches are padded up to **power-of-two buckets** by default:
a batch of 5 runs at the batch-8 plan.  Padding trades a bounded
amount of wasted compute (fill is reported) for a tiny plan-key space
— at most ``log2(max_batch)+1`` batch sizes per shape — which is what
lets the plan cache reach steady-state hit rates above 90 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import NamedTuple, Optional, Tuple

from .loadgen import Arrival
from .queue import AdmissionQueue
from .request import ShapeKey, batched_config


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the dynamic batcher."""

    max_batch: int = 64
    max_wait_s: float = 0.002
    bucket: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")

    def padded(self, fill: int, cap: Optional[int] = None) -> int:
        """Batch size a release of ``fill`` requests executes at.

        ``cap`` tightens the bound below ``max_batch`` for the duration
        of a memory-pressure window (the scheduler's graceful
        degradation); callers must have already split ``fill`` down to
        the cap, so the result never drops below ``fill``.
        """
        limit = self.max_batch if cap is None else min(self.max_batch, cap)
        if not self.bucket:
            return fill
        return max(fill, min(next_pow2(fill), limit))


class Batch(NamedTuple):
    """A released batch: the requests plus the execution batch size."""

    requests: Tuple[Arrival, ...]
    key: ShapeKey
    batch: int  # execution (padded) batch size

    @property
    def fill(self) -> int:
        return len(self.requests)

    @property
    def fill_fraction(self) -> float:
        return self.fill / self.batch

    def config(self):
        return batched_config(self.key, self.batch)


class DynamicBatcher:
    """Forms batches from an :class:`AdmissionQueue` under a policy."""

    def __init__(self, policy: BatchPolicy = BatchPolicy()):
        self.policy = policy
        self.released = 0
        self.padded_slots = 0  # cumulative wasted slots from bucketing
        # Hot-path hoists: the policy is frozen for the batcher's
        # lifetime, so its knobs and the (cap-free) fill -> padded map
        # never change.
        self._max_batch = policy.max_batch
        self._max_wait_s = policy.max_wait_s
        self._padded_cache: dict = {}

    def next_batch(self, queue: AdmissionQueue, now_s: float,
                   drain: bool = False) -> Optional[Batch]:
        """Release the oldest lane if policy allows; else ``None``
        (caller advances the clock and retries)."""
        head = queue.oldest_lane()
        if head is None:
            return None
        key, oldest = head
        max_batch = self._max_batch
        # Release when full, waited past the guard, or draining: the
        # rule oldest_full() and release_at() answer for the fleet.
        # Comparing now against the absolute release time keeps
        # advance_to(release) exact ((a + w) - a can round below w).
        if (not drain and now_s < oldest.t_s + self._max_wait_s
                and queue.lane_len(key) < max_batch):
            return None
        requests = queue.take(key, max_batch)
        fill = len(requests)
        padded = self._padded_cache.get(fill)
        if padded is None:
            padded = self._padded_cache[fill] = self.policy.padded(fill)
        self.released += 1
        self.padded_slots += padded - fill
        return Batch(tuple(requests), key, padded)

    def release_at(self, queue: AdmissionQueue) -> float:
        """Earliest time at which the max-wait guard will release the
        oldest lane (for the scheduler's clock); ``inf`` when empty."""
        arrival = queue.oldest_arrival()
        return inf if arrival is None else arrival + self.policy.max_wait_s

    def oldest_full(self, queue: AdmissionQueue) -> bool:
        """Whether the oldest lane holds a full batch (released now)."""
        head = queue.oldest_lane()
        return head is not None and queue.lane_len(head[0]) >= self._max_batch
