"""The serving request model.

A request is one inference sample for one convolutional layer shape —
the unit the batcher coalesces.  Shapes are identified by a
:data:`ShapeKey`, the :class:`~repro.config.ConvConfig` 6-tuple with
the batch dimension removed: two requests share a key exactly when
they can ride in the same batch, and the plan cache keys on
``(ShapeKey, batch, device)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Tuple

from ..config import ConvConfig

#: (input_size, filters, kernel_size, stride, channels, padding) —
#: a ConvConfig minus its batch dimension.
ShapeKey = Tuple[int, int, int, int, int, int]


def shape_key(config: ConvConfig) -> ShapeKey:
    """The batch-independent identity of a configuration."""
    return (config.input_size, config.filters, config.kernel_size,
            config.stride, config.channels, config.padding)


@lru_cache(maxsize=4096)
def batched_config(key: ShapeKey, batch: int) -> ConvConfig:
    """Rebuild a :class:`ConvConfig` from a shape key at ``batch``.

    Memoized: the serving hot path rebuilds the same few hundred
    (shape, bucketed batch) configurations millions of times, and
    ``ConvConfig`` is frozen, so sharing one instance per point is
    safe and skips the dataclass construction cost.
    """
    i, f, k, s, c, p = key
    return ConvConfig(batch=batch, input_size=i, filters=f, kernel_size=k,
                      stride=s, channels=c, padding=p)


class Request(NamedTuple):
    """One single-sample inference request: an immutable record.

    A serving run builds one per arrival, so it is a ``NamedTuple``:
    built in one call, with no instance ``__dict__``, and assigning
    to a field raises.  Like any tuple it compares equal to a plain
    tuple of the same fields.

    Attributes
    ----------
    rid:
        Monotonic request id (trace order).
    model / layer:
        Provenance labels ("VGG", "conv1_1") — reporting only.
    key:
        The layer shape; the batching identity.
    arrival_s:
        Simulated arrival time.
    timeout_s:
        Maximum queueing delay before the request is shed.
    """

    rid: int
    model: str
    layer: str
    key: ShapeKey
    arrival_s: float
    timeout_s: float

    @property
    def deadline_s(self) -> float:
        """Latest simulated time at which service may still start."""
        return self.arrival_s + self.timeout_s

    def expired(self, now_s: float) -> bool:
        return now_s > self.deadline_s

    def config(self, batch: int = 1) -> ConvConfig:
        return batched_config(self.key, batch)
